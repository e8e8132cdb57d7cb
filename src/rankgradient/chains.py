"""Chains of finite-index subgroups and their gradient sequences.

A chain is a list of levels (coset table, subgroup spec) under a fixed
ambient presentation; level 0 is always the whole group.  Three builders are
provided: normal-core chains seeded by a finite-index subgroup, cyclic-power
chains over a designated stable letter, and the wreath-quotient family
realizing a two-generator group whose level subgroups need at least 2^n
generators while the index is only 2^n.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .cosets import (
    enumerate_cosets,
    coset_action,
    intersect,
    is_normal,
    low_index,
    normal_core,
)
from .errors import BudgetError, InternalInvariantError
from .homology import DEFAULT_PRIMES
from .subgroups import rank_bounds, subgroup_homology
from .words import Presentation, SubgroupSpec, Word, frac_str, free_reduce

DEFAULT_CHAIN_INDEX_CAP = 10_000

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Chain:
    """Nested (or at least index-increasing) finite-index subgroups.

    ``levels[0]`` is the whole group.  ``nested[i]`` certifies that every
    spec generator of level i lies in level i-1 (membership via the level
    i-1 table); ``stabilized`` lists levels whose index failed to grow;
    ``truncated`` carries a human-readable marker when a budget stopped the
    construction early.
    """

    ambient: Presentation
    levels: tuple  # of (CosetTable, SubgroupSpec)
    provenance: str
    nested: tuple = ()
    stabilized: tuple = ()
    truncated: str = None

    @property
    def depth(self):
        return len(self.levels) - 1

    def indices(self):
        return tuple(table.index for table, _ in self.levels)

    def table(self, level):
        return self.levels[level][0]


def _whole_group_level(pres):
    spec = SubgroupSpec(generators=tuple((i + 1,) for i in range(pres.rank)), name="G")
    return enumerate_cosets(pres, spec, provenance="whole group"), spec


def _certify(levels):
    """Membership certificates: level i spec words fix the base coset of level i-1."""
    nested = [True]
    for i in range(1, len(levels)):
        prev_table = levels[i - 1][0]
        spec = levels[i][1]
        nested.append(all(prev_table.fixes_base(w) for w in spec.generators))
    return tuple(nested)


def _stabilization(levels):
    out = []
    for i in range(1, len(levels)):
        if levels[i][0].index <= levels[i - 1][0].index:
            out.append(i)
    return tuple(out)


def _finish_chain(pres, levels, provenance, truncated=None):
    return Chain(
        ambient=pres,
        levels=tuple(levels),
        provenance=provenance,
        nested=_certify(levels),
        stabilized=_stabilization(levels),
        truncated=truncated,
    )


def farber_chain(
    pres: Presentation,
    sub: SubgroupSpec,
    depth: int,
    index_cap: int = DEFAULT_CHAIN_INDEX_CAP,
    coset_cap: int = None,
) -> Chain:
    """Normal-core chain: level 1 = H, level n = core(H) meet Delta_n, where
    Delta_n intersects every subgroup of index at most n.

    Levels from 2 on are normal.  Hitting the index cap truncates the chain
    with a marker instead of failing.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    kwargs = {} if coset_cap is None else {"cap": coset_cap}
    levels = [_whole_group_level(pres)]
    h_table = enumerate_cosets(pres, sub, provenance="chain seed", **kwargs)
    levels.append((h_table, sub))
    truncated = None
    if depth >= 2:
        core = normal_core(h_table)
        delta = None  # running intersection of all subgroups of index <= n
        for n in range(2, depth + 1):
            try:
                for t in low_index(pres, n):
                    if t.index != n:
                        continue
                    if delta is not None and all(
                        t.fixes_base(w) for w in delta.spec.generators
                    ):
                        continue  # intersection already inside t
                    delta = t if delta is None else intersect(delta, t)
                    if delta.index > index_cap:
                        raise BudgetError(
                            f"intersection index {delta.index} exceeds cap {index_cap}"
                        )
                level = intersect(core, delta) if delta is not None else core
                if level.index > index_cap:
                    raise BudgetError(
                        f"level index {level.index} exceeds cap {index_cap}"
                    )
            except BudgetError as exc:
                truncated = f"stopped before level {n}: {exc}"
                break
            levels.append((level, level.spec))
    return _finish_chain(pres, levels, f"farber(H={sub.name}, depth={depth})", truncated)


def hnn_chain(pres: Presentation, stable: str, depth: int) -> Chain:
    """Cyclic-power sequence over a stable letter: level n = <A, t^n> where A
    is generated by the other generators.

    These subgroups all contain A but are not nested in each other unless n
    divides n+1, so the membership certificates record that honestly.
    Verifies index n and normality for every level.
    """
    if stable not in pres.generators:
        raise ValueError(f"no generator named {stable!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    t_letter = pres.generators.index(stable) + 1
    base_letters = tuple(
        (i + 1,) for i in range(pres.rank) if i + 1 != t_letter
    )
    levels = [_whole_group_level(pres)]
    for n in range(1, depth + 1):
        spec = SubgroupSpec(generators=base_letters + ((t_letter,) * n,), name=f"G{n}")
        table = enumerate_cosets(pres, spec, provenance=f"hnn level {n}")
        if table.index != n:
            raise ValueError(
                f"level {n} has index {table.index}, expected {n}; "
                "the stable letter does not map onto Z in this presentation"
            )
        if not is_normal(table):
            raise ValueError(f"level {n} is not normal")
        levels.append((table, spec))
    return _finish_chain(pres, levels, f"hnn(stable={stable}, depth={depth})")


def lamplighter_presentation(m: int) -> Presentation:
    """Finite wreath quotient (Z/2 by Z/2^m): <a,t | a^2, t^(2^m),
    [a, t^-i a t^i] for 1 <= i <= 2^(m-1)>."""
    relators = [(1, 1), (2,) * (2 ** m)]
    for i in range(1, 2 ** (m - 1) + 1):
        conj = tuple([-2] * i + [1] + [2] * i)
        relators.append(free_reduce((1,) + conj + (-1,) + tuple(-x for x in reversed(conj))))
    return Presentation(generators=("a", "t"), relators=tuple(relators))


def lamplighter_chain(m: int, depth: int) -> Chain:
    """Levels inside the finite wreath quotient of exponent m.

    Level n is generated by the 2^n conjugates t^-i a t^i (0 <= i < 2^n)
    plus t^(2^n); its index 2^n is verified by enumeration.  The point of
    the family: rank grows like the index while beta1-type invariants keep
    the ratio (b_{1,2}-1)/index pinned at 1.
    """
    if not 1 <= depth <= m:
        raise ValueError("need 1 <= depth <= m")
    pres = lamplighter_presentation(m)
    levels = [_whole_group_level(pres)]
    for n in range(1, depth + 1):
        gens = tuple(
            free_reduce([-2] * i + [1] + [2] * i) for i in range(2 ** n)
        ) + ((2,) * (2 ** n),)
        spec = SubgroupSpec(generators=gens, name=f"G{n}")
        table = enumerate_cosets(pres, spec, provenance=f"lamplighter level {n}")
        if table.index != 2 ** n:
            raise InternalInvariantError(
                f"level {n} has index {table.index}, expected {2 ** n}"
            )
        levels.append((table, spec))
    return _finish_chain(pres, levels, f"lamplighter(m={m}, depth={depth})")


# ---------------------------------------------------------------------------
# Gradient sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelStats:
    level: int
    index: int
    rank_lower: int = None
    rank_upper: int = None
    schreier_upper: int = None
    beta1: int = None
    b1p: dict = None
    exact: bool = False
    error: str = None

    def ratios(self):
        """The four gradient ratios at this level as exact rationals."""
        if self.error:
            return {}
        out = {
            "rank_upper": Fraction(self.rank_upper - 1, self.index),
            "rank_lower": Fraction(self.rank_lower - 1, self.index),
            "beta1": Fraction(self.beta1, self.index),
        }
        for p, b in sorted(self.b1p.items()):
            out[f"b1_{p}"] = Fraction(b, self.index)
        return out


@dataclass(frozen=True)
class GradientReport:
    chain_provenance: str
    primes: tuple
    levels: tuple  # of LevelStats
    schema_version: int = REPORT_SCHEMA_VERSION


def _level_stats(pres, table, spec, level, primes, effort):
    try:
        report = subgroup_homology(table, primes)
        lower, upper = rank_bounds(
            pres, table, primes=primes, effort=effort, report=report
        )
        if not spec.normal and spec.generators:
            # the spec words generate the subgroup by construction, so their
            # count is a certified upper bound too
            upper = max(min(upper, len(spec.generators)), lower)
        return LevelStats(
            level=level,
            index=table.index,
            rank_lower=lower,
            rank_upper=upper,
            schreier_upper=None,  # filled in sequentially afterwards
            beta1=report.beta1,
            b1p=dict(report.b1p),
            exact=lower == upper,
        )
    except BudgetError as exc:
        return LevelStats(level=level, index=table.index, error=str(exc))


def gradient_sequence(
    chain: Chain, primes=DEFAULT_PRIMES, effort: int = 2
) -> GradientReport:
    """Per-level rank bounds, homology and exact-rational gradient ratios.

    Levels are evaluated independently and a failed level is reported in
    place, never aborting its neighbours.  The schreier_upper column chains
    the Schreier bound through the levels:
    s_n = 1 + [G_{n-1}:G_n] * (best known upper at level n-1 minus 1), which
    makes (schreier_upper - 1)/index non-increasing whenever consecutive
    levels are nested.
    """
    stats = [
        _level_stats(chain.ambient, table, spec, i, primes, effort)
        for i, (table, spec) in enumerate(chain.levels)
    ]

    # Chain the Schreier bound through the levels in order.
    prev_best = None
    prev_index = None
    base_best = len(chain.ambient.generators)
    out = []
    for st in stats:
        if st.error:
            out.append(st)
            prev_best = None
            continue
        if st.level == 0:
            base_best = st.rank_upper
        if prev_best is None:
            schreier = st.rank_upper
        elif chain.nested[st.level] and st.index % prev_index == 0:
            rel_index = st.index // prev_index
            schreier = 1 + rel_index * (prev_best - 1)
        else:
            # not nested in the previous level; bound inside the whole group
            schreier = 1 + st.index * (base_best - 1)
        st = replace(st, schreier_upper=schreier)
        out.append(st)
        prev_best = min(schreier, st.rank_upper)
        prev_index = st.index
    return GradientReport(
        chain_provenance=chain.provenance, primes=tuple(primes), levels=tuple(out)
    )


def fgnormal_bound(dN: int, dG: int, a: int, b: int) -> Fraction:
    """Upper bound dG/b + dN/a for the level ratio of a chain squeezed
    between a normal subgroup of rank dN and quotient data (a, b)."""
    if min(dN, dG, a, b) < 1:
        raise ValueError("all arguments must be >= 1")
    return Fraction(dG, b) + Fraction(dN, a)


def farber_defect(chain: Chain, w: Word, level: int) -> Fraction:
    """Fraction of level cosets fixed by w; 0 means fixed-point-free."""
    w = free_reduce(w)
    if not w:
        raise ValueError("the defect of the identity is always 1; pass a nontrivial word")
    table = chain.table(level)
    perm = coset_action(table, w)
    fixed = sum(1 for i, x in enumerate(perm) if x == i)
    return Fraction(fixed, table.index)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_obj(report: GradientReport) -> dict:
    levels = []
    for st in report.levels:
        entry = {"level": st.level, "index": st.index}
        if st.error:
            entry["error"] = st.error
        else:
            entry.update(
                rank_lower=st.rank_lower,
                rank_upper=st.rank_upper,
                schreier_upper=st.schreier_upper,
                beta1=st.beta1,
                b1p={str(p): b for p, b in sorted(st.b1p.items())},
                exact=st.exact,
                ratios={k: frac_str(v) for k, v in st.ratios().items()},
            )
        levels.append(entry)
    return {
        "schema_version": report.schema_version,
        "chain": report.chain_provenance,
        "primes": list(report.primes),
        "levels": levels,
    }


def report_to_json(report: GradientReport) -> str:
    return json.dumps(report_to_obj(report), indent=2)


def report_to_csv(report: GradientReport) -> str:
    """CSV with exact "p/q" ratio columns plus 6-place decimal approximations."""
    buf = io.StringIO()
    ratio_keys = ["rank_upper", "rank_lower", "beta1"] + [
        f"b1_{p}" for p in report.primes
    ]
    header = (
        ["level", "index", "rank_lower", "rank_upper", "schreier_upper", "beta1"]
        + [f"b1p_{p}" for p in report.primes]
        + [f"ratio_{k}" for k in ratio_keys]
        + [f"ratio_{k}_approx" for k in ratio_keys]
        + ["exact", "error"]
    )
    writer = csv.writer(buf)
    writer.writerow(header)
    for st in report.levels:
        if st.error:
            row = [st.level, st.index] + [""] * (len(header) - 4) + ["", st.error]
        else:
            ratios = st.ratios()
            row = (
                [st.level, st.index, st.rank_lower, st.rank_upper, st.schreier_upper, st.beta1]
                + [st.b1p[p] for p in report.primes]
                + [frac_str(ratios[k]) for k in ratio_keys]
                + [f"{float(ratios[k]):.6f}" for k in ratio_keys]
                + [st.exact, ""]
            )
        writer.writerow(row)
    return buf.getvalue()
