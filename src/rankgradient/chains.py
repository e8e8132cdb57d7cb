"""Chains of finite-index subgroups and their gradient sequences.

A chain is a list of levels, one coset table each, under a fixed ambient
presentation; level 0 is always the whole group.  Three builders are
provided: normal-core chains seeded by a finite-index subgroup, cyclic-power
chains over a designated stable letter, and the wreath-quotient family
realizing a two-generator group whose level subgroups need at least 2^n
generators while the index is only 2^n.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

from .cosets import (
    DEFAULT_COSET_CAP,
    contains,
    enumerate_cosets,
    intersect,
    is_normal,
    normal_core,
    subgroups_of_index,
)
from .errors import BudgetError, InternalInvariantError, RelatorLengthExceeded
from .homology import DEFAULT_PRIMES
from .subgroups import RankBounds, rank_bounds, subgroup_homology
from .words import Presentation, SubgroupSpec, Word, csv_table, frac_str, free_reduce

DEFAULT_CHAIN_INDEX_CAP = 10_000

REPORT_SCHEMA_VERSION = 1


class Chain(namedtuple("Chain", "ambient levels provenance nested stabilized truncated",
                       defaults=((), (), None))):
    """Nested (or at least index-increasing) finite-index subgroups.

    ``levels`` is a tuple of CosetTable, and ``levels[0]`` is the whole
    group.  A level's spec is ``table.spec``: the words it was enumerated
    from, or None for a level derived by intersection and normal core.
    ``nested[i]`` certifies that level i lies in level i-1
    (``cosets.contains``); ``stabilized`` lists levels whose index failed to
    grow; ``truncated`` carries a human-readable marker when a budget
    stopped the construction early.
    """

    __slots__ = ()

    def indices(self):
        return tuple(table.index for table in self.levels)


def _whole_group_level(pres):
    spec = SubgroupSpec(generators=tuple((i + 1,) for i in range(pres.rank)), name="G")
    return enumerate_cosets(pres, spec)


def _certify(levels):
    """Membership certificates: level i lies in level i-1."""
    return (True,) + tuple(
        contains(levels[i - 1], levels[i]) for i in range(1, len(levels))
    )


def _stabilization(levels):
    out = []
    for i in range(1, len(levels)):
        if levels[i].index <= levels[i - 1].index:
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
    coset_cap: int = DEFAULT_COSET_CAP,
) -> Chain:
    """Normal-core chain: level 1 = H, level n = core(H) meet Delta_n, where
    Delta_n intersects every subgroup of index at most n.

    Levels from 2 on are normal.  Hitting the index cap truncates the chain
    with a marker instead of failing; a Delta_n past the cap is counted by
    ``intersect``, not built.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    levels = [_whole_group_level(pres)]
    h_table = enumerate_cosets(pres, sub, cap=coset_cap)
    truncated = None
    if h_table.index > index_cap:
        truncated = f"stopped before level 1: level index {h_table.index} exceeds cap {index_cap}"
    else:
        levels.append(h_table)
    if depth >= 2 and truncated is None:
        core = normal_core(h_table)
        delta = None  # running intersection of all subgroups of index <= n
        for n in range(2, depth + 1):
            try:
                for t in subgroups_of_index(pres, n):
                    if delta is not None and contains(t, delta):
                        continue  # intersection already inside t
                    delta = t if delta is None else intersect(delta, t, index_cap)
                    if delta.index > index_cap:
                        raise BudgetError(
                            f"intersection index {delta.index} exceeds cap {index_cap}"
                        )
                level = intersect(core, delta) if delta is not None else core
                if level.index > index_cap:
                    raise BudgetError(f"level index {level.index} exceeds cap {index_cap}")
            except BudgetError as exc:
                truncated = f"stopped before level {n}: {exc}"
                break
            levels.append(level)
    return _finish_chain(pres, levels, f"farber(H={sub.name}, depth={depth})", truncated)


def hnn_chain(
    pres: Presentation, stable: str, depth: int, coset_cap: int = DEFAULT_COSET_CAP
) -> Chain:
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
        table = enumerate_cosets(pres, spec, cap=coset_cap)
        if table.index != n:
            raise ValueError(
                f"level {n} has index {table.index}, expected {n}; "
                "the stable letter does not map onto Z in this presentation"
            )
        if not is_normal(table):
            raise ValueError(f"level {n} is not normal")
        levels.append(table)
    return _finish_chain(pres, levels, f"hnn(stable={stable}, depth={depth})")


def lamplighter_presentation(m: int) -> Presentation:
    """Finite wreath quotient (Z/2 by Z/2^m): <a,t | a^2, t^(2^m),
    [a, t^-i a t^i] for 1 <= i <= 2^(m-1)>."""
    relators = [(1, 1), (2,) * (2 ** m)]
    for i in range(1, 2 ** (m - 1) + 1):
        conj = tuple([-2] * i + [1] + [2] * i)
        relators.append(free_reduce((1,) + conj + (-1,) + tuple(-x for x in reversed(conj))))
    return Presentation(generators=("a", "t"), relators=tuple(relators))


def lamplighter_chain(m: int, depth: int, coset_cap: int = DEFAULT_COSET_CAP) -> Chain:
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
        table = enumerate_cosets(pres, spec, cap=coset_cap)
        if table.index != 2 ** n:
            raise InternalInvariantError(
                f"level {n} has index {table.index}, expected {2 ** n}"
            )
        levels.append(table)
    return _finish_chain(pres, levels, f"lamplighter(m={m}, depth={depth})")


# ---------------------------------------------------------------------------
# Gradient sequences
# ---------------------------------------------------------------------------


class LevelStats(namedtuple(
    "LevelStats",
    "level index rank_lower rank_upper schreier_upper beta1 b1p exact error note",
    defaults=(None, None, None, None, None, False, None, None),
)):
    """One level's rank bounds and homology; ``note`` names a cap or limit
    met in bounding the level."""

    __slots__ = ()

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


class GradientReport(namedtuple("GradientReport", "chain_provenance primes levels schema_version",
                                defaults=(REPORT_SCHEMA_VERSION,))):
    """A chain's LevelStats, one per level."""

    __slots__ = ()


def _level_stats(table, level, primes):
    """LevelStats of one level.  When rewriting for the Tietze upper bound
    trips the relator length cap, the level keeps its homology and reports
    the Schreier count 1 + index * (rank - 1), with a note naming the cap.
    A note of the Tietze result (the step limit, refused eliminations) is
    carried over, saying so when the spec words give a lower rank_upper
    than Tietze, which the note then does not touch."""
    try:
        report = subgroup_homology(table, primes)
        try:
            bounds = rank_bounds(table, report)
            note = bounds.note
        except RelatorLengthExceeded as exc:
            bounds = RankBounds(
                report.rank_lower, 1 + table.index * (table.pres.rank - 1)
            )
            note = f"rank_upper is the Schreier count: {exc}"
        lower, upper = bounds
        spec = table.spec
        if spec is not None and not spec.normal and spec.generators:
            # the spec words generate the subgroup by construction, so their
            # count is a certified upper bound too
            upper = max(min(upper, len(spec.generators)), lower)
            if bounds.note and upper < bounds[1]:
                note = (
                    f"{bounds.note} (its bound is {bounds[1]}; rank_upper {upper} "
                    "comes from the spec words and is unaffected)"
                )
        return LevelStats(
            level=level,
            index=table.index,
            rank_lower=lower,
            rank_upper=upper,
            schreier_upper=None,  # filled in sequentially afterwards
            beta1=report.beta1,
            b1p=dict(report.b1p),
            exact=lower == upper,
            note=note,
        )
    except BudgetError as exc:
        return LevelStats(level=level, index=table.index, error=str(exc))


def gradient_sequence(chain: Chain, primes=DEFAULT_PRIMES) -> GradientReport:
    """Per-level rank bounds, homology and exact-rational gradient ratios.

    Levels are evaluated independently and a failed level is reported in
    place, never aborting its neighbours.  The schreier_upper column chains
    the Schreier bound through the levels:
    s_n = 1 + [G_{n-1}:G_n] * (best known upper at level n-1 minus 1), which
    makes (schreier_upper - 1)/index non-increasing whenever consecutive
    levels are nested.
    """
    stats = [_level_stats(table, i, primes) for i, table in enumerate(chain.levels)]

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
        st = st._replace(schreier_upper=schreier)
        out.append(st)
        prev_best = min(schreier, st.rank_upper)
        prev_index = st.index
    return GradientReport(
        chain_provenance=chain.provenance, primes=tuple(primes), levels=tuple(out)
    )


def farber_defect(chain: Chain, w: Word, level: int) -> Fraction:
    """Fraction of level cosets fixed by w; 0 means fixed-point-free."""
    w = free_reduce(w)
    if not w:
        raise ValueError("the defect of the identity is always 1; pass a nontrivial word")
    table = chain.levels[level]
    perm = table.word_perm(w)
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
            if st.note:
                entry["note"] = st.note
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
    rows = []
    for st in report.levels:
        if st.error:
            rows.append([st.level, st.index] + [""] * (len(header) - 4) + ["", st.error])
        else:
            ratios = st.ratios()
            rows.append(
                [st.level, st.index, st.rank_lower, st.rank_upper, st.schreier_upper, st.beta1]
                + [st.b1p[p] for p in report.primes]
                + [frac_str(ratios[k]) for k in ratio_keys]
                + [f"{float(ratios[k]):.6f}" for k in ratio_keys]
                + [st.exact, f"NOTE {st.note}" if st.note else ""]
            )
    return csv_table(header, rows)
