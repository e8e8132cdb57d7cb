"""Cylindric graphings on a fixed level, the L-graphing check and the
labeled-graph rank bound.

A graphing at level n is a finite map from freely reduced word labels to
sets of level-n cosets; evaluating the boundary-action definitions on the
level quotient keeps every measure an exact rational.  Labels are compared
as free words, never modulo the relators: two labels equal in the group but
distinct as words stay distinct, which can only overcount the edge measure
and never affects connectivity, loop images, or the rank bound.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .cosets import (
    DEFAULT_COSET_CAP,
    enumerate_cosets,
    schreier_generators,
    schreier_transversal,
)
from .errors import IndexBoundExceeded, LabelLengthExceeded
from .homology import DEFAULT_PRIMES, report_from_matrix
from .subgroups import subgroup_abelianized_matrix, subgroup_homology
from .words import SubgroupSpec, free_reduce, invert, read_only

DEFAULT_LABEL_CAP = 64


# ---------------------------------------------------------------------------
# Graphings
# ---------------------------------------------------------------------------


class Graphing:
    """Finitely supported label -> coset-set map over one level's table.
    Equality reads the level and the fibers, not the table."""

    def __init__(self, table, level, fibers=None):
        cleaned = {}
        for label, cosets in (fibers or {}).items():
            label = free_reduce(label)
            cosets = frozenset(cosets)
            if not cosets:
                continue
            if any(not 0 <= c < table.index for c in cosets):
                raise ValueError(f"fiber of {label} contains an out-of-range coset")
            cleaned[label] = cleaned.get(label, frozenset()) | cosets
        self.__dict__.update(table=table, level=level, fibers=cleaned)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        return (
            isinstance(other, Graphing)
            and self.level == other.level
            and self.fibers == other.fibers
        )

    @property
    def index(self):
        return self.table.index

    def incidences(self):
        """Sorted (coset, label) pairs."""
        return sorted(
            (c, label) for label, cosets in self.fibers.items() for c in cosets
        )


def edge_measure(m: Graphing) -> Fraction:
    return sum(
        (Fraction(len(cosets), m.index) for cosets in m.fibers.values()),
        Fraction(0),
    )


def bar(m: Graphing) -> Graphing:
    """m, its transpose, and the identity fiber on every coset."""
    fibers = {label: set(cosets) for label, cosets in m.fibers.items()}
    for label, cosets in m.fibers.items():
        inv = invert(label)
        targets = {m.table.apply(label, c) for c in cosets}
        fibers.setdefault(inv, set()).update(targets)
    fibers.setdefault((), set()).update(range(m.index))
    return Graphing(table=m.table, level=m.level, fibers=fibers)


def compose(m: Graphing, n: Graphing) -> Graphing:
    """(c, g1 g2) for every (c, g1) in m with (c.g1, g2) in n; a label
    longer than DEFAULT_LABEL_CAP letters raises LabelLengthExceeded."""
    if m.level != n.level:
        raise ValueError("graphings live on different levels")
    fibers = {}
    for g1, cosets1 in m.fibers.items():
        for c in cosets1:
            mid = m.table.apply(g1, c)
            for g2, cosets2 in n.fibers.items():
                if mid in cosets2:
                    label = free_reduce(g1 + g2)
                    if len(label) > DEFAULT_LABEL_CAP:
                        raise LabelLengthExceeded(DEFAULT_LABEL_CAP, label)
                    fibers.setdefault(label, set()).add(c)
    return Graphing(table=m.table, level=m.level, fibers=fibers)


def union(m: Graphing, n: Graphing) -> Graphing:
    if m.level != n.level:
        raise ValueError("graphings live on different levels")
    fibers = {label: set(cosets) for label, cosets in m.fibers.items()}
    for label, cosets in n.fibers.items():
        fibers.setdefault(label, set()).update(cosets)
    return Graphing(table=m.table, level=m.level, fibers=fibers)


def power(m: Graphing, k: int) -> Graphing:
    """m^1 = bar(m); m^k = m^(k-1) union m^(k-1).bar(m)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    base = bar(m)
    acc = base
    for _ in range(k - 1):
        acc = union(acc, compose(acc, base))
    return acc


def projected_edges(m: Graphing):
    """Undirected (coset, coset) pairs realized by some incidence."""
    edges = set()
    for label, cosets in m.fibers.items():
        for c in cosets:
            d = m.table.apply(label, c)
            edges.add((min(c, d), max(c, d)))
    return edges


def graphing_from_generators(chain, level: int, gens) -> Graphing:
    """The seed graphing of a level: each subgroup generator on the base
    coset plus each non-identity transversal word on the base coset.

    Its edge measure is (d + index - 1)/index for d distinct generator labels.
    """
    table = chain.levels[level]
    fibers = {}
    for g in gens:
        g = free_reduce(g)
        if not table.fixes_base(g):
            raise ValueError(
                f"word {chain.ambient.word_str(g)} is not in the level-{level} subgroup"
            )
        fibers.setdefault(g, set()).add(0)
    words, _ = schreier_transversal(table)
    for w in words[1:]:
        fibers.setdefault(w, set()).add(0)
    return Graphing(table=table, level=level, fibers=fibers)


# ---------------------------------------------------------------------------
# Labeled graphs and the rank bound
# ---------------------------------------------------------------------------


def to_labeled_graph(m: Graphing):
    """(loop basis, disconnected flag) of the labeled graph with one
    undirected edge c -- c.label per (coset, label) incidence: one
    fundamental-cycle word per non-tree edge of a BFS tree from coset 0.

    Every loop word fixes the base coset.  If the graph is disconnected the
    flag is set and the loop basis only covers the base component.
    """
    table = m.table
    edges = tuple(
        (c, table.apply(label, c), label)
        for c, label in m.incidences()
    )
    # BFS spanning tree from the base over the undirected graph
    word_to = {0: ()}
    frontier = [0]
    adjacency = {}
    for v, w, label in edges:
        adjacency.setdefault(v, []).append((w, label, False))
        adjacency.setdefault(w, []).append((v, label, True))
    tree_edges = set()
    while frontier:
        nxt = []
        for v in frontier:
            for w, label, reverse in sorted(adjacency.get(v, ()), key=lambda e: (e[0], e[1], e[2])):
                if w in word_to:
                    continue
                word_to[w] = free_reduce(word_to[v] + (invert(label) if reverse else label))
                tree_edges.add((min(v, w), max(v, w), label))
                nxt.append(w)
        frontier = nxt
    loops = []
    used_tree = set()
    for v, w, label in edges:
        if v not in word_to:
            continue
        key = (min(v, w), max(v, w), label)
        if key in tree_edges and key not in used_tree:
            used_tree.add(key)
            continue
        loops.append(free_reduce(word_to[v] + label + invert(word_to[w])))
    for loop in loops:
        assert table.fixes_base(loop), "loop word left the subgroup"
    return loops, len(word_to) < m.index


class LGraphingCertificate(namedtuple("LGraphingCertificate", "verdict reason")):
    """Verdict of ``is_l_graphing``, decided in order by connectivity, the
    mod-p ``loop_screen`` and coset enumeration: True, False, or None when
    the screen passed and the enumeration tripped its cap."""

    __slots__ = ()


def loop_screen(table, loops):
    """None, or why the loops cannot generate the subgroup H of the table.

    If they generate H, their rows and the Fox rows span the cycle lattice
    of the cover graph over Z.  ``subgroup_abelianized_matrix`` reads each
    cycle off the cotree edges, which maps that lattice onto all of its
    columns, index * rank - index + 1 of them, so the rows span the column
    space over every F_p too.  Their rank over F_p is the column count less
    the b_{1,p} of ``report_from_matrix``, so b_{1,p} > 0 for some p in
    ``DEFAULT_PRIMES`` refutes them; passing proves nothing.
    """
    rows, cycles = subgroup_abelianized_matrix(table, loops)
    b1p = report_from_matrix(rows, cycles, DEFAULT_PRIMES).b1p
    for p in DEFAULT_PRIMES:
        if b1p[p]:
            return (
                f"loop and relator classes have rank {cycles - b1p[p]} over F_{p}, "
                f"the cycle space has rank {cycles}"
            )
    return None


def is_l_graphing(m: Graphing, coset_cap=DEFAULT_COSET_CAP) -> LGraphingCertificate:
    """True iff the labeled graph is connected and its loop basis generates
    the level subgroup.

    Checks run in order: a disconnected graph is False; loops that fail
    ``loop_screen`` are False; otherwise the loop subgroup is enumerated
    over the level table's presentation within ``coset_cap`` live cosets,
    and the verdict is True iff its index equals the level's.  None means
    the screen passed and the enumeration tripped the cap.
    """
    loops, disconnected = to_labeled_graph(m)
    if disconnected:
        return LGraphingCertificate(False, "labeled graph is disconnected")
    reason = loop_screen(m.table, loops)
    if reason is not None:
        return LGraphingCertificate(False, reason)
    spec = SubgroupSpec(generators=tuple(loops), name="loops")
    try:
        loop_table = enumerate_cosets(m.table.pres, spec, cap=coset_cap)
    except IndexBoundExceeded as exc:
        return LGraphingCertificate(None, str(exc))
    if loop_table.index == m.index:
        return LGraphingCertificate(True, "connected with full loop image")
    return LGraphingCertificate(
        False, f"loop image has index {loop_table.index}, expected {m.index}"
    )


def rank_bound(m: Graphing, coset_cap=DEFAULT_COSET_CAP) -> int:
    """e(m) * index - index + 1; only meaningful (and only allowed) when m
    is a verified L-graphing of its level.  Raises IndexBoundExceeded when
    ``coset_cap`` leaves the verification indeterminate."""
    cert = is_l_graphing(m, coset_cap)
    if cert.verdict is None:
        raise IndexBoundExceeded(coset_cap)
    if cert.verdict is not True:
        raise ValueError(f"not a verified L-graphing: {cert.reason}")
    total = edge_measure(m) * m.index
    assert total.denominator == 1
    return int(total) - m.index + 1


def minimize_graphing(chain, level: int, gens=None, coset_cap=DEFAULT_COSET_CAP):
    """Greedy edge-measure minimization over L-graphings at a level.

    Builds the generating-set graphing, then makes one pass over its
    distinct generator labels in sorted order, dropping a label whenever
    the rest still give an L-graphing.  The pass stops once the label
    count, which is the rank bound, meets the homology floor
    ``rank_lower``: no L-graphing goes below d(H).  Dropping a transversal
    word would disconnect its coset, and a label refused once stays refused
    (fewer labels generate less), so no label is tried twice.  A drop whose
    loop-image check trips ``coset_cap`` is not made.  Without ``gens`` the
    seed uses the level's plain spec words, or else the Schreier generators
    of its table.
    """
    table = chain.levels[level]
    if gens is None:
        spec = table.spec
        plain = spec is not None and not spec.normal
        gens = spec.generators if plain else schreier_generators(table)
    current = graphing_from_generators(chain, level, gens)
    kept = sorted({free_reduce(g) for g in gens})
    floor = subgroup_homology(table).rank_lower
    for label in list(kept):
        if len(kept) <= floor:
            break
        rest = [g for g in kept if g != label]
        candidate = graphing_from_generators(chain, level, rest)
        if is_l_graphing(candidate, coset_cap).verdict is True:
            current, kept = candidate, rest
    return current, rank_bound(current, coset_cap)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def graphing_to_json_obj(m: Graphing, pres):
    return [
        {"label": pres.word_str(label), "cosets": sorted(cosets)}
        for label, cosets in sorted(m.fibers.items())
    ]
