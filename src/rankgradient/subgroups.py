"""Subgroup analysis: homology from the Fox matrix of the finite cover,
Reidemeister-Schreier rewriting and Tietze simplification for rank upper
bounds, and Stallings folding as the exact-rank oracle inside free groups.
The Schreier generators themselves live in ``cosets`` and are re-exported
here.

Exact rank is uncomputable in general, so everything rank-shaped is reported
as a [lower, upper] interval; the interval is degenerate exactly when the
homology lower bound meets the presentation upper bound (always the case for
free ambient groups).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .cosets import CosetTable, cotree_pairs, schreier_generators
from .errors import RelatorLengthExceeded
from .homology import DEFAULT_PRIMES, report_from_matrix
from .words import (
    Presentation,
    SubgroupSpec,
    cyclic_reduce,
    free_reduce,
    invert,
)

DEFAULT_RELATOR_CAP = 10_000  # letters in a rewritten or substituted relator
TIETZE_PASSES = 200  # eliminations and substitutions per simplification
SHORTEN_LIMIT = 200  # letters in a relator whose pieces are substituted


def _relator_edges(table: CosetTable, c: int, relator):
    """The (coset d, generator g, sign) of each edge d -g-> d.g that the loop
    of a relator at coset c crosses, in order: sign +1 forwards, -1
    backwards."""
    d = c
    for letter in relator:
        if letter > 0:
            yield d, letter, 1
            d = table.perms[letter - 1][d]
        else:
            d = table.letter_perm(letter)[d]
            yield d, -letter, -1
    assert d == c, "relator trace did not close"


def edge_row(table: CosetTable, c: int, word):
    """The loop of a word at coset c as a 1-cycle of the cover graph: sparse
    (column, value) pairs, column d * rank + g - 1 holding the signed count
    of crossings of the edge d -g-> d.g."""
    rank = table.pres.rank
    counts = {}
    for d, g, sign in _relator_edges(table, c, word):
        col = d * rank + g - 1
        counts[col] = counts.get(col, 0) + sign
    return sorted((j, v) for j, v in counts.items() if v)


def rewrite_presentation(table: CosetTable) -> Presentation:
    """Reidemeister-Schreier presentation of the subgroup of the table.

    Generators are the nontrivial Schreier generators; there is one rewritten
    relator per (coset, ambient relator) pair before reduction, each of at
    most ``DEFAULT_RELATOR_CAP`` letters.
    """
    schreier_index = {pair: i for i, pair in enumerate(cotree_pairs(table))}
    relators = []
    for c in range(table.index):
        for relator in table.pres.relators:
            w = []
            for d, g, sign in _relator_edges(table, c, relator):
                idx = schreier_index.get((d, g))
                if idx is not None:
                    w.append(sign * (idx + 1))
            w = cyclic_reduce(w)
            if len(w) > DEFAULT_RELATOR_CAP:
                raise RelatorLengthExceeded(DEFAULT_RELATOR_CAP, len(w), context=f"coset {c}")
            relators.append(w)
    names = tuple(f"x{i}" for i in range(len(schreier_index)))
    return Presentation(generators=names, relators=tuple(relators))


def subgroup_abelianized_matrix(table: CosetTable):
    """Fox matrix of the subgroup H of a coset table: the boundary map
    C2 -> C1 of the index-sheeted cover of the presentation complex.

    Returns (rows, index * rank); row (c, R) is the ``edge_row`` of relator R
    at coset c.  The cokernel is H1(H) + Z^(index - 1); no Schreier
    transversal is needed.
    """
    rows = [
        edge_row(table, c, relator)
        for c in range(table.index)
        for relator in table.pres.relators
    ]
    return rows, table.index * table.pres.rank


def subgroup_homology(table: CosetTable, primes=DEFAULT_PRIMES):
    """HomologyReport of the subgroup of a coset table."""
    matrix, cols = subgroup_abelianized_matrix(table)
    # Cycles of the connected cover graph: cols - (index - 1) generators.
    return report_from_matrix(matrix, cols - table.index + 1, primes)


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------


def _least_rotation(w):
    """Lexicographically least rotation of w in O(len(w)) comparisons:
    Booth's failure-function scan over w + w (Booth, IPL 1980)."""
    s = w + w
    fail = [-1] * len(s)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # so i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return w[k:] + w[:k]


def _canonical_relator_key(w):
    """Least rotation of w or of its inverse: equal exactly for relators
    that are cyclic permutations of each other or of each other's inverse."""
    return min(_least_rotation(w), _least_rotation(invert(w)))


# Relators are searched as strings with one code point per letter:
# chr(letter + offset) for offset = generator count, so a presentation may
# have at most sys.maxunicode // 2 generators (checked in tietze_simplify).
MAX_ENCODED_RANK = sys.maxunicode // 2


def _encode(word, offset):
    return "".join([chr(letter + offset) for letter in word])


def _shorten_by(ri, relators, codes, offset):
    """First substitution that shortens another relator by a piece of
    relators[ri], as (rj, shortened relator), or None.

    A piece is a prefix longer than half of a rotation of relators[ri] or
    of its inverse; it is replaced by the inverse of the rest of that
    rotation, which is shorter, so the first match is taken.  Search order:
    piece length descending, rotations of the relator then of its inverse,
    then rj, then position in relators[rj].  ``codes`` holds
    ``_encode(s, offset)`` for each relator s.
    """
    r = relators[ri]
    n = len(r)
    doubled = [(base + base, _encode(base + base, offset)) for base in (r, invert(r))]
    for length in range(n - 1, n // 2, -1):
        for word, code in doubled:
            for i in range(n):
                piece = code[i : i + length]
                for rj, s in enumerate(relators):
                    if rj == ri:
                        continue
                    k = codes[rj].find(piece)
                    if k != -1:
                        complement = invert(word[i + length : i + n])
                        return rj, cyclic_reduce(s[:k] + complement + s[k + length :])
    return None


def _substitute(word, target, replacement):
    """Replace letter ``target`` by ``replacement`` (and inverses) in word."""
    out = []
    inv_rep = invert(replacement)
    for letter in word:
        if letter == target:
            out.extend(replacement)
        elif letter == -target:
            out.extend(inv_rep)
        else:
            out.append(letter)
    return free_reduce(out)


def _renumber(words, removed_letter):
    def remap(letter):
        g = abs(letter)
        shifted = g - 1 if g > removed_letter else g
        return shifted if letter > 0 else -shifted

    return [tuple(remap(x) for x in w) for w in words]


def _clean(relators):
    """Nontrivial cyclically reduced relators sorted by (length, word), one
    per canonical key.  Idempotent: a clean list comes back unchanged."""
    seen = set()
    out = []
    for r in sorted((cyclic_reduce(r) for r in relators), key=lambda w: (len(w), w)):
        if not r:
            continue
        key = _canonical_relator_key(r)
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out


def _eliminate_once(relators, names):
    """Find a relator containing some generator exactly once (as g or g^-1)
    and solve for it, in deterministic scan order; relators and names are
    updated in place.  False, with nothing changed, when every elimination
    is blocked or would grow a relator past DEFAULT_RELATOR_CAP."""
    for ri, r in enumerate(relators):
        counts = {}
        for letter in r:
            counts[abs(letter)] = counts.get(abs(letter), 0) + 1
        for g in sorted(counts):
            if counts[g] != 1:
                continue
            pos = next(i for i, letter in enumerate(r) if abs(letter) == g)
            if r[pos] < 0:
                r = invert(r)
                pos = len(r) - 1 - pos
            u, v = r[:pos], r[pos + 1 :]
            replacement = free_reduce(invert(u) + invert(v))
            new_relators = []
            ok = True
            for rj, s in enumerate(relators):
                if rj == ri:
                    continue
                s2 = _substitute(s, g, replacement)
                if len(s2) > DEFAULT_RELATOR_CAP:
                    ok = False
                    break
                new_relators.append(s2)
            if not ok:
                continue
            del names[g - 1]
            relators[:] = _renumber(new_relators, g)
            return True
    return False


def _shorten_once(relators, offset):
    """Shorten one relator, in place, by a long piece (_shorten_by) of
    another of at most SHORTEN_LIMIT letters; False, with nothing changed,
    when there is none."""
    codes = [_encode(s, offset) for s in relators]
    for ri, r in enumerate(relators):
        if len(r) < 2 or len(r) > SHORTEN_LIMIT:
            continue
        found = _shorten_by(ri, relators, codes, offset)
        if found is not None:
            rj, s2 = found
            relators[rj] = s2
            return True
    return False


def tietze_simplify(pres: Presentation, effort: int = 2) -> Presentation:
    """Best-effort presentation simplification.

    Effort levels: 0 deletes trivial/duplicate relators; 1 adds elimination
    of generators occurring exactly once in some relator; 2 adds greedy
    length-reducing substitutions between relators; at most
    ``TIETZE_PASSES`` such steps are made.  The generator count never
    increases and the group is unchanged up to isomorphism.

    The substitution pass runs one C string search per piece of a relator
    (quadratically many in its length) against every other relator, so it
    takes pieces only from relators of at most ``SHORTEN_LIMIT`` letters.
    Duplicate relators are found by a canonical key linear in their length;
    they are dropped once up front and again after each elimination or
    substitution, the only steps that change the relators.
    """
    names = list(pres.generators)
    offset = len(names)
    if effort >= 2 and offset > MAX_ENCODED_RANK:
        raise ValueError(
            f"Tietze effort 2 handles at most {MAX_ENCODED_RANK} generators, "
            f"not {offset}; use effort 1"
        )
    relators = _clean(pres.relators)
    for _ in range(TIETZE_PASSES):
        if (effort >= 1 and _eliminate_once(relators, names)) or (
            effort >= 2 and _shorten_once(relators, offset)
        ):
            relators = _clean(relators)
        else:
            break
    return Presentation(generators=tuple(names), relators=tuple(relators))


# ---------------------------------------------------------------------------
# Rank bounds
# ---------------------------------------------------------------------------


def rank_bounds(table: CosetTable, report, effort: int = 2):
    """Rank interval [lower, upper] for the subgroup of the table, given
    its homology report.

    lower: best homology bound (beta1 and b_{1,p}); upper: generator count
    after Tietze simplification at ``effort`` of the rewritten presentation.
    When Tietze removes no generator -- a free ambient group, or effort 0,
    which only drops relators -- that count is the Schreier count
    1 + index * (rank - 1), taken without rewriting.
    """
    lower = max([report.beta1] + list(report.b1p.values()))
    if effort == 0 or not table.pres.relators:
        upper = 1 + table.index * (table.pres.rank - 1)
    else:
        upper = tietze_simplify(rewrite_presentation(table), effort=effort).rank
    if lower > upper:
        raise AssertionError(f"rank bounds crossed: {lower} > {upper}")
    return lower, upper


# ---------------------------------------------------------------------------
# Stallings folding
# ---------------------------------------------------------------------------


@dataclass
class FoldedGraph:
    """Fully folded labeled graph of a finitely generated free subgroup."""

    rank: int  # ambient free rank
    adjacency: dict  # vertex -> {letter: vertex}, letters are signed
    base: int

    @property
    def num_vertices(self):
        return len(self.adjacency)

    @property
    def num_edges(self):
        return sum(1 for nbrs in self.adjacency.values() for letter in nbrs if letter > 0)

    @property
    def cycle_rank(self):
        return self.num_edges - self.num_vertices + 1

    def is_complete_cover(self):
        return all(len(nbrs) == 2 * self.rank for nbrs in self.adjacency.values())


def fold_subgroup_graph(rank: int, spec: SubgroupSpec) -> FoldedGraph:
    """Fold the wedge of generator paths of a free-group subgroup."""
    if spec.normal:
        raise ValueError("folding applies to plain subgroups, not normal closures")
    parent = {0: 0}
    adj = {0: {}}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pending = []

    def union(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if len(adj[a]) < len(adj[b]):
            a, b = b, a
        parent[b] = a
        edges = adj.pop(b)
        for letter, tgt in edges.items():
            _connect(a, letter, tgt)

    def _connect(u, letter, v):
        u = find(u)
        existing = adj[u].get(letter)
        if existing is None:
            adj[u][letter] = v
        elif find(existing) != find(v):
            pending.append((existing, v))

    def add_edge(u, letter, v):
        _connect(u, letter, v)
        _connect(v, -letter, u)
        while pending:
            union(*pending.pop())

    fresh = 1
    for word in spec.generators:
        here = 0
        for letter in free_reduce(word):
            parent[fresh] = fresh
            adj[fresh] = {}
            add_edge(here, letter, fresh)
            here = find(fresh)
            fresh += 1
        # close the loop at the base
        here = find(here)
        base = find(0)
        if here != base:
            union(here, base)
            while pending:
                union(*pending.pop())

    # Compress all edge targets to representatives.
    graph = {}
    for v in list(adj):
        rv = find(v)
        if rv != v:
            continue
        graph[v] = {letter: find(t) for letter, t in adj[v].items()}
    return FoldedGraph(rank=rank, adjacency=graph, base=find(0))


def stallings_fold(rank: int, spec: SubgroupSpec):
    """(subgroup rank, index) of a f.g. subgroup of a free group.

    index is the vertex count of the folded graph when it is a complete
    cover, or None when the index is infinite.
    """
    graph = fold_subgroup_graph(rank, spec)
    index = graph.num_vertices if graph.is_complete_cover() else None
    return graph.cycle_rank, index
