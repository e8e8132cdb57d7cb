"""Abelianization invariants via exact integer Smith normal form.

Everything here runs on arbitrary-precision Python ints; there is no
floating point or fixed-width path anywhere.  Relation matrices are lists
of sparse rows: (column, value) pairs sorted by column, no zero values.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple

from .words import Presentation


DEFAULT_PRIMES = (2, 3, 5)


class HomologyReport(namedtuple("HomologyReport", "beta1 torsion b1p")):
    """First-homology data of a presented group.

    ``torsion`` is the divisibility chain d1 | d2 | ... of entries > 1;
    ``b1p[p]`` is the mod-p first Betti number beta1 + #{i : p | d_i}.
    """

    __slots__ = ()

    @property
    def rank_lower(self):
        """The homology floor max(beta1, b_{1,p}) under the group's rank."""
        return max([self.beta1, *self.b1p.values()])


def abelianized_matrix(relators):
    """Relation matrix of relator words: row i holds (j, exponent sum of
    generator j + 1 in relator i)."""
    rows = []
    for relator in relators:
        sums = {}
        for letter in relator:
            if letter > 0:
                sums[letter - 1] = sums.get(letter - 1, 0) + 1
            else:
                sums[-letter - 1] = sums.get(-letter - 1, 0) - 1
        rows.append(sorted([(j, v) for j, v in sums.items() if v]))
    return rows


def smith_normal_form(matrix):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diagonal, rank) where the diagonal has min(m, n) nonnegative
    entries satisfying d1 | d2 | ... and rank is the number of nonzero
    entries.  Pivoting picks the minimal absolute value with a lowest-row,
    then lowest-column tie-break, which keeps intermediate entries tame.
    """
    a = [list(row) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    size = min(m, n)
    diag = []
    k = 0
    while k < size:
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                v = abs(a[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        a[k], a[pi] = a[pi], a[k]
        for row in a:
            row[k], row[pj] = row[pj], row[k]

        # Clear row and column k; a failed division re-enters the loop with
        # a smaller pivot, so this terminates.
        dirty = True
        while dirty:
            dirty = False
            for i in range(k + 1, m):
                if a[i][k]:
                    q = a[i][k] // a[k][k]
                    for j in range(k, n):
                        a[i][j] -= q * a[k][j]
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        dirty = True
            for j in range(k + 1, n):
                if a[k][j]:
                    q = a[k][j] // a[k][k]
                    for row in a:
                        row[j] -= q * row[k]
                    if a[k][j]:
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        dirty = True
        # Divisibility fix-up: fold any non-multiple into row k and redo.
        d = a[k][k]
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(k, n):
                a[k][j] += a[offender][j]
            continue
        diag.append(abs(d))
        k += 1
    diag.extend([0] * (size - len(diag)))
    rank = sum(1 for d in diag if d)
    for i in range(rank - 1):
        assert diag[i + 1] % diag[i] == 0, "divisibility chain violated"
    return diag, rank


def mod_p_rank(matrix, p):
    """Rank over F_p (p prime) of sparse integer rows.

    Echelon form built one row at a time: a row is reduced against the
    monic pivot rows found so far, keyed by their last column, until it is
    zero or ends in a new column and becomes a pivot itself.  Cover-graph
    rows number their cotree edges from the base coset outwards, so a last
    column is an edge few rows share and fill-in stays low.
    """
    pivots = {}
    for row in matrix:
        live = {j: v % p for j, v in row if v % p}
        while live:
            lead = max(live)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(live[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in live.items()}
                break
            factor = live[lead]
            for j, v in pivot.items():
                new = (live.get(j, 0) - factor * v) % p
                if new:
                    live[j] = new
                else:
                    del live[j]
    return len(pivots)


def _unit_reduce(matrix):
    """Peel unit pivots off a sparse integer matrix.

    Pivoting on a +-1 entry is a unimodular change of basis contributing a
    diagonal 1, so SNF(input) = identity block of size ``units`` plus
    SNF(remainder).  Fox matrices of finite covers, on their cotree
    columns, are huge but have a handful of +-1 entries per row, so this
    collapses them to a core the dense routine can afford.

    Pivots are picked by Markowitz cost from a lazily revalidated heap:
    an entry is pushed when it becomes +-1, and a popped entry whose cost
    has grown since is pushed back at its current cost, so each +-1 entry
    of the remainder has a heap entry until the heap runs dry.  Duplicate
    rows are not looked for: ``_schreier_words`` walks a proper-power
    relator once per orbit of its root, so a cover's Fox matrix has none
    from it, and a duplicate costs no more than any other row.

    Returns (units, remainder), the remainder as {column: value} dict rows.
    """
    rows = {i: dict(row) for i, row in enumerate(matrix) if row}
    cols = {}
    for i, entries in rows.items():
        for j in entries:
            cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    heap = [
        (cost(i, j), i, j)
        for i, entries in rows.items()
        for j, v in entries.items()
        if v in (1, -1)
    ]
    heapq.heapify(heap)
    units = 0
    while heap:
        c, i, j = heapq.heappop(heap)
        value = rows.get(i, {}).get(j)
        if value not in (1, -1):
            continue
        real = cost(i, j)
        if real > c:
            heapq.heappush(heap, (real, i, j))
            continue
        pivot_row = rows.pop(i)
        for j2 in pivot_row:
            cols[j2].discard(i)
        for r in list(cols.pop(j, ())):
            row = rows[r]
            factor = row.pop(j) * value  # = entry / value since value is a unit
            for j2, v in pivot_row.items():
                if j2 == j:
                    continue
                old = row.get(j2, 0)
                new = old - factor * v
                if new:
                    row[j2] = new
                    cols[j2].add(r)
                    if new in (1, -1) and old not in (1, -1):
                        heapq.heappush(heap, (cost(r, j2), r, j2))
                else:
                    del row[j2]
                    cols[j2].discard(r)
            if not row:
                del rows[r]
        units += 1
    return units, [rows[i] for i in sorted(rows)]


def _coprime_base(values):
    """Pairwise coprime integers > 1 of which every value is a product of
    powers, by gcd splitting (factor refinement): a pair x, b sharing
    g > 1 is replaced by x / g, b / g and g, which lowers their product,
    so this ends.  No integer is factored."""
    base = []
    todo = list(values)
    while todo:
        x = todo.pop()
        if x == 1 or x in base:
            continue
        for k, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[k]
                todo += (b // g, x // g, g)
                break
        else:
            base.append(x)
    return base


def _invariant_factors(counts):
    """The divisibility chain, ascending, of the direct sum of Z/d taken
    count times for each d > 1 in ``counts`` ({d: count}), with 1s padding
    it to the number of summands.

    Over a coprime base of the values the sum splits by the Chinese
    remainder theorem into parts Z/b^k, so the i-th largest invariant
    factor is the product over base elements b of b to its i-th largest
    exponent.  Work grows with the number of summands times the size of
    the base, never with the square of the number of summands."""
    chain = [1] * sum(counts.values())  # largest factor first
    for b in _coprime_base(counts):
        exponents = []
        for d, n in counts.items():
            k = 0
            while d % b == 0:
                d //= b
                k += 1
            exponents += [k] * n
        exponents.sort(reverse=True)
        for i, k in enumerate(exponents):
            if not k:
                break
            chain[i] *= b**k
    return chain[::-1]


def _snf_by_components(rows):
    """(nonzero SNF diagonal as a divisibility chain, rank) of {column: value}
    dict rows, split into connected row/column blocks.  Block-diagonal up
    to permutation means the SNF is the union of the blocks' invariant
    factors, renormalized into a chain by ``_invariant_factors``.  Each
    distinct block, densified on its columns in order, goes through
    ``smith_normal_form`` once; equal blocks reuse its result."""
    if not rows:
        return [], 0
    # union-find over the rows; a column joins every row to its first row
    parent = list(range(len(rows)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first = {}
    for i, row in enumerate(rows):
        for j in row:
            a, b = find(i), find(first.setdefault(j, i))
            if a != b:
                parent[a] = b
    blocks = {}
    for i, row in enumerate(rows):
        blocks.setdefault(find(i), []).append(row)
    snf = {}  # dense block -> (diagonal, rank)
    counts = {}
    rank = 0
    for block in blocks.values():
        live = sorted({j for row in block for j in row})
        if not live:
            continue
        sub = tuple(tuple(row.get(j, 0) for j in live) for row in block)
        if sub not in snf:
            snf[sub] = smith_normal_form(sub)
        diag, r = snf[sub]
        for d in diag[:r]:
            counts[d] = counts.get(d, 0) + 1
        rank += r
    ones = counts.pop(1, 0)
    return [1] * ones + _invariant_factors(counts), rank


def report_from_matrix(matrix, num_generators, primes=DEFAULT_PRIMES):
    """HomologyReport for an abelian group presented by the given relation matrix."""
    if not primes:
        raise ValueError("primes must be nonempty")
    units, core = _unit_reduce(matrix)
    diag, rank = _snf_by_components(core)
    rank += units
    beta1 = num_generators - rank
    torsion = tuple(d for d in diag if d > 1)
    b1p = {p: beta1 + sum(1 for d in torsion if d % p == 0) for p in primes}
    return HomologyReport(beta1=beta1, torsion=torsion, b1p=b1p)


def homology_report(pres: Presentation, primes=DEFAULT_PRIMES) -> HomologyReport:
    """beta1, torsion and b_{1,p} of the abelianization of a presented group."""
    return report_from_matrix(abelianized_matrix(pres.relators), pres.rank, primes)
