"""First Betti numbers of presented groups, as exact ranks of relation
matrices over Q and F_p.

Everything here runs on arbitrary-precision Python ints and Fractions;
there is no floating point or fixed-width path anywhere.  Relation
matrices are lists of sparse rows: (column, value) pairs sorted by column,
no zero values.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction

from .words import Presentation


DEFAULT_PRIMES = (2, 3, 5)


class HomologyReport(namedtuple("HomologyReport", "beta1 b1p")):
    """First Betti numbers of a presented group: ``beta1`` over Q, and
    ``b1p[p]``, the dimension of H_1 with F_p coefficients, for each prime
    asked for.  Both are the generator count less the relation matrix's
    rank over that field.
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
    The Betti numbers do not go through it: ``report_from_matrix`` takes
    ranks, and this stays as the reference the tests check them against.
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


def _unit_reduce(matrix):
    """Peel unit pivots off a sparse integer matrix.

    Pivoting on a +-1 entry is a unimodular change of basis contributing a
    diagonal 1, so SNF(input) = identity block of size ``units`` plus
    SNF(remainder), and over every field the rank is ``units`` plus the
    remainder's.  Fox matrices of finite covers, on their cotree columns,
    are huge but have a handful of +-1 entries per row, so this collapses
    them to a core the dense ranks can afford.

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


def _rank(rows, p=None):
    """Rank of a dense integer matrix over F_p (p prime), or over Q when p
    is None.

    Echelon form built one row at a time: a row is reduced against the
    monic pivot rows found so far, keyed by their last column, until it is
    zero or ends in a new column and becomes a pivot itself.  Over F_p the
    entries are reduced mod p.  Over Q they are Fractions in lowest terms,
    and every entry of Gaussian elimination is a ratio of two minors of the
    input (Edmonds), so none grows past them; cross-multiplied integer rows
    have no such bound.
    """
    norm = Fraction if p is None else (lambda v: v % p)
    pivots = {}
    for row in rows:
        live = {j: x for j, v in enumerate(row) if (x := norm(v))}
        while live:
            lead = max(live)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / live[lead] if p is None else pow(live[lead], -1, p)
                pivots[lead] = {j: norm(v * inv) for j, v in live.items()}
                break
            factor = live[lead]
            for j, v in pivot.items():
                new = norm(live.get(j, 0) - factor * v)
                if new:
                    live[j] = new
                else:
                    del live[j]
    return len(pivots)


def _block_ranks(core, primes):
    """(rank over Q, {p: rank over F_p}) of {column: value} dict rows.

    The rows split into connected row/column blocks, and a block-diagonal
    matrix has the sum of its blocks' ranks.  Each distinct block, densified
    on its columns in order, is ranked once over Q and once over each F_p;
    equal blocks reuse those ranks.
    """
    # union-find over the rows; a column joins every row to its first row
    parent = list(range(len(core)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first = {}
    for i, row in enumerate(core):
        for j in row:
            a, b = find(i), find(first.setdefault(j, i))
            if a != b:
                parent[a] = b
    blocks = {}
    for i, row in enumerate(core):
        blocks.setdefault(find(i), []).append(row)
    ranks = dict.fromkeys((None, *primes), 0)  # None stands for Q
    memo = {}  # dense block -> {field: its rank}
    for block in blocks.values():
        live = sorted({j for row in block for j in row})
        sub = tuple(tuple(row.get(j, 0) for j in live) for row in block)
        if sub not in memo:
            memo[sub] = {p: _rank(sub, p) for p in ranks}
        for p, r in memo[sub].items():
            ranks[p] += r
    return ranks.pop(None), ranks


def report_from_matrix(matrix, num_generators, primes=DEFAULT_PRIMES):
    """HomologyReport for an abelian group presented by the given relation
    matrix: the unit peel's pivots are independent over every field, so
    each Betti number is what is left free of them less the core's rank."""
    if not primes:
        raise ValueError("primes must be nonempty")
    units, core = _unit_reduce(matrix)
    free = num_generators - units
    rank, ranks = _block_ranks(core, primes)
    return HomologyReport(beta1=free - rank, b1p={p: free - ranks[p] for p in primes})


def homology_report(pres: Presentation, primes=DEFAULT_PRIMES) -> HomologyReport:
    """beta1 and b_{1,p} of the abelianization of a presented group."""
    return report_from_matrix(abelianized_matrix(pres.relators), pres.rank, primes)
