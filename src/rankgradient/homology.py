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
            j = abs(letter) - 1
            sums[j] = sums.get(j, 0) + (1 if letter > 0 else -1)
        rows.append(sorted((j, v) for j, v in sums.items() if v))
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

    Duplicate rows are dropped first: they span the same lattice, and a
    relator u^m gives the same Fox row at coset c and at c.u.  Pivots are
    picked by Markowitz cost from a lazily revalidated heap: an entry is
    pushed when it becomes +-1, and a popped entry whose cost has grown
    since is pushed back at its current cost, so each +-1 entry of the
    remainder has a heap entry until the heap runs dry.

    Returns (units, remainder), the remainder as {column: value} dict rows.
    """
    rows = {}
    seen = set()
    for row in matrix:
        row = tuple(row)
        if row and row not in seen:
            seen.add(row)
            rows[len(rows)] = dict(row)
    del seen
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


def _snf_by_components(rows):
    """(nonzero SNF diagonal as a divisibility chain, rank) of {column: value}
    dict rows, split into connected row/column blocks that are densified one
    at a time.  Block-diagonal up to permutation means the SNF is the union
    of the blocks' invariant factors.

    The merged multiset is renormalized into a chain by gcd/lcm swaps, which
    never needs to factor anything.  The 1s divide everything and are set
    aside; on the rest one pass suffices: after step i, entries[i] divides
    every later entry, and a later swap replaces two multiples of entries[i]
    by their gcd and lcm, which are multiples of it too."""
    if not rows:
        return [], 0
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(rows):
        parent.setdefault(("r", i), ("r", i))
        for j in row:
            parent.setdefault(("c", j), ("c", j))
            a, b = find(("r", i)), find(("c", j))
            if a != b:
                parent[a] = b
    blocks = {}
    for i, row in enumerate(rows):
        blocks.setdefault(find(("r", i)), []).append(row)
    entries = []
    rank = 0
    for block in blocks.values():
        live = sorted({j for row in block for j in row})
        sub = [[row.get(j, 0) for j in live] for row in block]
        diag, r = smith_normal_form(sub) if live else ([], 0)
        entries.extend(d for d in diag if d)
        rank += r
    ones = [d for d in entries if d == 1]
    entries = sorted(d for d in entries if d != 1)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[j] % entries[i]:
                g = math.gcd(entries[i], entries[j])
                entries[i], entries[j] = g, entries[i] * entries[j] // g
    return ones + entries, rank


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
