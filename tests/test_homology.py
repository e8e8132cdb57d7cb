import random
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rankgradient import homology
from rankgradient.cosets import enumerate_cosets
from rankgradient.homology import (
    _block_ranks,
    _rank,
    _unit_reduce,
    abelianized_matrix,
    homology_report,
    report_from_matrix,
    smith_normal_form,
)
from rankgradient.subgroups import subgroup_abelianized_matrix, subgroup_homology
from rankgradient.towers import build_tower, cover_table
from rankgradient.words import parse_presentation


def sparse(dense):
    """A dense integer matrix as sparse rows of (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in dense]


def det(matrix):
    """Integer determinant by cofactor expansion (tiny matrices only)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, top in enumerate(matrix[0]):
        if top == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * top * det(minor)
    return total


def minor_gcd_diagonal(matrix):
    """SNF diagonal via determinantal divisors: s_k = d_k / d_{k-1}."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    size = min(m, n)
    divisors = [1]
    for k in range(1, size + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, det(sub))
        divisors.append(g)
        if g == 0:
            break
    diag = []
    for k in range(1, size + 1):
        if k >= len(divisors) or divisors[k] == 0:
            diag.append(0)
        else:
            diag.append(divisors[k] // divisors[k - 1])
    return diag


def mod_p_rank_oracle(matrix, p):
    """Row reduction over F_p, written independently of the library version."""
    rows = [[x % p for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows if r[col] % p), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = pow(pivot[col], p - 2, p)
        pivot = [(x * inv) % p for x in pivot]
        rows = [
            [(x - r[col] * y) % p for x, y in zip(r, pivot)] for r in rows
        ]
        rank += 1
    return rank


def oracle_betti(matrix, n, primes=(2, 3, 5)):
    """(beta1, b1p) of the abelian group on n generators with the given
    dense relation rows, read off ``minor_gcd_diagonal``: beta1 is n less
    the rank, and b_{1,p} adds the invariant factors p divides."""
    diag = minor_gcd_diagonal(matrix)
    beta1 = n - sum(1 for d in diag if d)
    return beta1, {p: beta1 + sum(1 for d in diag if d and d % p == 0) for p in primes}


def assert_betti_match_oracle(matrix):
    n = len(matrix[0])
    report = report_from_matrix(sparse(matrix), n)
    assert (report.beta1, report.b1p) == oracle_betti(matrix, n), matrix


def random_matrix(rng, max_size=6, max_entry=9):
    m = rng.randint(1, max_size)
    n = rng.randint(1, max_size)
    return [[rng.randint(-max_entry, max_entry) for _ in range(n)] for _ in range(m)]


def test_snf_known_values():
    assert smith_normal_form([[2, 0], [0, 3]]) == ([1, 6], 2)
    assert smith_normal_form([[2, 4], [4, 8]]) == ([2, 0], 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ([0, 0], 0)
    assert smith_normal_form([[6]]) == ([6], 1)


def test_snf_matches_minor_gcd_oracle_seeded():
    rng = random.Random(12)
    for _ in range(500):
        matrix = random_matrix(rng)
        diag, rank = smith_normal_form(matrix)
        oracle = minor_gcd_diagonal(matrix)
        assert diag == oracle
        assert rank == sum(1 for d in oracle if d)


def test_mod_p_rank_matches_oracle_seeded():
    rng = random.Random(34)
    for _ in range(200):
        matrix = random_matrix(rng)
        n = len(matrix[0])
        report = report_from_matrix(sparse(matrix), n)
        for p in (2, 3, 5):
            assert report.b1p[p] == n - mod_p_rank_oracle(matrix, p)
            assert _rank(matrix, p) == mod_p_rank_oracle(matrix, p)
        assert _rank(matrix) == sum(1 for d in minor_gcd_diagonal(matrix) if d)


def test_b1p_consistent_with_mod_p_rank():
    rng = random.Random(56)
    for _ in range(200):
        assert_betti_match_oracle(random_matrix(rng))


def densify(core):
    """{column: value} rows as dense rows on their sorted columns."""
    live = sorted({j for row in core for j in row})
    return [[row.get(j, 0) for j in live] for row in core]


def test_unit_reduce_preserves_smith_form():
    rng = random.Random(78)
    for _ in range(200):
        matrix = random_matrix(rng)
        units, core = _unit_reduce(sparse(matrix))
        diag_core, rank_core = smith_normal_form(densify(core))
        full = [1] * units + list(diag_core)
        nonzero = sorted(d for d in full if d)
        expected, rank = smith_normal_form(matrix)
        assert sorted(d for d in expected if d) == nonzero
        assert units + rank_core == rank


def test_block_ranks_blocks():
    # two independent blocks: Z/2 + Z/3, with the ranks of Z/6
    matrix = [[2, 0, 0], [0, 3, 0]]
    rank, ranks = _block_ranks([dict(row) for row in sparse(matrix)], (2, 3, 5))
    assert rank == 2
    assert ranks == {2: 1, 3: 1, 5: 2}


def snf_ranks(matrix, primes=(2, 3, 5)):
    """(rank over Q, {p: rank over F_p}) of a dense matrix, read off its
    Smith normal form: F_p loses the invariant factors p divides."""
    diag, rank = smith_normal_form(matrix)
    return rank, {p: sum(1 for d in diag if d % p) for p in primes}


# Relation matrices with no +-1 entry: the unit peel leaves each whole,
# and a dense Smith normal form of the first stalls for minutes.
UNIT_FREE = [
    [[4, 30, 0, -6, 0, 0], [0, 0, 9, -6, 3, 3], [30, 30, 30, 3, -6, 2],
     [6, 2, 12, 6, 0, 30], [9, 0, 0, -6, -4, 6], [0, 30, 30, 9, 3, -6]],
    [[12, 2, 0, 2, 30, 6], [12, 0, 4, 30, 6, 12], [9, 6, 2, -4, 9, -4],
     [9, 4, -6, -4, 2, 0], [30, 0, 9, 9, 12, 12], [9, 30, 0, 4, 6, -6]],
    [[30, 30, 2, 12, -6, 12], [6, -6, 9, 4, 12, 0], [4, 12, 2, 6, 30, 3],
     [2, 9, -4, 6, 9, 9], [30, 30, -6, 6, 6, 6], [3, 0, 30, 2, 4, 3]],
]


def presentation_text(matrix):
    """One relator per row, generator j raised to entry j."""
    gens = "abcdefghij"[: len(matrix[0])]
    lines = ["gens " + " ".join(gens)]
    for row in matrix:
        lines.append("rel " + " ".join(f"{g}^{v}" for g, v in zip(gens, row) if v))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("matrix", UNIT_FREE)
def test_unit_free_matrices_match_oracle(matrix):
    assert _unit_reduce(sparse(matrix))[0] == 0
    assert_betti_match_oracle(matrix)
    report = homology_report(parse_presentation(presentation_text(matrix))[0])
    assert (report.beta1, report.b1p) == oracle_betti(matrix, len(matrix[0]))


def test_unit_free_matrices_match_oracle_seeded():
    rng = random.Random(2026)
    values = (0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, 12, 30)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        assert_betti_match_oracle([[rng.choice(values) for _ in range(n)] for _ in range(m)])


def random_block_diagonal(rng):
    """A dense matrix that is block-diagonal up to a row and a column
    permutation: many +-1 blocks, repeated 2s and 3s, a few small mixed
    blocks and some zero columns."""
    blocks = [[[rng.choice((1, -1))]] for _ in range(rng.randint(5, 30))]
    blocks += [[[rng.choice((2, -2, 3, -3, 4, 6, 9))]] for _ in range(rng.randint(0, 8))]
    for _ in range(rng.randint(0, 4)):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        blocks.append([[rng.choice((0, 1, -1, 2, -2, 3, 6)) for _ in range(n)] for _ in range(m)])
    rows = sum(len(b) for b in blocks)
    cols = sum(len(b[0]) for b in blocks) + rng.randint(0, 3)
    dense = [[0] * cols for _ in range(rows)]
    r = c = 0
    for block in blocks:
        for i, row in enumerate(block):
            dense[r + i][c : c + len(row)] = row
        r, c = r + len(block), c + len(block[0])
    rng.shuffle(dense)
    order = list(range(cols))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in dense]


def test_block_ranks_match_dense_snf_on_block_matrices():
    rng = random.Random(1303)
    for _ in range(150):
        matrix = random_block_diagonal(rng)
        rows = [dict(row) for row in sparse(matrix) if row]
        expected = snf_ranks(matrix)
        assert _block_ranks(rows, (2, 3, 5)) == expected
        # duplicated rows span the same lattice: the peel drops them
        doubled = sparse(matrix) + sparse(matrix)[::2]
        rng.shuffle(doubled)
        units, core = _unit_reduce(doubled)
        # every entry that became +-1 was queued, so none is left
        assert all(v not in (1, -1) for row in core for v in row.values())
        core_rank, core_ranks = _block_ranks(core, (2, 3, 5))
        assert units + core_rank == expected[0]
        assert {p: units + r for p, r in core_ranks.items()} == expected[1]


@pytest.mark.parametrize("pool", [
    (2, 3, 4, 6, 9, 12),
    (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 25, 27, 30, 49, 210),
])
def test_block_ranks_of_diagonal_rows_seeded(pool):
    # a few distinct values, each repeated many times, with either sign:
    # each row is its own block, so the ranks are counts of its entries
    rng = random.Random(2025)
    for _ in range(300):
        values = rng.sample(pool, rng.randint(1, 5))
        entries = [rng.choice(values) for _ in range(rng.randint(0, 80))]
        rows = [{j: rng.choice((d, -d))} for j, d in enumerate(entries)]
        rank, ranks = _block_ranks(rows, (2, 3, 5, 7))
        assert rank == len(entries)
        assert ranks == {p: sum(1 for d in entries if d % p) for p in (2, 3, 5, 7)}


def dense_blocks(rows):
    """The connected blocks of {column: value} rows, found by a search over
    shared columns, each densified on its sorted columns with its rows in
    input order."""
    by_column = {}
    for i, row in enumerate(rows):
        for j in row:
            by_column.setdefault(j, []).append(i)
    seen = set()
    blocks = []
    for i in range(len(rows)):
        if i in seen:
            continue
        seen.add(i)
        members, stack = [], [i]
        while stack:
            r = stack.pop()
            members.append(r)
            for j in rows[r]:
                for r2 in by_column[j]:
                    if r2 not in seen:
                        seen.add(r2)
                        stack.append(r2)
        members.sort()
        columns = sorted({j for r in members for j in rows[r]})
        blocks.append(tuple(tuple(rows[r].get(j, 0) for j in columns) for r in members))
    return blocks


def test_one_rank_per_distinct_block_and_field(monkeypatch):
    text = resources.files("rankgradient.presets").joinpath("s3.txt").read_text()
    covers = build_tower(parse_presentation(text)[0], Fraction(3, 4), 3, scale=12, seed=0)
    rows, _ = subgroup_abelianized_matrix(cover_table(covers[-1]))
    _, core = _unit_reduce(rows)
    blocks = dense_blocks(core)
    distinct = set(blocks)
    assert len(distinct) < len(blocks)
    calls = []
    real = homology._rank
    monkeypatch.setattr(homology, "_rank", lambda m, p=None: calls.append((m, p)) or real(m, p))
    rank, ranks = _block_ranks(core, (2, 3, 5))
    fields = (None, 2, 3, 5)
    assert sorted(calls, key=repr) == sorted(
        ((block, p) for block in distinct for p in fields), key=repr
    )
    each = [snf_ranks(block) for block in blocks]
    assert rank == sum(r for r, _ in each)
    assert ranks == {p: sum(r[p] for _, r in each) for p in (2, 3, 5)}


def abelian_group(a, b, c, sub=""):
    text = (
        f"gens a b c\nrel a^{a}\nrel b^{b}\nrel c^{c}\n"
        "rel a b a^-1 b^-1\nrel a c a^-1 c^-1\nrel b c b^-1 c^-1\n"
    )
    if sub:
        text += f"sub H {sub}\n"
    pres, specs = parse_presentation(text)
    return enumerate_cosets(pres, specs[0] if specs else None)


# Every subgroup H of a finite abelian group is abelian, so H1(H) = H.
@pytest.mark.parametrize("sub,index,torsion", [
    ("", 2000, ()),
    ("a", 200, (10,)),
    ("a b, a^2 b^2", 200, (10,)),  # the single cyclic subgroup <ab>
    ("a c^4", 40, (5, 10)),
])
def test_subgroup_homology_of_abelian_groups_is_the_subgroup(sub, index, torsion):
    table = abelian_group(10, 10, 20, sub)
    assert table.index == index
    report = subgroup_homology(table)
    assert report.beta1 == 0
    assert report.b1p == {p: sum(1 for d in torsion if d % p == 0) for p in (2, 3, 5)}


entry = st.integers(min_value=-9, max_value=9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_divisibility_and_rank_properties(m, n, data):
    matrix = [
        [data.draw(entry) for _ in range(n)] for _ in range(m)
    ]
    diag, rank = smith_normal_form(matrix)
    assert len(diag) == min(m, n)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    # rank over Q sandwiched by every mod-p rank
    for p in (2, 3, 5):
        assert _rank(matrix, p) <= rank == _rank(matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_invariant_under_transpose(m, n, data):
    matrix = [[data.draw(entry) for _ in range(n)] for _ in range(m)]
    t = [list(col) for col in zip(*matrix)]
    assert smith_normal_form(matrix) == smith_normal_form(t)


def test_abelianized_matrix():
    pres, _ = parse_presentation("gens a b\nrel a^2 b^-3\nrel a b a^-1 b^-1\n")
    assert abelianized_matrix(pres.relators) == [[(0, 2), (1, -3)], []]


def test_homology_report_klein_bottle():
    # <a,b | a b a b^-1>: H1 = Z + Z/2
    pres, _ = parse_presentation("gens a b\nrel a b a b^-1\n")
    report = homology_report(pres)
    assert report.beta1 == 1
    assert report.b1p == {2: 2, 3: 1, 5: 1}


def test_homology_report_free_group():
    pres, _ = parse_presentation("gens a b c\n")
    report = homology_report(pres)
    assert report.beta1 == 3
    assert report.b1p == {2: 3, 3: 3, 5: 3}
