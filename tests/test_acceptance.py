"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line with its runtime; every check is
exact (integer or rational arithmetic) and carries an explicit time budget.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from rankgradient.chains import (
    farber_chain,
    farber_defect,
    gradient_sequence,
    hnn_chain,
    lamplighter_chain,
)
from rankgradient.cosets import low_index, schreier_generators, with_schreier_spec
from rankgradient.graphings import (
    Graphing,
    bar,
    edge_measure,
    graphing_from_generators,
    is_l_graphing,
    power,
    projected_edges,
    rank_bound,
)
from rankgradient.homology import report_from_matrix, smith_normal_form
from rankgradient.subgroups import rank_bounds, subgroup_homology
from rankgradient.towers import build_tower, tower_report
from rankgradient.words import free_reduce, parse_presentation

from test_homology import minor_gcd_diagonal, mod_p_rank_oracle, random_matrix, sparse
from test_cosets import class_counts, every_subgroup
from test_subgroups import stallings_fold


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"
    )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


def free(rank):
    return parsed("gens " + " ".join("abc"[:rank]) + "\n")[0]


FIG8 = "gens a b t\nrel t^-1 a t = b^-1\nrel t^-1 b t = b^2 a b\n"
SURFACE2 = "gens a b c d\nrel a b a^-1 b^-1 c d c^-1 d^-1\n"
F2_SEED = "gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n"


def hall_counts(rank, n_max):
    a = {1: 1}
    for n in range(2, n_max + 1):
        total = n * factorial(n) ** (rank - 1)
        for k in range(1, n):
            total -= factorial(n - k) ** (rank - 1) * a[k]
        a[n] = total
    return a


# The chains below double as the corpus for the monotonicity criterion.


@pytest.fixture(scope="module")
def corpus():
    chains = {
        "hnn fig8 depth 12": hnn_chain(parsed(FIG8)[0], "t", 12),
        "lamplighter W3 depth 2": lamplighter_chain(3, 2),
        "farber f2 depth 3": farber_chain(*parsed(F2_SEED), 3),
    }
    reports = {
        name: gradient_sequence(chain) for name, chain in chains.items()
    }
    return chains, reports


def test_criterion_1_hall_counts():
    with criterion(1, "low_index on F2 matches Hall's recursion for n <= 5", 60):
        counts = class_counts(low_index(free(2), 5))
        assert counts == {1: 1, 2: 3, 3: 13, 4: 71, 5: 461}
        assert counts == hall_counts(2, 5)


def test_criterion_2_nielsen_schreier():
    with criterion(2, "Nielsen-Schreier rank is exact on all low-index subgroups", 60):
        for rank, n_max in ((2, 4), (3, 3)):
            pres = free(rank)
            for table in every_subgroup(pres, n_max):
                expected = 1 + table.index * (rank - 1)
                folded, index = stallings_fold(rank, with_schreier_spec(table).spec)
                assert (folded, index) == (expected, table.index)
                assert rank_bounds(table, subgroup_homology(table)) == (expected, expected)


def test_criterion_3_hnn_chain():
    with criterion(3, "figure-eight HNN levels 1..12 have rank-upper <= 3", 120):
        chain = hnn_chain(parsed(FIG8)[0], "t", 12)
        report = gradient_sequence(chain)
        for n in range(1, 13):
            st = report.levels[n]
            assert st.error is None
            assert st.index == n
            assert st.rank_upper <= 3
            assert Fraction(st.rank_upper - 1, st.index) <= Fraction(2, n)


def test_criterion_4_lamplighter():
    with criterion(4, "W3 kernels pin (b_{1,2}-1)/index at 1; a has defect 1", 300):
        chain = lamplighter_chain(3, 2)
        report = gradient_sequence(chain)
        for n in (1, 2):
            st = report.levels[n]
            assert st.index == 2 ** n
            assert st.b1p[2] == 2 ** n + 1
            assert Fraction(st.b1p[2] - 1, st.index) == 1
            assert farber_defect(chain, (1,), n) == 1


def test_criterion_5_tower_formulas():
    with criterion(5, "S3 tower at mu=3/4: exact formulas and gradient ordering", 300):
        a_pres = parsed("gens a b\nrel a^3\nrel b^2\nrel a b a b\n")[0]
        covers = build_tower(a_pres, Fraction(3, 4), 3, scale=12, seed=0)
        assert len(covers) >= 4  # depth >= 3
        assert covers[-1].n <= 2000
        report = tower_report(covers)
        for cover, lc in zip(covers, report.levels):
            # n = sum of [A : S_v] over vertices = sum of orbit sizes
            assert lc.n == sum(len(o) for o in cover.orbits())
            assert lc.computed_b1p[2] == lc.predicted.b1p[2]
            assert lc.b1p_match
            assert lc.computed_beta1 == lc.n - lc.p + 1
            assert lc.beta1_formula == "n-p+1"  # not the paper's n-np+1
            assert lc.computed_beta1 != lc.n - lc.n * lc.p + 1
            triple = (
                Fraction(lc.predicted.d - 1, lc.n),
                Fraction(lc.computed_b1p[2] - 1, lc.n),
                Fraction(lc.computed_beta1 - 1, lc.n),
            )
            assert triple[0] > triple[1] > triple[2]
        deepest = report.levels[-1]
        tol = Fraction(1, deepest.p)
        assert abs(Fraction(deepest.predicted.d - 1, deepest.n) - Fraction(11, 9)) <= tol
        assert abs(Fraction(deepest.computed_b1p[2] - 1, deepest.n) - Fraction(8, 9)) <= tol
        assert abs(Fraction(deepest.computed_beta1 - 1, deepest.n) - Fraction(5, 9)) <= tol


def test_criterion_6_graphing_round_trip():
    with criterion(6, "Delta_2 generating-set graphing: e(M)=2, rank bound 5", 10):
        pres, spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")
        chain = farber_chain(pres, spec, 2)
        assert chain.levels[2].index == 4
        gens = schreier_generators(chain.levels[2])
        m = graphing_from_generators(chain, 2, gens)
        assert edge_measure(m) == Fraction(5 + 3, 4) == 2
        assert is_l_graphing(m).verdict is True
        assert rank_bound(m) == 5 == 1 + 4 * (2 - 1)
        # index-1 round trip returns the ambient rank
        gens0 = chain.levels[0].spec.generators
        m0 = graphing_from_generators(chain, 0, gens0)
        assert rank_bound(m0) == len(gens0)


def test_criterion_7_powering_identity():
    with criterion(7, "power(M,k) projects to the k-step reachability closure", 60):
        chain = farber_chain(*parsed(F2_SEED.replace("^4", "^2")), 2)
        levels = [n for n in range(len(chain.levels)) if chain.levels[n].index <= 8]
        rng = random.Random(7)
        for trial in range(100):
            level = levels[trial % len(levels)]
            table = chain.levels[level]
            fibers = {}
            for _ in range(rng.randint(1, 3)):
                label = free_reduce(
                    tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 3)))
                )
                if label:
                    fibers.setdefault(label, set()).add(rng.randrange(table.index))
            m = Graphing(table=table, level=level, fibers=fibers)
            k = rng.randint(1, 5)
            got = set(projected_edges(power(m, k)))
            want = _reach(projected_edges(bar(m)), m.index, k)
            assert got == want


def _reach(edges, num_vertices, k):
    neighbors = {v: {v} for v in range(num_vertices)}
    for v, w in edges:
        neighbors[v].add(w)
        neighbors[w].add(v)
    reach = {v: {v} for v in range(num_vertices)}
    for _ in range(k):
        reach = {v: {y for x in r for y in neighbors[x]} for v, r in reach.items()}
    return {(v, w) for v, r in reach.items() for w in r if v <= w}


def test_criterion_8_monotonicity(corpus):
    with criterion(8, "Schreier ratio (upper-1)/index never increases", 600):
        _, reports = corpus
        for name, report in reports.items():
            ratios = [
                Fraction(st.schreier_upper - 1, st.index)
                for st in report.levels
                if st.error is None
            ]
            assert all(a >= b for a, b in zip(ratios, ratios[1:])), name


def test_criterion_9_farber_freeness():
    with criterion(9, "normal-core chain: every short word acts freely", 30):
        chain = farber_chain(*parsed(F2_SEED), 3)
        words = []
        for x in (1, -1, 2, -2):
            words.append((x,))
            for y in (1, -1, 2, -2):
                w = free_reduce((x, y))
                if len(w) == 2 and w not in words:
                    words.append(w)
        # all nontrivial reduced words of length <= 2 (4 + 12 of them)
        assert len(words) == 16
        for level in range(2, len(chain.levels)):
            for w in words:
                assert farber_defect(chain, w, level) == 0


def test_criterion_10_snf_oracle():
    with criterion(10, "SNF and b_{1,p} match independent oracles on 500 matrices", 60):
        rng = random.Random(10)
        for _ in range(500):
            matrix = random_matrix(rng, max_size=6, max_entry=9)
            diag, _ = smith_normal_form(matrix)
            assert diag == minor_gcd_diagonal(matrix)
            n = len(matrix[0])
            report = report_from_matrix(sparse(matrix), n)
            for p in (2, 3, 5):
                assert report.b1p[p] == n - mod_p_rank_oracle(matrix, p)


def test_criterion_11_surface_group():
    with criterion(11, "genus-2 subgroups: beta1 = 2n + 2 at index 2 and 3", 120):
        pres, _ = parsed(SURFACE2)
        ratios = []
        for table in every_subgroup(pres, 3):
            n = table.index
            if n < 2:
                continue
            report = subgroup_homology(table)
            assert report.beta1 == 2 * n + 2
            ratios.append(Fraction(report.beta1 - 1, n))
            assert ratios[-1] == 2 + Fraction(1, n)
        assert ratios  # both indices appeared
        assert min(ratios) == Fraction(7, 3)  # decreasing toward 2


def test_criterion_12_deep_hnn_chain():
    with criterion(12, "figure-eight HNN levels 13..24 have rank-upper <= 3", 30):
        chain = hnn_chain(parsed(FIG8)[0], "t", 24)
        report = gradient_sequence(chain)
        for n in range(13, 25):
            st = report.levels[n]
            assert st.error is None
            assert st.index == n
            assert st.rank_lower <= st.rank_upper <= 3
            assert Fraction(st.rank_upper - 1, st.index) <= Fraction(2, n)
