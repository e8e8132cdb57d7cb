from fractions import Fraction

import pytest

from rankgradient.cosets import enumerate_cosets, with_schreier_spec
from rankgradient.errors import BudgetError
from rankgradient.towers import (
    CoverGraph,
    _dihedral_inv,
    _dihedral_mul,
    ambient_presentation,
    build_tower,
    check_projection,
    cover_table,
    finite_group_data,
    injectivity_radius,
    predict_stats,
    tower_report,
    verify_level,
)
from rankgradient.words import parse_presentation

S3 = "gens a b\nrel a^3\nrel b^2\nrel a b a b\n"
Z2 = "gens s\nrel s^2\n"


def pres_of(text):
    return parse_presentation(text)[0]


@pytest.fixture(scope="module")
def s3_tower():
    return build_tower(pres_of(S3), Fraction(3, 4), 3, scale=12, seed=0)


def test_dihedral_group_laws():
    # k is the group order; label b + 2a encodes r^a f^b
    for k in (2, 4, 8, 16):
        elements = range(k)
        for g in elements:
            assert _dihedral_mul(g, 0, k) == g == _dihedral_mul(0, g, k)
            assert _dihedral_mul(g, _dihedral_inv(g, k), k) == 0
        for g in elements:
            for h in elements:
                for f in (0, 1, 3, k - 1):
                    lhs = _dihedral_mul(_dihedral_mul(g, h, k), f, k)
                    rhs = _dihedral_mul(g, _dihedral_mul(h, f, k), k)
                    assert lhs == rhs


def test_dihedral_label_reduction_is_a_homomorphism():
    big, small = 16, 8
    for g in range(big):
        for h in range(big):
            prod = _dihedral_mul(g, h, big)
            assert prod % small == _dihedral_mul(g % small, h % small, small)


def test_dihedral_is_nonabelian_for_order_above_4():
    # r f != f r once the rotation has order > 2
    r, f = 2, 1
    assert _dihedral_mul(r, f, 8) != _dihedral_mul(f, r, 8)


def test_finite_group_data_s3():
    data = finite_group_data(pres_of(S3))
    assert data.order == 6
    assert data.rank == 2
    assert data.b1p == {2: 1, 3: 0, 5: 0}


def test_finite_group_data_rejects_infinite():
    # an infinite group never closes within the order cap
    with pytest.raises(BudgetError):
        finite_group_data(pres_of("gens a b\n"))


def test_build_tower_depth0():
    levels = build_tower(pres_of(S3), Fraction(3, 4), 0, scale=12)
    assert len(levels) == 1
    levels[0].check_invariants()
    assert levels[0].mu == Fraction(3, 4)


def test_build_tower_mu_range():
    with pytest.raises(ValueError):
        build_tower(pres_of(Z2), 1, 1)
    with pytest.raises(ValueError):
        build_tower(pres_of(Z2), Fraction(-1, 2), 1)


def test_build_tower_infeasible_small_scale():
    # a scale-1 Z/2 cover has 2 points; no lift can grow the radius
    with pytest.raises(BudgetError):
        build_tower(pres_of(Z2), 0, 1, scale=1)


def test_tower_shape(s3_tower):
    assert [c.n for c in s3_tower] == [108, 216, 864, 1728]
    radii = [injectivity_radius(c) for c in s3_tower]
    assert radii == sorted(set(radii))  # strictly increasing
    for c in s3_tower:
        c.check_invariants()
        assert c.mu == Fraction(3, 4)
        # n = sum over vertices of the orbit sizes
        assert c.n == sum(len(o) for o in c.orbits())


def test_tower_projections(s3_tower):
    for upper, lower in zip(s3_tower[1:], s3_tower):
        check_projection(upper, lower)
    with pytest.raises(ValueError):
        check_projection(s3_tower[0], s3_tower[1])


def test_tower_determinism():
    again = build_tower(pres_of(S3), Fraction(3, 4), 1, scale=12, seed=0)
    assert again[0].sigma == build_tower(pres_of(S3), Fraction(3, 4), 1, scale=12, seed=0)[0].sigma


def test_cover_table_and_stabilizer(s3_tower):
    ambient = ambient_presentation(pres_of(S3))
    cover = s3_tower[0]
    table = cover_table(cover, ambient)
    assert table.index == cover.n
    # the Schreier generators of the base-point stabilizer have index n
    spec = with_schreier_spec(table).spec
    assert spec.generators
    assert enumerate_cosets(ambient, spec).index == cover.n


@pytest.mark.parametrize("a_perms,sigma,match", [
    # two fixed points that sigma does not join
    (((0, 1), (0, 1)), (0, 1), "not transitive"),
    # a acts as a 6-cycle, so a^3 is not the identity
    (((1, 2, 3, 4, 5, 0), tuple(range(6))), tuple(range(6)), "relator"),
    # b swaps two points: an A-orbit of size 2 in S3
    (((0, 1), (1, 0)), (1, 0), "A-orbit of size 2"),
])
def test_check_invariants_rejects_bad_covers(a_perms, sigma, match):
    group = finite_group_data(pres_of(S3))
    cover = CoverGraph(group=group, n=len(sigma), a_perms=a_perms, sigma=sigma)
    with pytest.raises(ValueError, match=match):
        cover.check_invariants()


def test_predict_stats_consistency_guard():
    with pytest.raises(ValueError):
        predict_stats(6, 2, {2: 1}, 100, 10, Fraction(3, 4))


def test_predict_stats_limits():
    pred = predict_stats(6, 2, {2: 1, 3: 0, 5: 0}, 108, 48, Fraction(3, 4))
    assert pred.limit_d == Fraction(11, 9)
    assert pred.limit_b1p[2] == Fraction(8, 9)
    assert pred.limit_b1p[3] == Fraction(5, 9)
    assert pred.limit_beta1 == Fraction(5, 9)


def test_verify_level_base(s3_tower):
    ambient = ambient_presentation(pres_of(S3))
    lc = verify_level(s3_tower[0], ambient, effort=0)
    assert lc.b1p_match
    assert lc.beta1_formula == "n-p+1"
    assert lc.computed_beta1 == lc.n - lc.p + 1
    assert lc.computed_rank[0] <= lc.predicted.d <= lc.computed_rank[1]


def test_tower_report_formulas(s3_tower):
    ambient = ambient_presentation(pres_of(S3))
    report = tower_report(s3_tower, ambient)
    assert report.limit_d == Fraction(11, 9)
    for lc in report.levels:
        assert lc.b1p_match
        assert lc.beta1_formula == "n-p+1"
        triple = (
            Fraction(lc.predicted.d - 1, lc.n),
            Fraction(lc.computed_b1p[2] - 1, lc.n),
            Fraction(lc.computed_beta1 - 1, lc.n),
        )
        assert triple[0] > triple[1] > triple[2]
    deepest = report.levels[-1]
    assert abs(Fraction(deepest.predicted.d - 1, deepest.n) - Fraction(11, 9)) <= Fraction(1, deepest.p)


def test_check_projection_rejects_garbage(s3_tower):
    lower = s3_tower[0]
    bad = CoverGraph(
        group=lower.group,
        n=lower.n * 2,
        a_perms=tuple(p + tuple(x + lower.n for x in p) for p in lower.a_perms),
        sigma=tuple(range(lower.n * 2)),
    )
    with pytest.raises(ValueError):
        check_projection(bad, lower)
