import functools
import hashlib
import json
import random
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import pytest

from rankgradient.cosets import enumerate_cosets, with_schreier_spec
from rankgradient.errors import BudgetError, InternalInvariantError
from rankgradient import towers
from rankgradient.towers import (
    CoverGraph,
    _TwistSearch,
    _base_cover,
    _copy_orders,
    _dihedral_inv,
    _dihedral_mul,
    _edge_graph,
    _nb_walks,
    ambient_presentation,
    build_tower,
    check_projection,
    cover_table,
    cover_to_json_obj,
    finite_group_data,
    injectivity_radius,
    predict_stats,
    tower_report,
    verify_level,
)
from rankgradient.words import SubgroupSpec, free_reduce, invert, parse_presentation

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
    table = cover_table(cover)
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
    lc = verify_level(s3_tower[0])
    assert lc.b1p_match
    assert lc.beta1_formula == "n-p+1"
    assert lc.computed_beta1 == lc.n - lc.p + 1
    assert lc.computed_rank[0] <= lc.predicted.d <= lc.computed_rank[1]


def test_tower_report_formulas(s3_tower):
    report = tower_report(s3_tower)
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


# sha256 of each level's cover_to_json_obj (canonical JSON), pinned so that
# search changes must keep every chosen cover byte for byte.
COVER_FINGERPRINTS = {
    ("s3", "3/4", 0): (
        "197e025d8c960fe6e1ed7ca7f14fcc09e0280a0c8ca1aeec5bb836a18f6b5571",
        "a847fc02f4f40e8658610e9363c2dacc907790aca84258824e7b9f79efccf207",
        "72734e99f9e4464c9993010e35b0dc5d40709495b0ab16ed6889d98e911fc1a4",
        "0754b061c2b0295a68fc1663dfeac59ccdcfcf306693a36d5efe9e4b11ce2682",
    ),
    ("s3", "3/4", 1): (
        "197e025d8c960fe6e1ed7ca7f14fcc09e0280a0c8ca1aeec5bb836a18f6b5571",
        "6778c49c646462bfff8c87d0100d12440804d987ba2ec39a444421bbf54dd8e1",
        "30c0d2702ab329484c781ac65731f81f5ae0ee8fcf7a0b4c43f925e0372a2f54",
        "33df7f9171a5122ee6621613c785fd1e2cd09e45cfd927a3f78a72f274086bb9",
    ),
    ("s3", "2/3", 1): (
        "383a2d78260043a33af535a44ddc71b2c9d3bae151a4fdc35b725ceadacf1670",
        "a0219c664b79654a2f74eff270e27709e1c6688625f7172065d43e44e8ab89b4",
        "d3f3183bc98c0016843a6a083d3c5f54a81c76ab8673db9848f6ffb851518592",
        "1adf184417a3469bed7953786810ae43d62dcfef98e5372c9d8043f82ed3c483",
    ),
    ("z2z2", "1/2", 0): (
        "f5b8a90da9613506751885f657929561cc4dcfda28b400754b29c46f67f769e0",
        "697e99e28ba287c4eed4fdc0b6b0cde1456c125f901e806c63f774f1b2f7d505",
        "e617e2708353376513f15c2d044d98547aab3fb8752cf7d13dc47206e9faa093",
        "6e6625f4ac898dedf00417bae973bb9f76722bfb1eb0ae8f7c517461866c00f3",
    ),
}


def preset(name):
    text = resources.files("rankgradient.presets").joinpath(name + ".txt").read_text()
    return pres_of(text)


def cover_fingerprint(cover):
    text = json.dumps(cover_to_json_obj(cover), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def pinned_tower(case):
    group, mu, seed = case
    return build_tower(preset(group), Fraction(mu), 3, scale=12, seed=seed)


@pytest.mark.parametrize("case", sorted(COVER_FINGERPRINTS))
def test_tower_covers_are_pinned(case):
    levels = pinned_tower(case)
    assert tuple(cover_fingerprint(c) for c in levels) == COVER_FINGERPRINTS[case]


def kurosh_words(cover):
    """Explicit generators of the base-point stabilizer, one per Kurosh
    generator: a spanning tree enters each A-orbit once through a t-edge
    and spans the orbit with A-letters; then w_x t w_{sigma x}^-1 for each
    t-edge x -> sigma x off the tree and w_x a_i w_x^-1 for each one-point
    orbit {x} and generator a_i."""
    rank = len(cover.a_perms)
    stable = rank + 1
    inverse_sigma = [0] * cover.n
    for x, y in enumerate(cover.sigma):
        inverse_sigma[y] = x
    words = {}
    tree = set()  # x of each tree t-edge x -> sigma x

    def span_orbit(x, word):
        words[x] = word
        frontier = [x]
        for y in frontier:
            for i, perm in enumerate(cover.a_perms, start=1):
                z = perm[y]
                if z not in words:
                    words[z] = words[y] + (i,)
                    frontier.append(z)
        return frontier

    frontier = span_orbit(0, ())
    for x in frontier:
        for y, letter, edge in ((cover.sigma[x], stable, x),
                                (inverse_sigma[x], -stable, inverse_sigma[x])):
            if y not in words:
                tree.add(edge)
                frontier += span_orbit(y, words[x] + (letter,))
    assert len(words) == cover.n
    gens = [
        free_reduce(words[x] + (stable,) + invert(words[cover.sigma[x]]))
        for x in range(cover.n) if x not in tree
    ]
    for orbit in cover.orbits():
        if len(orbit) == 1:
            x = orbit[0]
            gens += [free_reduce(words[x] + (i,) + invert(words[x])) for i in range(1, rank + 1)]
    return gens


# the pinned depth-3 towers and the depth-1 tower of the z2z2 goldens
KUROSH_TOWERS = [case + (3,) for case in sorted(COVER_FINGERPRINTS)] + [("z2z2", "1/2", 0, 1)]


@pytest.mark.parametrize("case", KUROSH_TOWERS, ids=lambda case: "-".join(map(str, case)))
def test_rank_upper_is_the_kurosh_word_count(case):
    """Independent check of the Kurosh count: the explicit words lie in the
    base-point stabilizer and generate it (HLT closes at index n), and
    there are exactly rank_upper = predicted d of them."""
    group, mu, seed, depth = case
    if depth == 3:
        levels = pinned_tower(case[:3])
    else:
        levels = build_tower(preset(group), Fraction(mu), depth, scale=12, seed=seed)
    ambient = ambient_presentation(levels[0].group.pres)
    for cover, lc in zip(levels, tower_report(levels).levels):
        table = cover_table(cover)
        gens = kurosh_words(cover)
        assert all(table.apply(w, 0) == 0 for w in gens)
        spec = SubgroupSpec(generators=tuple(gens), name="H")
        assert enumerate_cosets(ambient, spec).index == cover.n
        assert len(gens) == lc.computed_rank[1] == lc.predicted.d


def test_budget_error_texts_are_pinned():
    with pytest.raises(BudgetError) as info:
        build_tower(pres_of(Z2), 0, 1, scale=1)
    assert str(info.value) == (
        "no tower of depth 1 with strictly increasing radius found for mu=0 at "
        "scale 1: layout (12, 0): two walks share every point mod 2, forcing a collision"
    )
    with pytest.raises(BudgetError) as info:
        build_tower(preset("s3"), Fraction(3, 4), 3, scale=4)
    no_route = (
        "no route satisfying the hub constraints found for mu=3/4, scale=4; "
        "try a larger scale"
    )
    assert str(info.value) == (
        "no tower of depth 3 with strictly increasing radius found for mu=3/4 at "
        "scale 4: " + "; ".join([no_route] * 4)
    )


# Reference annealer: every changed walk's product is taken along its whole
# path, tables count (vertex, residue) tuples, and counter updates follow the
# iteration order of the set of walks through the changed point.  A move
# first saves the products and a copy of every table, and a rejected move
# is taken back by restoring them, so every table keeps its key order.


class FullPathSearch(_TwistSearch):
    def __init__(self, *args):
        super().__init__(*args)
        self.through = {}
        for i, (_, path, _, _) in enumerate(self.walks):
            for x, _ in path:
                self.through.setdefault(x, set()).add(i)

    def _path_product(self, path, twists):
        g = 0
        for x, d in path:
            g = self.mul[g][twists[x]] if d == 1 else self.mul[g][self.inv[twists[x]]]
        return g

    def _products(self, twists):
        return [self._path_product(path, twists) for _, path, _, _ in self.walks]

    def _tables(self, prods):
        tables, totals = [], []
        for lim, k, _ in self.specs:
            counter = {}
            for i, (v, _, ln, _) in enumerate(self.walks):
                if ln <= lim:
                    key = (v, prods[i] % k)
                    counter[key] = counter.get(key, 0) + 1
            tables.append(counter)
            totals.append(sum(m * (m - 1) // 2 for m in counter.values()))
        return tables, totals

    def _change(self, twists, x, value, prods, tables, totals):
        self._saved = list(prods), [dict(t) for t in tables], list(totals)
        twists[x] = value
        for i in self.through[x]:
            v, path, ln, _ = self.walks[i]
            g = self._path_product(path, twists)
            old = prods[i]
            if g == old:
                continue
            for si, (lim, k, _) in enumerate(self.specs):
                if ln > lim:
                    continue
                key_old, key_new = (v, old % k), (v, g % k)
                if key_old == key_new:
                    continue
                counter = tables[si]
                m = counter[key_old]
                totals[si] -= m - 1
                if m == 1:
                    del counter[key_old]
                else:
                    counter[key_old] = m - 1
                m = counter.get(key_new, 0)
                totals[si] += m
                counter[key_new] = m + 1
            prods[i] = g

    def _undo(self, twists, x, value, prods, tables, totals):
        twists[x] = value
        prods[:], tables[:], totals[:] = self._saved

    def _conflict_point(self, prods, tables, totals, rng):
        unmet = [
            si
            for si, (_, _, forbid) in enumerate(self.specs)
            if (totals[si] > 0) == forbid
        ]
        if not unmet:
            return None
        si = rng.choice(unmet)
        lim, k, forbid = self.specs[si]
        if forbid:
            bad = [key for key, m in tables[si].items() if m > 1]
            key = rng.choice(bad)
            members = [
                i
                for i, (v, _, ln, _) in enumerate(self.walks)
                if ln <= lim and (v, prods[i] % k) == key
            ]
        else:
            members = [i for i, (_, _, ln, _) in enumerate(self.walks) if 0 < ln <= lim]
        path = self.walks[rng.choice(members)][1]
        if not path:
            return None
        return rng.choice(path)[0]


def search_layout(group, mu, seed, chain_len, route_seed, depth=3):
    """(base, walks, r0, depth, copy orders) of one scanned layout, as
    build_tower makes it."""
    base = _base_cover(
        finite_group_data(preset(group)), Fraction(mu), 12,
        rng_seed=seed + route_seed, chain_len=chain_len,
    )
    r0 = injectivity_radius(base)
    walks = list(_nb_walks(base, r0 + depth))
    return base, walks, r0, depth, _copy_orders(walks, r0, depth)[0]


def assert_same_tables(fast, prods, tables, totals, oracle_tables, oracle_totals):
    """Forbid tables item by item, in order (_conflict_point draws from that
    order), with their totals.  A ceiling is read only as met or unmet, so
    it must be met exactly when the oracle's count is positive, and its kept
    pair must be two walks of its window that really collide.  Returns the
    number of unmet ceilings."""
    kmax = fast.kmax
    unmet = 0
    for si, (_, k, forbid) in enumerate(fast.specs):
        if forbid:
            assert totals[si] == oracle_totals[si]
            assert [(divmod(key, kmax), m) for key, m in tables[si].items()] == list(
                oracle_tables[si].items()
            )
            continue
        assert (totals[si] > 0) == (oracle_totals[si] > 0)
        pair = tables[si]
        if pair is None:
            assert totals[si] == 0
            unmet += 1
            continue
        i, j = pair
        assert i != j and i < fast.ends[si] and j < fast.ends[si]
        assert fast.walks[i][0] == fast.walks[j][0]
        assert prods[i] % k == prods[j] % k
    return unmet


# the layout tower --group s3 --mu 3/4 --depth 3 anneals, whose ceilings
# are met in every random state, and a z2z2 layout whose level-1 ceiling is
# unmet about half the time under random moves
ORACLE_LAYOUTS = [("s3", "3/4", 0, 12, 2), ("z2z2", "1/2", 0, 8, 0)]


def test_incremental_annealer_matches_full_path_oracle():
    unmet = 0
    for case in ORACLE_LAYOUTS:
        layout = search_layout(*case)
        fast, oracle = _TwistSearch(*layout), FullPathSearch(*layout)
        kmax = fast.kmax
        rng = random.Random(11)
        twists = [rng.randrange(kmax) for _ in range(fast.n0)]
        oracle_twists = list(twists)
        prods = fast._products(twists)
        tables, totals = fast._tables(prods)
        oracle_prods = oracle._products(oracle_twists)
        oracle_tables, oracle_totals = oracle._tables(oracle_prods)
        points = sorted(oracle.through)
        reverts = 0
        for _ in range(2500):
            x, value = rng.choice(points), rng.randrange(kmax)
            moves = [value]
            if rng.random() < 0.5:
                moves.append(twists[x])
                reverts += 1
            for value in moves:
                fast._change(twists, x, value, prods, tables, totals)
                oracle._change(
                    oracle_twists, x, value, oracle_prods, oracle_tables, oracle_totals
                )
                assert prods == oracle_prods == oracle._products(twists)
                assert prods == fast._products(twists)
                unmet += assert_same_tables(
                    fast, prods, tables, totals, oracle_tables, oracle_totals
                )
        assert reverts > 1000
    assert unmet > 1000


def test_undo_matches_full_path_oracle():
    # _undo restores the saved products, tables and ceiling pairs; the oracle
    # restores its own copies
    unmet = 0
    for case in ORACLE_LAYOUTS:
        layout = search_layout(*case)
        fast, oracle = _TwistSearch(*layout), FullPathSearch(*layout)
        rng = random.Random(13)
        twists = [rng.randrange(fast.kmax) for _ in range(fast.n0)]
        oracle_twists = list(twists)
        prods = fast._products(twists)
        tables, totals = fast._tables(prods)
        oracle_prods = oracle._products(oracle_twists)
        oracle_tables, oracle_totals = oracle._tables(oracle_prods)
        points = sorted(oracle.through)
        undone = 0
        for _ in range(2500):
            x, value = rng.choice(points), rng.randrange(fast.kmax)
            old = twists[x]
            fast._change(twists, x, value, prods, tables, totals)
            oracle._change(oracle_twists, x, value, oracle_prods, oracle_tables, oracle_totals)
            if rng.random() < 0.5:
                unmet += assert_same_tables(
                    fast, prods, tables, totals, oracle_tables, oracle_totals
                )
                fast._undo(twists, x, old, prods, tables, totals)
                oracle._undo(oracle_twists, x, old, oracle_prods, oracle_tables, oracle_totals)
                undone += 1
            assert twists == oracle_twists
            assert prods == oracle_prods == fast._products(twists)
            unmet += assert_same_tables(fast, prods, tables, totals, oracle_tables, oracle_totals)
        assert undone > 1000
    assert unmet > 1000


def test_rejected_move_leaves_no_trace():
    # _conflict_point draws from the forbid tables' key order, so an undone
    # move must give back every table item by item, in order
    undone = 0
    for case in ORACLE_LAYOUTS:
        layout = search_layout(*case)
        fast = _TwistSearch(*layout)
        depth = fast.depth
        rng = random.Random(17)
        points = sorted(fast.through)
        for _ in range(50):
            twists = [rng.randrange(fast.kmax) for _ in range(fast.n0)]
            prods = fast._products(twists)
            tables, totals = fast._tables(prods)
            for _ in range(40):
                x, value = rng.choice(points), rng.randrange(fast.kmax)
                before = (
                    list(twists), list(prods), list(totals), tables[depth:],
                    [list(t.items()) for t in tables[:depth]],
                )
                old = twists[x]
                fast._change(twists, x, value, prods, tables, totals)
                fast._undo(twists, x, old, prods, tables, totals)
                after = (
                    twists, prods, totals, tables[depth:],
                    [list(t.items()) for t in tables[:depth]],
                )
                assert after == before
                undone += 1
                # move on to a fresh state through an accepted move
                fast._change(twists, x, value, prods, tables, totals)
    assert undone == 4000


def test_conflict_draws_match_full_path_oracle():
    # the same point and the same rng state from many annealer states, so
    # the per-vertex member lists equal the oracle's scan of the window
    layout = search_layout("s3", "3/4", 0, 12, 2)
    fast, oracle = _TwistSearch(*layout), FullPathSearch(*layout)
    rng = random.Random(5)
    forbidding = 0
    for trial in range(300):
        twists = [rng.randrange(fast.kmax) for _ in range(fast.n0)]
        prods = fast._products(twists)
        tables, totals = fast._tables(prods)
        oracle_tables, oracle_totals = oracle._tables(oracle._products(twists))
        fast_rng, oracle_rng = random.Random(trial), random.Random(trial)
        for _ in range(20):
            point = fast._conflict_point(prods, tables, totals, fast_rng)
            assert point == oracle._conflict_point(prods, oracle_tables, oracle_totals, oracle_rng)
            assert fast_rng.getstate() == oracle_rng.getstate()
        forbidding += sum(1 for (_, _, forbid), t in zip(fast.specs, totals) if forbid and t)
    assert forbidding > 300


def test_conflict_point_keeps_the_colliding_keys_of_a_kept_table():
    # a rejected move restores the forbid tables themselves, so the key
    # lists _conflict_point made for them still hold and are reused
    layout = search_layout("s3", "3/4", 0, 12, 2)
    fast = _TwistSearch(*layout)
    rng = random.Random(11)
    points = sorted(fast.through)
    twists = [rng.randrange(fast.kmax) for _ in range(fast.n0)]
    prods = fast._products(twists)
    tables, totals = fast._tables(prods)
    kept = 0
    for _ in range(300):
        fast._conflict_point(prods, tables, totals, rng)
        before = list(fast._bad)
        x, value = rng.choice(points), rng.randrange(fast.kmax)
        old = twists[x]
        fast._change(twists, x, value, prods, tables, totals)
        fast._undo(twists, x, old, prods, tables, totals)
        fast._conflict_point(prods, tables, totals, rng)
        for si, entry in enumerate(fast._bad):
            if entry is not None and entry[0] is tables[si]:
                assert entry[1] == [key for key, m in tables[si].items() if m > 1]
            if before[si] is not None and before[si][0] is tables[si]:
                assert entry is before[si]
                kept += 1
        # move on to a fresh state through an accepted move
        fast._change(twists, x, value, prods, tables, totals)
    assert kept > 100


# layouts whose search succeeds within a few thousand moves
@pytest.mark.parametrize("group,mu,seed,chain_len,route_seed,moves", [
    pytest.param("s3", "3/4", 0, 12, 3, 4000, id="s3-3/4-0-12-3"),
    pytest.param("s3", "3/4", 1, 12, 1, 4000, id="s3-3/4-1-12-1"),
    pytest.param("z2z2", "1/2", 0, None, 0, 4000, id="z2z2-1/2-0-None-0"),
    # the layout tower --group s3 --mu 3/4 --depth 3 searches; it finds its
    # solution at move 1,748
    pytest.param("s3", "3/4", 0, 12, 2, 5000, id="s3-3/4-0-12-2"),
])
def test_annealer_matches_full_path_oracle_in_solve(
    group, mu, seed, chain_len, route_seed, moves
):
    layout = search_layout(group, mu, seed, chain_len, route_seed)
    name = f"{seed}:{chain_len}:{route_seed}"
    fast_rng, oracle_rng = random.Random(name), random.Random(name)
    twists = _TwistSearch(*layout).solve(fast_rng, restarts=1, moves=moves)
    assert twists is not None
    assert twists == FullPathSearch(*layout).solve(oracle_rng, restarts=1, moves=moves)
    # the same draws, so the same search path
    assert fast_rng.getstate() == oracle_rng.getstate()


SCANNED = [(c, r) for c in (12, 14, None, 8) for r in range(4)]
# routes _base_cover scores over the SCANNED layouts of the pinned cases
# when it stops at the radius floor (4,750 when every route is scored)
ROUTES_TO_FLOOR = 1018
# The eager try order of tower --group s3 --mu 3/4 --depth 3: all 16
# level-0 layouts built first, then stably sorted by `bumped`.
EAGER_ORDER_S3 = [
    (12, 2), (12, 3), (14, 0), (14, 2), (8, 0), (8, 1), (8, 3),
    (12, 0), (12, 1), (14, 1), (14, 3), (None, 0), (None, 1), (None, 2), (None, 3), (8, 2),
]


def test_layouts_are_tried_in_the_eager_order(monkeypatch):
    events = []
    base_cover, copy_orders = towers._base_cover, towers._copy_orders

    def record_base(group, mu, scale, rng_seed, chain_len):
        events.append(("base", chain_len, rng_seed))
        return base_cover(group, mu, scale, rng_seed=rng_seed, chain_len=chain_len)

    def record_orders(walks, r0, depth):
        orders, bumped = copy_orders(walks, r0, depth)
        events.append(("orders", bumped))
        return orders, bumped

    def record_solve(self, rng):
        state = rng.getstate()
        layout = next(
            (c, r)
            for c, r in SCANNED
            if random.Random(f"0:{c}:{r}").getstate() == state
        )
        events.append(("solve", layout))
        return None

    monkeypatch.setattr(towers, "_base_cover", record_base)
    monkeypatch.setattr(towers, "_copy_orders", record_orders)
    monkeypatch.setattr(_TwistSearch, "solve", record_solve)
    with pytest.raises(BudgetError) as info:
        build_tower(preset("s3"), Fraction(3, 4), 3, scale=12, seed=0)
    tried = [e[1] for e in events if e[0] == "solve"]
    assert tried == EAGER_ORDER_S3
    # eager order: unbumped layouts in scan order, then the bumped ones
    scanned, layout = [], None
    for event in events:
        if event[0] == "base":
            layout = (event[1], event[2])
        elif event[0] == "orders":
            scanned.append((layout, event[1]))
    unbumped = [lo for lo, bumped in scanned if not bumped]
    assert tried == unbumped + [lo for lo, bumped in scanned if bumped]
    # the first layout was tried straight after it was built
    assert [e[0] for e in events[:7]] == ["base", "orders"] * 3 + ["solve"]
    assert str(info.value) == (
        "no tower of depth 3 with strictly increasing radius found for mu=3/4 at "
        "scale 12: layout (None, 1): search budget exhausted; layout (None, 2): "
        "search budget exhausted; layout (None, 3): search budget exhausted; "
        "layout (8, 2): search budget exhausted"
    )


def test_tower_builds_only_the_layouts_it_tries(monkeypatch):
    calls = []
    base_cover = towers._base_cover

    def counted(*args, **kwargs):
        calls.append(kwargs["chain_len"])
        return base_cover(*args, **kwargs)

    monkeypatch.setattr(towers, "_base_cover", counted)
    levels = build_tower(preset("s3"), Fraction(3, 4), 3, scale=12, seed=0)
    assert [c.n for c in levels] == [108, 216, 864, 1728]
    assert len(calls) == 3


# Oracles for the single walk enumerator and the int-row GF(2) screen: the
# breadth-first radius search and the list-based echelon of the feasibility
# screen as they stood before either was rewritten.


def bfs_radius(cover, cap=towers.DEFAULT_RADIUS_CAP):
    base, out_edges, head = _edge_graph(cover)
    seen = {base}
    frontier = [(base, None)]  # (vertex image, edge we arrived by)
    depth = 0
    while frontier and depth < cap:
        nxt = []
        for vertex, arrived in frontier:
            for edge in out_edges.get(vertex, ()):
                if arrived is not None and edge == (arrived[0], -arrived[1]):
                    continue
                img = head(edge)
                if img in seen:
                    return depth
                seen.add(img)
                nxt.append((img, edge))
        frontier = nxt
        depth += 1
    return depth


def echelon_feasible(search):
    walks, n0, r0 = search.walks, search.n0, search.r0

    def pair_row(i, j):
        row = [0] * n0
        for x, _ in walks[i][1] + walks[j][1]:
            row[x] ^= 1
        return row

    by_vertex = {}
    for i, (v, _, _, _) in enumerate(walks):
        by_vertex.setdefault(v, []).append(i)
    aug = []
    for members in by_vertex.values():
        inner = [i for i in members if walks[i][2] <= r0 + 1]
        for a in range(len(inner)):
            for b in range(a + 1, len(inner)):
                aug.append(pair_row(inner[a], inner[b]) + [1])
    pivots = []
    rank = 0
    for col in range(n0):
        pivot = next((i for i in range(rank, len(aug)) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][col]:
                aug[i] = [p ^ q for p, q in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    if any(row[n0] for row in aug[rank:]):
        return False, "two walks share every point mod 2, forcing a collision"
    if search.depth < 2:
        return True, ""
    for members in by_vertex.values():
        window = [i for i in members if walks[i][2] <= r0 + 2]
        for a in range(len(window)):
            for b in range(a + 1, len(window)):
                i, j = window[a], window[b]
                if max(walks[i][2], walks[j][2]) != r0 + 2:
                    continue
                row = pair_row(i, j)
                parity = 0
                for t, col in enumerate(pivots):
                    if row[col]:
                        row = [p ^ q for p, q in zip(row, aug[t][:n0])]
                        parity ^= aug[t][n0]
                if any(row) or parity == 0:
                    return True, ""
    return False, "every fresh pair in the ceiling window is forced apart mod 2"


def scan_bases():
    """Every distinct scanned level-0 layout of the pinned cases, as
    (case, layout, base), in the order _base_cover first returns them."""
    bases = []
    for case in sorted(COVER_FINGERPRINTS):
        group, mu, seed = case
        data = finite_group_data(preset(group))
        seen = set()
        for chain_len, route_seed in SCANNED:
            base = _base_cover(
                data, Fraction(mu), 12, rng_seed=seed + route_seed, chain_len=chain_len
            )
            if (base.sigma, base.a_perms) not in seen:
                seen.add((base.sigma, base.a_perms))
                bases.append((case, (chain_len, route_seed), base))
    return bases


@pytest.fixture(scope="module")
def scanned_bases():
    """scan_bases() with the radius floor turned off, so every route is
    scored, plus (radius, oracle radius, min(floor, cap)) for every route
    cover that _base_cover scored."""
    radius, floor = towers.injectivity_radius, towers._radius_floor
    scored, floors = [], []

    def checked(cover):
        scored.append((radius(cover), bfs_radius(cover), floors[-1]))
        return scored[-1][0]

    def floor_off(plan):
        floors.append(min(floor(plan), towers.DEFAULT_RADIUS_CAP))
        return -1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "injectivity_radius", checked)
        mp.setattr(towers, "_radius_floor", floor_off)
        bases = scan_bases()
    return bases, scored


def test_radius_matches_bfs_oracle_on_route_covers(scanned_bases):
    _, scored = scanned_bases
    # 64 _base_cover calls, every route scored; routes the hub constraints
    # reject are not scored
    assert len(scored) == 4750
    assert all(r == oracle for r, oracle, _ in scored)
    assert len({r for r, _, _ in scored}) > 1
    # no route scores below its layout's floor, and some sit on it
    assert all(r >= floor for r, _, floor in scored)
    assert any(r == floor for r, _, floor in scored)


def test_route_scan_stops_at_the_radius_floor(scanned_bases):
    bases, _ = scanned_bases
    radius = towers.injectivity_radius
    calls = []

    def counted(cover):
        calls.append(cover)
        return radius(cover)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "injectivity_radius", counted)
        assert scan_bases() == bases
    # the same 64 _base_cover calls and covers as the full scan
    assert len(calls) == ROUTES_TO_FLOOR


@pytest.mark.parametrize("case", sorted(COVER_FINGERPRINTS))
def test_radius_matches_bfs_oracle_on_tower_levels(case):
    for cover in pinned_tower(case):
        assert injectivity_radius(cover) == bfs_radius(cover)
        assert injectivity_radius(cover, cap=2) == bfs_radius(cover, cap=2) == 2


def test_feasible_matches_echelon_oracle(scanned_bases):
    bases, _ = scanned_bases
    outcomes = set()
    for case, layout, base in bases:
        r0 = injectivity_radius(base)
        for depth in (1, 2, 3):
            walks = list(_nb_walks(base, r0 + depth))
            orders, _ = _copy_orders(walks, r0, depth)
            # the pigeonhole bound that lets feasible skip a capacity check
            for j, k in enumerate(orders, start=1):
                per_vertex = {}
                for v, _, ln, _ in walks:
                    if ln <= r0 + j:
                        per_vertex[v] = per_vertex.get(v, 0) + 1
                assert max(per_vertex.values()) <= k, (case, layout, depth, j)
            search = _TwistSearch(base, walks, r0, depth, orders)
            verdict = search.feasible()
            assert verdict == echelon_feasible(search), (case, layout, depth)
            outcomes.add(verdict)
    # pass, parity fail and ceiling fail all occur among these layouts
    assert {ok for ok, _ in outcomes} == {True, False}
    assert len(outcomes) == 3


def test_feasible_matches_echelon_oracle_on_z2_scale_1():
    base = _base_cover(finite_group_data(pres_of(Z2)), Fraction(0), 1, chain_len=12)
    r0 = injectivity_radius(base)
    walks = list(_nb_walks(base, r0 + 1))
    search = _TwistSearch(base, walks, r0, 1, _copy_orders(walks, r0, 1)[0])
    verdict = search.feasible()
    assert verdict == echelon_feasible(search)
    assert verdict == (False, "two walks share every point mod 2, forcing a collision")


def test_feasible_reduces_in_basis_order():
    # A synthetic prefix tree of walks over points 0..2 whose level-1 pairs
    # give, in this order, the rows p0 + p1 = 1, p0 = 1 and p1 = 1: the
    # third row reduces to a contradiction only against the basis in order.
    walks = [
        (0, (), 0, -1),
        (1, ((0, 1),), 1, 0),
        (2, ((1, 1),), 1, 0),
        (3, ((2, 1),), 1, 0),
        (4, ((2, -1),), 1, 0),
        (0, ((0, 1), (1, 1)), 2, 1),
        (1, ((2, 1), (2, 1)), 2, 3),
        (2, ((2, -1), (2, -1)), 2, 4),
    ]
    search = _TwistSearch(SimpleNamespace(n=3), walks, 1, 1, [2])
    verdict = search.feasible()
    assert verdict == echelon_feasible(search)
    assert verdict == (False, "two walks share every point mod 2, forcing a collision")


# Reference route search: _base_cover as it stood before the per-layout
# block lists and pair-count matrix, rebuilding the candidate hub list by a
# scan of every block for each regular slot and an orbit map per route.


def reference_base_cover(group, mu, scale, rng_seed=0, chain_len=None):
    a = group.order
    fixed = mu.numerator * scale
    regular = (mu.denominator - mu.numerator) * scale
    if regular == 0:
        raise ValueError("mu = 1 is not realizable by finite covers of this kind")
    n = fixed + a * regular
    if n > towers.BASE_POINT_CAP:
        raise ValueError(
            f"mu = {mu} at scale {scale} needs {n} points, over the cap {towers.BASE_POINT_CAP}; "
            f"the minimal point count for this mu is {mu.numerator + a * (mu.denominator - mu.numerator)}"
        )
    a_perms = []
    for g in range(group.pres.rank):
        perm = list(range(n))
        for block in range(regular):
            for e in range(a):
                x = fixed + block * a + e
                perm[x] = fixed + block * a + group.table.perms[g][e]
        a_perms.append(tuple(perm))
    reg_points = list(range(fixed, n))

    def cover_for(route):
        sigma = [0] * n
        for i, x in enumerate(route):
            sigma[x] = route[(i + 1) % n]
        return CoverGraph(group=group, n=n, a_perms=tuple(a_perms), sigma=tuple(sigma))

    def edge_profile(cover):
        ids = cover.orbit_ids()
        counts = {}
        loops = 0
        for x in range(n):
            u, v = ids[x], ids[cover.sigma[x]]
            if u == v:
                loops += 1
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values()), loops

    if chain_len is None:
        chain_len = max(fixed // 2, min(fixed, 1))
    chain_len = min(chain_len, fixed)
    others = list(range(1 if chain_len else 0, fixed))
    cut = max(chain_len - 1, 0)
    chain_rest, spread = others[:cut], others[cut:]
    half = len(chain_rest) // 2
    plan = chain_rest[:half] + [0] + chain_rest[half:] if chain_len else []
    credit = Fraction(0)
    per_slot = Fraction(len(spread), len(reg_points))
    placed = 0
    for _ in reg_points:
        plan.append(None)
        credit += per_slot
        while credit >= 1 and placed < len(spread):
            plan.append(spread[placed])
            placed += 1
            credit -= 1
    plan.extend(spread[placed:])

    def block_of(x):
        return (x - fixed) // a

    rng = random.Random(rng_seed)
    best = None
    for _ in range(towers.ROUTE_TRIES):
        remaining = {}
        for x in reg_points:
            remaining.setdefault(block_of(x), []).append(x)
        pair_count = {}
        route = []
        prev_hub = None
        ok = True
        for fixed_point in plan:
            if fixed_point is not None:
                route.append(fixed_point)
                prev_hub = None
                continue
            candidates = [
                b
                for b, pts in remaining.items()
                if pts
                and b != prev_hub
                and (
                    prev_hub is None
                    or pair_count.get((min(b, prev_hub), max(b, prev_hub)), 0) < 2
                )
            ]
            if not candidates and regular == 1:
                candidates = [b for b, pts in remaining.items() if pts]
            if not candidates:
                ok = False
                break
            b = rng.choice(sorted(candidates))
            x = remaining[b].pop()
            route.append(x)
            if prev_hub is not None:
                key = (min(b, prev_hub), max(b, prev_hub))
                pair_count[key] = pair_count.get(key, 0) + 1
            prev_hub = b
        if not ok:
            continue
        cover = cover_for(route)
        multiplicity, loops = edge_profile(cover)
        clean = loops == 0 and multiplicity <= 2
        key = (clean, -injectivity_radius(cover))
        if best is None or key > best[0]:
            best = (key, cover)
    if best is None:
        raise ValueError(
            f"no route satisfying the hub constraints found for mu={mu}, "
            f"scale={scale}; try a larger scale"
        )
    (clean, _), cover = best
    if not clean and regular > 1:
        raise ValueError(
            f"no loop-free route with edge multiplicity <= 2 found for mu={mu}, "
            f"scale={scale}; try a larger scale"
        )
    return cover


def route_outcome(search, group, mu, scale, rng_seed, chain_len):
    """("sigma", sigma, a_perms) of the chosen route, or ("error", text)."""
    try:
        cover = search(group, mu, scale, rng_seed=rng_seed, chain_len=chain_len)
    except ValueError as exc:
        return ("error", str(exc))
    return ("sigma", cover.sigma, cover.a_perms)


ROUTE_GRID = (
    # (group, mu, scale, rng_seeds, chain_lens)
    [("s3", mu, scale, (0, 3), (None, 8))
     for mu in ("0", "1/3", "1/2", "2/3", "3/4") for scale in (1, 4, 6)]
    + [("z2z2", mu, scale, (1,), (None, 1, 12))
       for mu in ("0", "1/2", "3/4", "4/5") for scale in (1, 3, 6)]
    + [("s3", "3/4", 12, (0, 2), (12, 14)), ("z2z2", "1/2", 12, (5,), (None,))]
    # a radius floor (75) above DEFAULT_RADIUS_CAP (64)
    + [("s3", "3/4", 100, (0,), (None,))]
    # routes with a loop score radius 0, on the floor, before the first
    # clean route does
    + [("z2z2", "0", 6, (0,), (None,))]
    # no base chain: the base point is spread among the regular slots
    + [("s3", "3/4", scale, (0, 3), (0,)) for scale in (1, 6, 12)]
    + [("z2z2", "1/2", scale, (0, 3), (0,)) for scale in (1, 3, 6)]
)


@pytest.mark.parametrize("group,mu,scale,seeds,chain_lens", ROUTE_GRID)
def test_route_search_matches_reference(group, mu, scale, seeds, chain_lens):
    data = finite_group_data(preset(group))
    mu = Fraction(mu)
    for rng_seed in seeds:
        for chain_len in chain_lens:
            args = (data, mu, scale, rng_seed, chain_len)
            assert route_outcome(_base_cover, *args) == route_outcome(
                reference_base_cover, *args
            ), (group, mu, scale, rng_seed, chain_len)


def floor_sides(plan):
    """(L, R): cycle steps from the base point 0 to the nearest regular
    slot going left and going right, read off the plan rotated to start at
    0; None when 0 is not in the plan."""
    if 0 not in plan:
        return None
    i = plan.index(0)
    rotated = plan[i:] + plan[:i]
    slots = [j for j, x in enumerate(rotated) if x is None]
    return len(rotated) - slots[-1], slots[0]


def test_radius_floor_of_synthetic_plans():
    f = towers._radius_floor
    assert f([None] * 6) == 0
    assert f([0, None]) == 0  # L = R = 1: both walks reach the same hub
    assert f([3, 2, 0, 1, None, None]) == 2  # L = 3, R = 2
    assert f([1, 0, 2, None, None]) == 1  # L = R = 2
    assert f([None, 1, 0, 2, 3]) == 2  # L = 2, R = 3, wrapping round
    assert floor_sides([None, 1, 0, 2, 3]) == (2, 3)


FLOOR_CASES = [
    # (group, mu, scale, rng_seed, chain_len, (L, R), floor)
    ("s3", "3/4", 6, 0, None, (6, 5), 5),
    ("s3", "3/4", 12, 0, 12, (7, 7), 6),
    ("z2z2", "0", 6, 1, None, None, 0),
    ("s3", "3/4", 100, 0, None, (76, 76), 75),
]


@pytest.mark.parametrize("group,mu,scale,rng_seed,chain_len,sides,floor", FLOOR_CASES)
def test_radius_floor_of_route_plans(group, mu, scale, rng_seed, chain_len, sides, floor):
    real = towers._radius_floor
    plans = []

    def recorded(plan):
        plans.append(plan)
        return real(plan)

    data = finite_group_data(preset(group))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(towers, "_radius_floor", recorded)
        cover = _base_cover(data, Fraction(mu), scale, rng_seed, chain_len)
    (plan,) = plans
    assert floor_sides(plan) == sides
    assert real(plan) == floor
    radius = injectivity_radius(cover)
    assert radius >= min(floor, towers.DEFAULT_RADIUS_CAP)
    if floor > towers.DEFAULT_RADIUS_CAP:
        assert radius == towers.DEFAULT_RADIUS_CAP
    # ROUTE_GRID checks this layout against the full reference scan
    assert any(
        row[:3] == (group, mu, scale) and rng_seed in row[3] and chain_len in row[4]
        for row in ROUTE_GRID
    )


def test_route_below_the_radius_floor_raises(monkeypatch):
    # a floor the routes cannot reach is caught, not trusted
    monkeypatch.setattr(towers, "_radius_floor", lambda plan: 100)
    s3 = finite_group_data(preset("s3"))
    with pytest.raises(InternalInvariantError, match="below its floor 64"):
        _base_cover(s3, Fraction(3, 4), 12, chain_len=12)


def test_route_search_reference_covers_the_edge_cases():
    s3 = finite_group_data(preset("s3"))
    # one block: the hub rule cannot hold, every regular slot falls back
    # to the sole block, and the looped route is still returned
    one_block = route_outcome(_base_cover, s3, Fraction(1, 2), 1, 0, None)
    assert one_block[0] == "sigma"
    assert one_block == route_outcome(reference_base_cover, s3, Fraction(1, 2), 1, 0, None)
    # scale 4 at mu = 3/4: every greedy route runs out of candidates
    assert route_outcome(_base_cover, s3, Fraction(3, 4), 4, 0, 12) == (
        "error",
        "no route satisfying the hub constraints found for mu=3/4, scale=4; "
        "try a larger scale",
    )


@pytest.mark.parametrize("group", ["s3", "z2z2"])
@pytest.mark.parametrize("mu", ["1/2", "3/4"])
def test_route_without_base_chain_visits_the_base_point(group, mu):
    # chain_len=0 spreads the base point 0 with the other fixed points
    data = finite_group_data(preset(group))
    for scale in (1, 6, 12):
        cover = _base_cover(data, Fraction(mu), scale, chain_len=0)
        x, cycle = 0, []
        while x not in cycle:
            cycle.append(x)
            x = cover.sigma[x]
        assert sorted(cycle) == list(range(cover.n))
