import random
from fractions import Fraction
from importlib import resources

import pytest

from rankgradient.chains import farber_chain, hnn_chain, lamplighter_chain
from rankgradient.cosets import DEFAULT_COSET_CAP, enumerate_cosets, schreier_generators
from rankgradient.errors import IndexBoundExceeded
from rankgradient.graphings import (
    Graphing,
    bar,
    compose,
    edge_measure,
    graphing_from_generators,
    is_l_graphing,
    loop_screen,
    minimize_graphing,
    power,
    projected_edges,
    rank_bound,
    to_labeled_graph,
    union,
)
from rankgradient.subgroups import subgroup_abelianized_matrix
from rankgradient.words import SubgroupSpec, free_reduce, parse_presentation
from test_homology import mod_p_rank_oracle
from test_subgroups import full_edge_matrix


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


def f2_delta2_chain():
    # level 2 is the intersection of all index-<=2 subgroups of F2, index 4
    pres, spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")
    return farber_chain(pres, spec, 2)


def reference_minimize(chain, level, gens=None, coset_cap=DEFAULT_COSET_CAP):
    """The incidence greedy ``minimize_graphing`` replaces: try deleting each
    single incidence of the seed (largest fiber first, then label, then
    coset), keep a deletion whenever the result is still an L-graphing and
    restart the scan after it, with no homology floor.  It reads
    ``graphings.is_l_graphing`` at call time, so a test can record it."""
    import rankgradient.graphings as graphings

    table = chain.levels[level]
    if gens is None:
        spec = table.spec
        plain = spec is not None and not spec.normal
        gens = spec.generators if plain else schreier_generators(table)
    current = graphing_from_generators(chain, level, gens)
    changed = True
    while changed:
        changed = False
        order = sorted(
            current.incidences(),
            key=lambda item: (-len(current.fibers[item[1]]), item[1], item[0]),
        )
        for c, label in order:
            fibers = {k: set(v) for k, v in current.fibers.items()}
            fibers[label].discard(c)
            candidate = Graphing(table=table, level=level, fibers=fibers)
            if graphings.is_l_graphing(candidate, coset_cap).verdict is True:
                current = candidate
                changed = True
                break
    return current, graphings.rank_bound(current, coset_cap)


def test_generating_set_graphing_round_trip():
    chain = f2_delta2_chain()
    level = 2
    gens = schreier_generators(chain.levels[level])
    assert len(gens) == 5  # free rank of an index-4 subgroup of F2
    m = graphing_from_generators(chain, level, gens)
    assert edge_measure(m) == 2  # (5 + 3) / 4
    cert = is_l_graphing(m)
    assert cert.verdict is True
    assert rank_bound(m) == 5


def test_coset_cap_reaches_every_loop_image_check(monkeypatch):
    import rankgradient.graphings as graphings

    # the lamplighter2 level of index 4: its seed has 5 labels, one above
    # the homology floor 4, so minimization checks candidates
    chain = lamplighter_chain(2, 2)
    m = graphing_from_generators(chain, 2, chain.levels[2].spec.generators)
    # index 4 needs at least 4 live cosets: the check is indeterminate
    assert is_l_graphing(m, coset_cap=3).verdict is None
    with pytest.raises(IndexBoundExceeded) as exc:
        rank_bound(m, coset_cap=3)
    assert exc.value.cap == 3
    caps = []
    checked = graphings.is_l_graphing

    def recording(m, coset_cap):
        caps.append(coset_cap)
        return checked(m, coset_cap)

    monkeypatch.setattr(graphings, "is_l_graphing", recording)
    assert minimize_graphing(chain, 2, coset_cap=50) == minimize_graphing(chain, 2)
    assert len(caps) > 2 and set(caps) == {50, 100_000}


def test_round_trip_at_index_one():
    pres, _ = parsed("gens a b\n")
    chain = hnn_chain(parsed("gens a b t\nrel t^-1 a t = b^-1\nrel t^-1 b t = b^2 a b\n")[0], "t", 1)
    level = 1  # index 1: the whole group
    spec = chain.levels[level].spec
    m = graphing_from_generators(chain, level, spec.generators)
    assert m.index == 1
    assert is_l_graphing(m).verdict is True
    assert rank_bound(m) == len(set(spec.generators))


def test_minimize_graphing_is_deterministic_and_minimal_here():
    chain = f2_delta2_chain()
    m1, bound1 = minimize_graphing(chain, 2)
    m2, bound2 = minimize_graphing(chain, 2)
    assert m1 == m2 and bound1 == bound2
    assert bound1 <= 5
    assert is_l_graphing(m1).verdict is True


def test_rank_bound_requires_l_graphing():
    chain = f2_delta2_chain()
    table = chain.levels[2]
    m = Graphing(table=table, level=2, fibers={(1, 1): {0}})
    with pytest.raises(ValueError):
        rank_bound(m)


def test_bar_contains_inverses_and_identity():
    chain = f2_delta2_chain()
    m = graphing_from_generators(chain, 2, schreier_generators(chain.levels[2]))
    b = bar(m)
    assert b.fibers[()] == frozenset(range(4))
    for label, cosets in m.fibers.items():
        targets = {m.table.apply(label, c) for c in cosets}
        assert targets <= b.fibers[free_reduce(tuple(-x for x in reversed(label)))]


def test_union_and_compose_measures():
    chain = f2_delta2_chain()
    table = chain.levels[2]
    m = Graphing(table=table, level=2, fibers={(1,): {0, 1}})
    n = Graphing(table=table, level=2, fibers={(2,): {table.apply((1,), 0)}})
    u = union(m, n)
    assert edge_measure(u) == Fraction(3, 4)
    c = compose(m, n)
    assert c.fibers == {free_reduce((1, 2)): frozenset({0})}


def random_graphing(rng, chain, level):
    table = chain.levels[level]
    fibers = {}
    for _ in range(rng.randint(1, 3)):
        label = free_reduce(
            tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(1, 3)))
        )
        if not label:
            continue
        cosets = {rng.randrange(table.index) for _ in range(rng.randint(1, 3))}
        fibers.setdefault(label, set()).update(cosets)
    return Graphing(table=table, level=level, fibers=fibers)


def reachability(edges, num_vertices, k):
    """k-step closure of an undirected edge set, as a set of (v, w) pairs."""
    neighbors = {v: {v} for v in range(num_vertices)}
    for v, w in edges:
        neighbors[v].add(w)
        neighbors[w].add(v)
    reach = {v: {v} for v in range(num_vertices)}
    for _ in range(k):
        reach = {
            v: {y for x in r for y in neighbors[x]} for v, r in reach.items()
        }
    return {(v, w) for v, r in reach.items() for w in r if v <= w}


def test_power_matches_reachability_closure():
    pres, spec = parsed("gens a b\nsub K normal a^2, b^2, a b a^-1 b^-1\n")
    chain = farber_chain(pres, spec, 2)
    levels = [n for n in range(len(chain.levels)) if chain.levels[n].index <= 8]
    rng = random.Random(2024)
    for trial in range(100):
        level = levels[trial % len(levels)]
        m = random_graphing(rng, chain, level)
        k = rng.randint(1, 5)
        p = power(m, k)
        got = {(min(v, w), max(v, w)) for v, w in projected_edges(p)}
        want = reachability(projected_edges(bar(m)), m.index, k)
        assert got == want, (trial, level, k, m.fibers)


def test_to_labeled_graph_loops_fix_base():
    chain = f2_delta2_chain()
    m = graphing_from_generators(chain, 2, schreier_generators(chain.levels[2]))
    loops, disconnected = to_labeled_graph(m)
    assert not disconnected
    assert len(m.incidences()) == 8
    table = chain.levels[2]
    for loop in loops:
        assert table.fixes_base(loop)


def test_disconnected_graphing_rejected():
    chain = f2_delta2_chain()
    table = chain.levels[2]
    m = Graphing(table=table, level=2, fibers={(1, 1): set(range(4))})
    cert = is_l_graphing(m)
    assert cert.verdict is False


# ---------------------------------------------------------------------------
# The homology screen in front of the loop-image enumeration
# ---------------------------------------------------------------------------


def preset(name):
    return parse_presentation(
        resources.files("rankgradient.presets").joinpath(name + ".txt").read_text()
    )


def fig8_chain():
    return hnn_chain(preset("fig8")[0], "t", 3)


def f2_chain(depth=2):
    pres, (spec,) = preset("f2")
    return farber_chain(pres, spec, depth)


def f2_subgroup_chain():
    # indices 1, 2, 4, 972; under reference_minimize level 3 makes 1,945
    # checks of index 972, too slow here
    pres, spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")
    return farber_chain(pres, spec, 3)


def gens_words(chain, text):
    """The words of a ``graphing --gens`` value over the chain's generators."""
    return parse_presentation(
        "gens " + " ".join(chain.ambient.generators) + "\nsub G " + text + "\n"
    )[1][0].generators


def tried_candidates(monkeypatch, chain, level):
    """Every graphing that ``reference_minimize`` checks, in order, the
    final ``rank_bound`` check included."""
    import rankgradient.graphings as graphings

    tried = []
    checked = graphings.is_l_graphing

    def recording(m, coset_cap):
        tried.append(m)
        return checked(m, coset_cap)

    with monkeypatch.context() as patch:
        patch.setattr(graphings, "is_l_graphing", recording)
        reference_minimize(chain, level)
    return tried


def dense(rows, cols):
    """Sparse (column, value) rows as dense rows of ``cols`` entries."""
    out = [[0] * cols for _ in rows]
    for row, entries in zip(out, rows):
        for j, v in entries:
            row[j] = v
    return out


def assert_screen_ranks_match_full_edge_matrix(table, loops):
    """The cotree rows of ``loop_screen`` have the ranks over F_2, F_3 and
    F_5 of the relator and loop rows on every edge of the cover graph, and
    as many columns as the cycle space has dimensions."""
    rows, cols = subgroup_abelianized_matrix(table, loops)
    full, full_cols = full_edge_matrix(table, loops)
    assert cols == full_cols - table.index + 1
    ranks = [mod_p_rank_oracle(dense(rows, cols), p) for p in (2, 3, 5)]
    assert ranks == [mod_p_rank_oracle(dense(full, full_cols), p) for p in (2, 3, 5)]
    return ranks


@pytest.mark.parametrize("make_chain, level, refutations", [
    (fig8_chain, 3, 3),
    (f2_chain, 2, 17),
    (f2_subgroup_chain, 0, 2),
    (f2_subgroup_chain, 1, 3),
    (f2_subgroup_chain, 2, 5),
])
def test_loop_screen_refutes_only_non_generating_loops(
    monkeypatch, make_chain, level, refutations
):
    chain = make_chain()
    refuted = accepted = 0
    for m in tried_candidates(monkeypatch, chain, level):
        loops, disconnected = to_labeled_graph(m)
        if disconnected:
            continue
        spec = SubgroupSpec(generators=tuple(loops), name="loops")
        try:
            index = enumerate_cosets(chain.ambient, spec).index
        except IndexBoundExceeded:
            index = None
        assert_screen_ranks_match_full_edge_matrix(m.table, loops)
        reason = loop_screen(m.table, loops)
        if reason is None:
            verdict = is_l_graphing(m).verdict
            assert verdict is (None if index is None else index == m.index)
            accepted += verdict is True
        else:
            refuted += 1
            assert index != m.index, reason
            assert is_l_graphing(m).reason == reason
    assert (refuted, accepted) == (refutations, 1)


@pytest.mark.parametrize("gens, rank", [("a,t^3", 6), ("a,b", 6), ("t^3", 5)])
def test_non_generating_gens_screen_ranks_match_full_edge_matrix(gens, rank):
    # the loop sets of the graphing --gens cases the CLI refuses
    chain = fig8_chain()
    m = graphing_from_generators(chain, 3, gens_words(chain, gens))
    loops, disconnected = to_labeled_graph(m)
    assert not disconnected
    assert assert_screen_ranks_match_full_edge_matrix(m.table, loops)[0] == rank


def test_loop_screen_needs_p_2_on_fig8(monkeypatch):
    import rankgradient.graphings as graphings

    chain = fig8_chain()
    m = tried_candidates(monkeypatch, chain, 3)[1]
    loops, _ = to_labeled_graph(m)
    assert loop_screen(m.table, loops) == (
        "loop and relator classes have rank 6 over F_2, the cycle space has rank 7"
    )
    assert is_l_graphing(m).verdict is False
    # over F_3 and F_5 the loops span the cycle space, and HLT never closes
    monkeypatch.setattr(graphings, "DEFAULT_PRIMES", (3, 5))
    assert loop_screen(m.table, loops) is None
    assert is_l_graphing(m).verdict is None


@pytest.mark.parametrize("argv", [
    "graphing --preset fig8 --depth 3 --level 3",
    "graphing --preset f2 --depth 2 --level 2",
])
def test_graphing_goldens_trip_no_coset_cap(monkeypatch, capsys, argv):
    import rankgradient.cosets as cosets
    from rankgradient.cli import EXIT_OK, main

    hlt = cosets._hlt
    defined, trips = [], []

    def recording(*args):
        try:
            perms, count = hlt(*args)
        except IndexBoundExceeded as exc:
            trips.append(exc)
            raise
        defined.append(count)
        return perms, count

    monkeypatch.setattr(cosets, "_hlt", recording)
    assert main(argv.split()) == EXIT_OK
    assert trips == []
    assert defined and max(defined) < 1_000


# ---------------------------------------------------------------------------
# One pass over the generator labels against the incidence greedy
# ---------------------------------------------------------------------------


CHAINS = {
    "fig8 depth 3": fig8_chain,
    "fig8 depth 2": lambda: hnn_chain(preset("fig8")[0], "t", 2),
    "f2 depth 2": f2_chain,
    "<a, b^2, b a b^-1> depth 2": f2_delta2_chain,
    "lamplighter2 depth 2": lambda: lamplighter_chain(2, 2),
    "lamplighter3 depth 2": lambda: lamplighter_chain(3, 2),
    "lamplighter3 depth 3": lambda: lamplighter_chain(3, 3),
}


@pytest.mark.parametrize("name, level, gens", [
    *(("fig8 depth 3", level, None) for level in range(4)),
    ("f2 depth 2", 2, None),
    *(("<a, b^2, b a b^-1> depth 2", level, None) for level in range(3)),
    *(("lamplighter2 depth 2", level, None) for level in range(3)),
    *(("lamplighter3 depth 3", level, None) for level in range(4)),
    ("fig8 depth 3", 3, "a,b,t^3,a b"),
    ("fig8 depth 2", 2, "a,b,t^2,a^2,b^-1"),
    ("lamplighter3 depth 2", 2, "a,t^-1 a t,t^-2 a t^2,t^-3 a t^3,t^4,t^8"),
])
def test_minimize_graphing_matches_incidence_greedy(name, level, gens):
    chain = CHAINS[name]()
    if gens is not None:
        gens = gens_words(chain, gens)
    assert minimize_graphing(chain, level, gens) == reference_minimize(chain, level, gens)


@pytest.mark.parametrize("make_chain, index", [
    (f2_subgroup_chain, 972),
    (lambda: f2_chain(3), 3888),
], ids=["index 972", "index 3888"])
def test_free_level_rank_bound_is_nielsen_schreier(make_chain, index):
    # a subgroup of index n in F2 is free of rank 1 + n
    chain = make_chain()
    m, bound = minimize_graphing(chain, 3)
    assert (m.index, bound) == (index, 1 + index)
