from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from rankgradient.chains import hnn_chain, lamplighter_chain
from rankgradient.cosets import enumerate_cosets, low_index, with_schreier_spec
from rankgradient import subgroups
from rankgradient.subgroups import (
    _canonical_relator_key,
    _encode,
    _shorten_by,
    fold_subgroup_graph,
    rank_bounds,
    rewrite_presentation,
    schreier_generators,
    stallings_fold,
    subgroup_homology,
    tietze_simplify,
)
from rankgradient.homology import homology_report
from rankgradient.towers import build_tower, cover_table
from rankgradient.words import (
    Presentation,
    SubgroupSpec,
    cyclic_reduce,
    invert,
    parse_presentation,
)


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


def free(rank):
    return parsed("gens " + " ".join("abc"[:rank]) + "\n")[0]


def test_nielsen_schreier_all_low_index():
    for rank, n_max in ((2, 4), (3, 3)):
        pres = free(rank)
        for table in low_index(pres, n_max):
            expected = 1 + table.index * (rank - 1)
            folded_rank, index = stallings_fold(rank, with_schreier_spec(table).spec)
            assert index == table.index
            assert folded_rank == expected
            lower, upper = rank_bounds(table, subgroup_homology(table))
            assert lower == upper == expected


def test_schreier_generators_count():
    pres = free(2)
    spec = parsed("gens a b\nsub K normal a^2, b^2, a b a^-1 b^-1\n")[1]
    table = enumerate_cosets(pres, spec)
    gens = schreier_generators(table)
    assert len(gens) == 2 * table.index - (table.index - 1)


def test_stallings_infinite_index():
    rank_, index = stallings_fold(2, SubgroupSpec(generators=((1,), (2, 2))))
    assert index is None  # <a, b^2> is not of finite index in F2
    assert rank_ == 2


def test_stallings_cancellation():
    # <ab, ab> folds to a single loop
    spec = SubgroupSpec(generators=((1, 2), (1, 2)))
    assert stallings_fold(2, spec)[0] == 1


def test_fold_rejects_normal_spec():
    with pytest.raises(ValueError):
        fold_subgroup_graph(2, SubgroupSpec(generators=((1,),), normal=True))


def test_folded_graph_shape():
    graph = fold_subgroup_graph(2, SubgroupSpec(generators=((1, 1), (2,))))
    assert graph.cycle_rank == 2
    assert not graph.is_complete_cover()


def test_rewrite_presentation_preserves_homology():
    # index-2 subgroup of the Klein bottle group is Z^2
    pres, _ = parsed("gens a b\nrel a b a b^-1\n")
    spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")[1]
    table = enumerate_cosets(pres, spec)
    assert table.index == 2
    rewritten = rewrite_presentation(table)
    report = homology_report(rewritten)
    assert report.beta1 == 2
    assert report.torsion == ()


def preset(name):
    text = resources.files("rankgradient.presets").joinpath(name + ".txt").read_text()
    return parse_presentation(text)[0]


def homology_corpus():
    """Coset tables: a small example, every surface2 subgroup of index <= 4,
    fig8 HNN levels 1-8, the lamplighter W3 levels and the z2z2 mu = 1/2
    tower levels."""
    s3, spec = parsed("gens a b\nrel a^3\nrel b^2\nrel a b a b\nsub H b\n")
    yield enumerate_cosets(s3, spec)
    yield from low_index(preset("surface2"), 4)
    for chain, levels in ((hnn_chain(preset("fig8"), "t", 8), range(1, 9)),
                          (lamplighter_chain(3, 2), range(3))):
        for level in levels:
            yield chain.levels[level]
    for cover in build_tower(preset("z2z2"), Fraction(1, 2), 1, scale=12, seed=0):
        yield cover_table(cover)


def test_subgroup_homology_matches_rewrite():
    # The Fox matrix of the cover against the Reidemeister-Schreier
    # presentation: beta1, torsion and b_{1,p} must all agree.  At effort 0
    # Tietze removes no generator, so rank_bounds may skip the rewriting and
    # take the Schreier count.
    count = 0
    for table in homology_corpus():
        rewritten = rewrite_presentation(table)
        report = subgroup_homology(table)
        assert report == homology_report(rewritten), (table.pres, table.index)
        assert rank_bounds(table, report, 0)[1] == tietze_simplify(rewritten, effort=0).rank
        count += 1
    assert count == 1 + 5511 + 8 + 3 + 2


def test_tietze_removes_redundant_generators():
    # <x, y | x y^-1> is Z
    pres, _ = parsed("gens x y\nrel x y^-1\n")
    simplified = tietze_simplify(pres, effort=2)
    assert simplified.rank == 1
    assert simplified.relators == ()


def test_tietze_effort_zero_is_identity():
    pres, _ = parsed("gens x y\nrel x y^-1\n")
    assert tietze_simplify(pres, effort=0).rank == 2


def test_rank_bounds_sandwich():
    pres, spec = parsed(
        "gens a b\nrel a^3\nrel b^2\nrel a b a b\nsub H b\n"
    )
    table = enumerate_cosets(pres, spec)
    lower, upper = rank_bounds(table, subgroup_homology(table))
    assert lower <= upper
    assert lower >= 1  # <a> in the subgroup maps onto Z/3


# Oracles for the Tietze internals: the plain slicing versions.


def rotation_key(w):
    return min(u[i:] + u[:i] for u in (w, invert(w)) for i in range(max(len(u), 1)))


def slice_shortening(ri, relators):
    r = relators[ri]
    variants = [base[i:] + base[:i] for base in (r, invert(r)) for i in range(len(base))]
    for length in range(len(r) - 1, len(r) // 2, -1):
        for variant in variants:
            piece, complement = variant[:length], invert(variant[length:])
            for rj, s in enumerate(relators):
                if rj == ri:
                    continue
                for k in range(len(s) - length + 1):
                    if s[k : k + length] == piece:
                        s2 = cyclic_reduce(s[:k] + complement + s[k + length :])
                        if len(s2) < len(s):
                            return rj, s2
    return None


def words(rank, max_size=12):
    letters = st.sampled_from([g for g in range(-rank, rank + 1) if g])
    return st.lists(letters, max_size=max_size).map(tuple)


@st.composite
def relator_keys(draw):
    rank = draw(st.integers(1, 4))
    # Powers, words over two letters (the least letter repeats), and single
    # letters besides plain words.
    u = draw(st.one_of(
        words(rank),
        st.lists(st.sampled_from([-rank, 1]), min_size=1, max_size=12).map(tuple),
        words(rank, max_size=1),
    ))
    return u * draw(st.integers(1, 4))


@given(relator_keys())
@settings(max_examples=500, deadline=None)
def test_canonical_key_is_least_rotation(w):
    assert _canonical_relator_key(w) == rotation_key(w)


@st.composite
def relator_lists(draw):
    rank = draw(st.integers(1, 3))
    relators = draw(st.lists(words(rank, 8).map(cyclic_reduce), min_size=1, max_size=4))
    # Plant long pieces of some relator (or of its inverse) in new relators
    # so that substitutions are found.
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.sampled_from(relators))
        base = draw(st.sampled_from((r, invert(r))))
        i = draw(st.integers(0, max(len(base) - 1, 0)))
        piece = (base[i:] + base[:i])[: draw(st.integers(0, len(base)))]
        relators.append(cyclic_reduce(draw(words(rank, 4)) + piece + draw(words(rank, 4))))
    return rank, relators


@given(relator_lists())
@settings(max_examples=300, deadline=None)
def test_piece_search_matches_slicing(data):
    rank, relators = data
    codes = [_encode(s, rank) for s in relators]
    for ri in range(len(relators)):
        assert _shorten_by(ri, relators, codes, rank) == slice_shortening(ri, relators)


def test_tietze_matches_slicing_oracles_on_fig8(monkeypatch):
    chain = hnn_chain(preset("fig8"), "t", 12)
    rewritten = [rewrite_presentation(chain.levels[n]) for n in range(1, 13)]
    fast = [tietze_simplify(pres) for pres in rewritten]
    monkeypatch.setattr(subgroups, "_canonical_relator_key", rotation_key)
    monkeypatch.setattr(
        subgroups, "_shorten_by", lambda ri, relators, codes, offset: slice_shortening(ri, relators)
    )
    assert [tietze_simplify(pres) for pres in rewritten] == fast


def test_tietze_rejects_ranks_beyond_the_encoding(monkeypatch):
    monkeypatch.setattr(subgroups, "MAX_ENCODED_RANK", 1)
    pres, _ = parsed("gens x y\nrel x y^-1\n")
    assert tietze_simplify(pres, effort=1).rank == 1
    with pytest.raises(ValueError, match="at most 1 generators"):
        tietze_simplify(pres, effort=2)


def cleaning_after_every_pass(pres, effort):
    """Reference Tietze loop that cleans the relators after every pass, even
    one that changed nothing."""
    names = list(pres.generators)
    relators = subgroups._clean(pres.relators)
    for _ in range(200):
        progress = False
        if effort >= 1 and subgroups._eliminate_once(relators, names):
            progress = True
        relators = subgroups._clean(relators)
        if effort >= 2 and not progress and subgroups._shorten_once(relators, pres.rank):
            progress = True
            relators = subgroups._clean(relators)
        if not progress:
            break
    return Presentation(generators=tuple(names), relators=tuple(relators))


def test_tietze_cleans_only_after_a_change(monkeypatch):
    chain = hnn_chain(preset("fig8"), "t", 12)
    corpus = [rewrite_presentation(chain.levels[n]) for n in range(1, 13)]
    for group, mu in (("z2z2", Fraction(1, 2)), ("s3", Fraction(3, 4))):
        for cover in build_tower(preset(group), mu, 1, scale=12, seed=0):
            corpus.append(rewrite_presentation(cover_table(cover)))
    for pres in corpus:
        for effort in (0, 1, 2):
            expected = cleaning_after_every_pass(pres, effort)
            assert tietze_simplify(pres, effort=effort) == expected
    cleans = []
    clean = subgroups._clean
    monkeypatch.setattr(subgroups, "_clean", lambda rels: cleans.append(1) or clean(rels))
    tietze_simplify(corpus[-1], effort=0)
    assert len(cleans) == 1
