"""Value semantics of the record classes.

Equality reads only the fields that identify a value (never display text,
provenance or a cached orbit map), equal hashable records hash equal,
frozen records reject assignment, and construction works positionally, by
keyword and from defaults.  The copies ``gradient_sequence`` and
``with_schreier_spec`` make equal the records they replace.
"""

from fractions import Fraction

import pytest

from rankgradient.cache import TableCache
from rankgradient.chains import (
    Chain,
    GradientReport,
    LevelStats,
    _level_stats,
    farber_chain,
    gradient_sequence,
)
from rankgradient.cosets import CosetTable, enumerate_cosets, schreier_generators, with_schreier_spec
from rankgradient.graphings import Graphing, LGraphingCertificate
from rankgradient.homology import DEFAULT_PRIMES, HomologyReport
from rankgradient.towers import (
    CoverGraph,
    FiniteGroupData,
    LevelComparison,
    Predictions,
    TowerReport,
    finite_group_data,
    predict_stats,
)
from rankgradient.words import Presentation, SubgroupSpec, parse_presentation

S3 = "gens a b\nrel a^3\nrel b^2\nrel a b a b\n"


def s3():
    return parse_presentation(S3)[0]


def s3_table(spec=None, provenance=""):
    table = enumerate_cosets(s3(), SubgroupSpec(((2,),)))
    return CosetTable(table.pres, table.perms, spec, provenance)


def s3_cover(known_orbit_map=None):
    # A = S3 acting on itself; sigma joins nothing, so the cover is A alone
    group = finite_group_data(s3())
    return CoverGraph(group, group.order, group.table.perms, tuple(range(group.order)),
                      known_orbit_map)


def predictions():
    return predict_stats(6, 2, {2: 1, 3: 1, 5: 0}, 6, 1, Fraction(0))


def comparison():
    return LevelComparison(6, 1, Fraction(0), 2, predictions(), 6, (1, 1), 1,
                           {2: 1, 3: 1, 5: 1}, True, "n-p+1")


# Equal pairs built independently: one value in every way the record's
# constructor takes it (positionally, by keyword, with its defaults).
EQUAL_PAIRS = {
    "Presentation": lambda: (
        Presentation(("a", "b"), ((1, 2, -1),)),
        Presentation(generators=("a", "b"), relators=((2,),), note=None),
    ),
    "SubgroupSpec": lambda: (
        SubgroupSpec(((1,), (2, 2))),
        SubgroupSpec(generators=((1,), (2, 2)), normal=False, name="H"),
    ),
    "CosetTable": lambda: (s3_table(), CosetTable(pres=s3(), perms=s3_table().perms)),
    "Chain": lambda: (
        Chain(s3(), (s3_table(),), "p"),
        Chain(ambient=s3(), levels=(s3_table(),), provenance="p", nested=(),
              stabilized=(), truncated=None),
    ),
    "LevelStats": lambda: (
        LevelStats(0, 1),
        LevelStats(level=0, index=1, rank_lower=None, rank_upper=None,
                   schreier_upper=None, beta1=None, b1p=None, exact=False,
                   error=None, note=None),
    ),
    "GradientReport": lambda: (
        GradientReport("p", (2,), (LevelStats(0, 1),)),
        GradientReport(chain_provenance="p", primes=(2,), levels=(LevelStats(0, 1),)),
    ),
    "HomologyReport": lambda: (
        HomologyReport(0, {2: 1}),
        HomologyReport(beta1=0, b1p={2: 1}),
    ),
    "Graphing": lambda: (
        Graphing(s3_table(), 1),
        Graphing(table=s3_table(), level=1, fibers={}),
    ),
    "LGraphingCertificate": lambda: (
        LGraphingCertificate(True, "ok"),
        LGraphingCertificate(verdict=True, reason="ok"),
    ),
    "FiniteGroupData": lambda: (
        finite_group_data(s3()),
        FiniteGroupData(pres=s3(), table=enumerate_cosets(s3()),
                        order=6, rank=2, b1p={2: 1, 3: 0, 5: 0}),
    ),
    "CoverGraph": lambda: (s3_cover(), s3_cover()),
    "Predictions": lambda: (
        predictions(),
        Predictions(d=Fraction(6), beta1=Fraction(6), b1p={2: 6, 3: 6, 5: 6},
                    limit_d=Fraction(5, 6), limit_b1p={2: Fraction(5, 6), 3: Fraction(5, 6),
                                                       5: Fraction(5, 6)},
                    limit_beta1=Fraction(5, 6)),
    ),
    "LevelComparison": lambda: (comparison(), comparison()),
    "TowerReport": lambda: (
        TowerReport(Fraction(0), (comparison(),), Fraction(1, 6), {2: Fraction(1, 6)},
                    Fraction(5, 6)),
        TowerReport(mu_target=Fraction(0), levels=(comparison(),), limit_d=Fraction(1, 6),
                    limit_b1p={2: Fraction(1, 6)}, limit_beta1=Fraction(5, 6)),
    ),
    "TableCache": lambda: (TableCache("d"), TableCache(directory="d")),
}

# Records holding a dict, and the two mutable-or-custom-equality records,
# cannot be hashed; every other record can.
UNHASHABLE = {
    "HomologyReport", "Graphing", "FiniteGroupData", "CoverGraph",
    "Predictions", "LevelComparison", "TowerReport", "TableCache",
}


@pytest.mark.parametrize("name", sorted(EQUAL_PAIRS))
def test_equal_records_compare_and_hash_equal(name):
    a, b = EQUAL_PAIRS[name]()
    assert type(a).__name__ == name
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


# one field of each frozen record
FIELD = {
    "Presentation": "relators", "SubgroupSpec": "name", "CosetTable": "provenance",
    "Chain": "levels", "LevelStats": "note", "GradientReport": "levels",
    "HomologyReport": "beta1", "Graphing": "fibers", "LGraphingCertificate": "verdict",
    "FiniteGroupData": "order", "CoverGraph": "known_orbit_map", "Predictions": "d",
    "LevelComparison": "radius", "TowerReport": "levels",
}


@pytest.mark.parametrize("name", sorted(FIELD))
def test_frozen_records_reject_assignment(name):
    record, _ = EQUAL_PAIRS[name]()
    assert hasattr(record, FIELD[name])
    for attr in (FIELD[name], "unrelated"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


def test_table_cache_is_mutable_and_disabled_without_a_directory(tmp_path):
    cache = TableCache(str(tmp_path))
    cache.hits += 1
    assert (cache.directory, cache.hits, cache.misses) == (str(tmp_path), 1, 0)
    assert cache != TableCache(str(tmp_path))
    assert TableCache().directory is None and not TableCache().enabled
    assert TableCache() != TableCache(str(tmp_path))


def test_presentation_equality_ignores_note():
    plain = Presentation(("a", "b"), ((1, 2),))
    shown = Presentation(("a", "b"), ((1, 2),), note="refused 1")
    assert plain == shown and hash(plain) == hash(shown)
    assert shown.note == "refused 1"
    assert plain != Presentation(("a", "b"), ((2, 1, 1),))
    assert plain != Presentation(("a", "c"), ((1, 2),))


def test_coset_table_equality_ignores_spec_and_provenance():
    plain = s3_table()
    cached = s3_table(SubgroupSpec(((2,),), name="K"), "cache")
    assert plain == cached and hash(plain) == hash(cached)
    assert (cached.spec.name, cached.provenance) == ("K", "cache")
    assert plain != CosetTable(plain.pres, plain.perms[::-1])
    assert plain != CosetTable(Presentation(("x", "y")), plain.perms)


def test_cover_graph_equality_ignores_known_orbit_map():
    computed = s3_cover()
    orbit_map = computed._orbit_map
    assert computed._orbit_map is orbit_map  # cached after the first read
    given = s3_cover(known_orbit_map=("given", None))
    assert given == computed
    assert given._orbit_map == ("given", None)
    assert given.known_orbit_map == ("given", None) and computed.known_orbit_map is None
    other = CoverGraph(computed.group, computed.n, computed.a_perms, computed.sigma[::-1])
    assert other != computed


def test_graphing_equality_reads_level_and_fibers():
    table = s3_table()
    base = Graphing(table, 1, {(1,): [0, 1]})
    assert base == Graphing(table, 1, {(1, 2, -2): {0, 1}})
    assert base.fibers == {(1,): frozenset({0, 1})}
    assert Graphing(table, 1).fibers == {}
    assert base != Graphing(table, 2, {(1,): [0, 1]})
    assert base != Graphing(table, 1, {(1,): [0]})


def test_coset_table_caches_its_inverse_permutations():
    table = s3_table()
    inverses = table._inv_perms
    assert table._inv_perms is inverses
    assert all(inv[p[c]] == c for p, inv in zip(table.perms, inverses) for c in range(table.index))


def test_with_schreier_spec_copy_equals_the_table_it_replaces():
    table = s3_table(provenance="cache")
    copy = with_schreier_spec(table, name="K")
    assert copy == table and copy is not table
    assert copy.pres is table.pres and copy.perms is table.perms
    assert copy.provenance == "cache"
    assert copy.spec == SubgroupSpec(schreier_generators(table), name="K")
    assert table.spec is None


def test_gradient_sequence_copies_equal_the_level_stats_they_replace():
    pres, specs = parse_presentation("gens a b\nsub H a, b^2, b a b^-1\n")
    chain = farber_chain(pres, specs[0], 3)
    report = gradient_sequence(chain)
    for level, (table, got) in enumerate(zip(chain.levels, report.levels)):
        st = _level_stats(table, level, DEFAULT_PRIMES)
        assert st.schreier_upper is None and got.schreier_upper is not None
        assert got == LevelStats(
            st.level, st.index, st.rank_lower, st.rank_upper, got.schreier_upper,
            st.beta1, st.b1p, st.exact, st.error, st.note,
        )
        assert got != st
