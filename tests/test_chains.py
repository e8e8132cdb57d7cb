import csv
import io
import json
import time
from fractions import Fraction
from importlib import resources

import pytest

from rankgradient import chains
from rankgradient.chains import (
    DEFAULT_CHAIN_INDEX_CAP,
    farber_chain,
    farber_defect,
    gradient_sequence,
    hnn_chain,
    lamplighter_chain,
    lamplighter_exponent,
    lamplighter_presentation,
    report_to_csv,
    report_to_json,
)
from rankgradient import cosets
from rankgradient.cosets import (
    CosetTable,
    contains,
    enumerate_cosets,
    intersect,
    is_normal,
    normal_core,
    with_schreier_spec,
)
from rankgradient.errors import BudgetError, IntersectionTooLarge
from rankgradient import subgroups
from rankgradient.homology import HomologyReport
from rankgradient.words import Presentation, free_reduce, parse_presentation

from test_cosets import reference_search_index

FIG8 = "gens a b t\nrel t^-1 a t = b^-1\nrel t^-1 b t = b^2 a b\n"


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


def preset_text(name):
    return resources.files("rankgradient.presets").joinpath(name + ".txt").read_text()


def test_hnn_fig8_indices_and_rank():
    pres, _ = parsed(FIG8)
    chain = hnn_chain(pres, "t", 4)
    assert chain.indices() == (1, 1, 2, 3, 4)
    report = gradient_sequence(chain)
    for st in report.levels:
        assert st.error is None
        assert st.rank_upper <= 3


def test_hnn_requires_stable_letter():
    pres, _ = parsed("gens a b\n")
    with pytest.raises(ValueError):
        hnn_chain(pres, "t", 2)


def test_hnn_rejects_non_surjective_stable_letter():
    # t dies in the quotient Z/2, so <A, t^2> has index 1, not 2
    pres, _ = parsed("gens a t\nrel t^2\n")
    with pytest.raises(BudgetError):
        hnn_chain(pres, "t", 2)


def test_hnn_z2_example():
    pres, _ = parsed("gens a t\nrel t^-1 a t = a\n")
    chain = hnn_chain(pres, "t", 2)
    assert chain.indices() == (1, 1, 2)
    table = chain.levels[2]
    assert table.fixes_base((1,))
    assert table.fixes_base((2, 2))
    assert not table.fixes_base((2,))


def test_lamplighter_presentation_order():
    for m in (1, 2):
        pres = lamplighter_presentation(m)
        table = enumerate_cosets(pres)
        assert table.index == 2 ** (2 ** m + m)


def test_lamplighter_chain_w3():
    chain = lamplighter_chain(lamplighter_presentation(3), 2)
    assert chain.indices() == (1, 2, 4)
    report = gradient_sequence(chain)
    for n in (1, 2):
        st = report.levels[n]
        assert st.index == 2 ** n
        assert st.b1p[2] == 2 ** n + 1
        assert Fraction(st.b1p[2] - 1, st.index) == 1
        # the generator a fixes cosets at every level: not a Farber chain
        assert farber_defect(chain, (1,), n) == 1


def test_lamplighter_depth_cap():
    with pytest.raises(ValueError):
        lamplighter_chain(lamplighter_presentation(2), 3)


def test_lamplighter_presentation_needs_positive_m():
    with pytest.raises(ValueError, match="need m >= 1"):
        lamplighter_presentation(0)


def test_lamplighter_exponent_recognizes_w_1_to_w_4():
    for m in (1, 2, 3, 4):
        assert lamplighter_exponent(lamplighter_presentation(m)) == m
    for m in (2, 3):  # the presets, as parsed
        assert lamplighter_exponent(parsed(preset_text(f"lamplighter{m}"))[0]) == m


W3 = lamplighter_presentation(3)


@pytest.mark.parametrize("pres", [
    parsed(preset_text("f2"))[0],
    parsed(preset_text("fig8"))[0],
    parsed(preset_text("s3"))[0],
    # W_3 with [a, t^-1 a t] replaced by (a t)^4, a word of the same length
    Presentation(W3.generators, W3.relators[:2] + ((1, 2) * 4,) + W3.relators[3:]),
], ids=["f2", "fig8", "s3", "w3-other-commutator"])
def test_lamplighter_exponent_rejects_other_groups(pres):
    assert lamplighter_exponent(pres) is None


def test_lamplighter_exponent_checks_counts_before_building_w_m(monkeypatch):
    # 2 + 2^11 short relators have W_12's relator count but not its
    # 2 * 2048^2 + 8 * 2048 + 2 letters, about 8.4 M
    start = time.monotonic()
    pres, _ = parsed("gens a t\n" + "rel a t\n" * 2050)
    monkeypatch.setattr(chains, "lamplighter_presentation", None)  # never built
    assert lamplighter_exponent(pres) is None
    assert time.monotonic() - start < 1


def test_farber_chain_f2():
    pres, spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")
    chain = farber_chain(pres, spec, 2)
    assert chain.indices()[1] == 2
    assert chain.indices()[2] % 2 == 0
    assert chain.truncated is None
    assert all(chain.nested)
    for level in range(2, len(chain.levels)):
        assert is_normal(chain.levels[level])


def test_farber_chain_defects_vanish():
    # seed whose core avoids all short words: quotient is Z/4 x Z/4, where
    # every reduced word of length <= 2 survives
    pres, spec = parsed("gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n")
    chain = farber_chain(pres, spec, 3)
    words = []
    for x in (1, -1, 2, -2):
        words.append((x,))
        for y in (1, -1, 2, -2):
            w = free_reduce((x, y))
            if len(w) == 2 and w not in words:
                words.append(w)
    assert len(words) == 16
    for level in range(2, len(chain.levels)):
        for w in words:
            assert farber_defect(chain, w, level) == 0


def test_farber_chain_truncates_on_cap():
    pres, spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")
    chain = farber_chain(pres, spec, 3, index_cap=10)
    assert chain.truncated is not None
    assert len(chain.levels) >= 2


def test_farber_chain_seed_above_the_index_cap_is_not_a_level():
    pres, spec = parsed("gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n")
    chain = farber_chain(pres, spec, 4, index_cap=5)
    assert chain.indices() == (1,)
    assert chain.truncated == "stopped before level 1: level index 16 exceeds cap 5"


def reference_farber_levels(pres, spec, depth, index_cap=None):
    """(levels, stopped): levels 1, 2, ... as the chain once built them,
    where level n took every index-n table, in order, from a search that
    lists each subgroup (the full-rescan oracle of the coset tests).  Under
    an index cap they stop before the first level whose index, or whose
    Delta_n's, is larger; ``stopped`` is that level, or None."""
    h_table = enumerate_cosets(pres, spec)
    if index_cap is not None and h_table.index > index_cap:
        return [], 1
    core = normal_core(h_table)
    levels, delta = [h_table], None
    for n in range(2, depth + 1):
        found = []
        reference_search_index(pres, n, found, [0, cosets.DEFAULT_NODE_CAP, []])
        try:
            for t in (CosetTable(pres, perms) for perms in sorted(found)):
                if delta is None or not contains(t, delta):
                    delta = t if delta is None else intersect(delta, t, index_cap)
        except IntersectionTooLarge:
            return levels, n
        level = intersect(core, delta) if delta is not None else core
        if index_cap is not None and level.index > index_cap:
            return levels, n
        levels.append(level)
    return levels, None


def test_farber_chain_searches_each_index_once(monkeypatch):
    pres, spec = parsed("gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n")
    reference, _ = reference_farber_levels(pres, spec, 3)
    searches = []  # (index, nodes) per low-index search
    search_index = cosets._search_index

    def counted(pres, k, out, budget):
        search_index(pres, k, out, budget)
        searches.append((k, budget[0]))

    monkeypatch.setattr(cosets, "_search_index", counted)
    chain = farber_chain(pres, spec, 4)
    # level 4 is searched, then truncated at the intersection index cap
    assert chain.truncated.startswith("stopped before level 4: intersection index")
    assert searches == [(2, 13), (3, 49), (4, 195)]
    assert [t.perms for t in chain.levels[1:]] == [t.perms for t in reference]


def test_farber_chain_builds_only_the_cores_it_meets(monkeypatch):
    # Delta_n is normal, so a class table whose core would be skipped is
    # skipped on the table itself: 11 normal cores at f2 depth 4, seed
    # included, against 14 when every class table's core was built first
    pres, spec = parsed(preset_text("f2"))
    built = []
    core = chains.normal_core
    monkeypatch.setattr(chains, "normal_core", lambda table: built.append(1) or core(table))
    chain = farber_chain(pres, spec, 4)
    assert chain.truncated == (
        "stopped before level 4: intersection index 31104 exceeds cap 10000"
    )
    assert len(built) == 11


def surface2_point_stabilizer():
    # a = (0 1) and d = (1 2) with b, c trivial satisfy [a, b][c, d] and
    # act as S3, so the stabilizer of coset 0 has index 3 and is not normal
    pres = parsed(preset_text("surface2"))[0]
    table = CosetTable(pres, ((1, 0, 2), (0, 1, 2), (0, 1, 2), (0, 2, 1)))
    return pres, with_schreier_spec(table).spec


FARBER_SEEDS = {
    "f2-H": lambda: parsed("gens a b\nsub H a, b^2, b a b^-1\n"),
    "f2-preset-K": lambda: parsed(preset_text("f2")),
    "surface2-stabilizer": surface2_point_stabilizer,
    # A5 has no proper subgroup of index below 5 and one class of index 5,
    # the point stabilizers A4: Delta_5 is their core, the trivial group,
    # where one class table alone would leave an A4 of index 5
    "a5-whole": lambda: parsed("gens a b\nrel a^2\nrel b^3\nrel a b a b a b a b a b\n"
                               "sub G a, b\n"),
}


@pytest.mark.parametrize("seed, depth, index_cap", [
    ("f2-H", 3, DEFAULT_CHAIN_INDEX_CAP),
    ("f2-preset-K", 3, DEFAULT_CHAIN_INDEX_CAP),
    ("surface2-stabilizer", 3, DEFAULT_CHAIN_INDEX_CAP),
    ("f2-preset-K", 3, 20),
    ("f2-preset-K", 3, 100),
    ("a5-whole", 5, DEFAULT_CHAIN_INDEX_CAP),
])
def test_farber_levels_match_the_every_subgroup_oracle(seed, depth, index_cap):
    pres, spec = FARBER_SEEDS[seed]()
    chain = farber_chain(pres, spec, depth, index_cap=index_cap)
    reference, stopped = reference_farber_levels(pres, spec, depth, index_cap)
    assert [t.perms for t in chain.levels[1:]] == [t.perms for t in reference]
    if stopped is None:
        assert chain.truncated is None
    else:
        assert chain.truncated.startswith(f"stopped before level {stopped}: ")


def test_farber_chain_node_cap_covers_one_index(monkeypatch):
    # each level's search has DEFAULT_NODE_CAP nodes for its own index:
    # index 2 takes 13 nodes and index 3 takes 49, so a cap of 15 stops
    # the chain before level 3 (the old search of indices 1-2, 16 nodes,
    # stopped it before level 2)
    pres, spec = parsed("gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n")
    monkeypatch.setattr(cosets, "DEFAULT_NODE_CAP", 15)
    chain = farber_chain(pres, spec, 4)
    assert chain.indices() == (1, 16, 16)
    assert chain.truncated == (
        "stopped before level 3: low-index search exceeded 15 nodes (0 tables found)"
    )


def test_farber_defect_rejects_identity():
    chain = lamplighter_chain(lamplighter_presentation(2), 1)
    with pytest.raises(ValueError):
        farber_defect(chain, (), 1)


def test_schreier_ratio_monotone_on_corpus():
    pres, spec = parsed("gens a b\nsub H a, b^2, b a b^-1\n")
    chains = [
        hnn_chain(parsed(FIG8)[0], "t", 5),
        lamplighter_chain(lamplighter_presentation(3), 2),
        farber_chain(pres, spec, 3),
    ]
    for chain in chains:
        report = gradient_sequence(chain)
        ratios = [
            Fraction(st.schreier_upper - 1, st.index)
            for st in report.levels
            if st.error is None
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_gradient_report_serialization_round_trip():
    chain = hnn_chain(parsed(FIG8)[0], "t", 3)
    report = gradient_sequence(chain)
    obj = json.loads(report_to_json(report))
    assert obj["chain"] == chain.provenance
    assert [lv["index"] for lv in obj["levels"]] == list(chain.indices())
    rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    assert len(rows) == len(report.levels)
    st = report.levels[-1]
    last = rows[-1]
    assert int(last["index"]) == st.index
    assert last["ratio_rank_upper"] == f"{st.ratios()['rank_upper']}"
    approx = float(last["ratio_rank_upper_approx"])
    assert abs(approx - float(st.ratios()["rank_upper"])) < 1e-6


def test_relator_cap_keeps_the_level_and_names_the_cap():
    # rewriting a^10001 trips the 10,000-letter relator cap: each level keeps
    # its homology (Z x Z/10001) and reports the Schreier count 1 + 1 * (2 - 1)
    chain = hnn_chain(parsed("gens a t\nrel a^10001\n")[0], "t", 1)
    capped = gradient_sequence(chain)
    for st in capped.levels:
        assert st.error is None
        assert (st.rank_lower, st.rank_upper, st.schreier_upper, st.beta1, st.b1p) == (
            1, 2, 2, 1, {2: 1, 3: 1, 5: 1}
        )
        assert st.note == (
            "rank_upper is the Schreier count: relator length 10001 exceeds cap 10000 (coset 0)"
        )
    assert [lv["note"] for lv in json.loads(report_to_json(capped))["levels"]] == [
        st.note for st in capped.levels
    ]
    rows = list(csv.DictReader(io.StringIO(report_to_csv(capped))))
    assert [row["error"] for row in rows] == [f"NOTE {st.note}" for st in capped.levels]
    # a level that does not trip the cap carries no note
    fig8 = gradient_sequence(hnn_chain(parsed(FIG8)[0], "t", 2))
    assert all(st.note is None for st in fig8.levels)
    assert all("note" not in lv for lv in json.loads(report_to_json(fig8))["levels"])


def tietze_result(rank, note=None):
    """A stand-in for the result of ``tietze_simplify``: rank generators."""
    return Presentation(generators=tuple(f"x{i}" for i in range(rank)), relators=(), note=note)


def test_tietze_note_says_when_the_spec_words_give_rank_upper(monkeypatch):
    # fig8 level 4 has 3 spec words
    table = hnn_chain(parsed(FIG8)[0], "t", 4).levels[4]
    assert len(table.spec.generators) == 3
    note = "Tietze refused 1 elimination at relator cap 10000"
    for tietze_upper, expected in [
        (3, note),
        (5, f"{note} (its bound is 5; rank_upper 3 comes from the spec words and is unaffected)"),
    ]:
        monkeypatch.setattr(
            subgroups, "tietze_simplify", lambda pres: tietze_result(tietze_upper, note)
        )
        st = chains._level_stats(table, 4, (2,))
        assert (st.rank_upper, st.note) == (3, expected)


def test_relator_cap_note_says_when_the_spec_words_give_rank_upper():
    # Z/10001 x Z: rewriting trips the relator cap on every level, and from
    # level 2 on the 2 spec words <a, t^n> undercut the Schreier count n + 1
    pres = parsed("gens a t\nrel a^10001\nrel t^-1 a t a^-1\n")[0]
    report = gradient_sequence(hnn_chain(pres, "t", 3))
    cap = "relator length 10001 exceeds cap 10000 (coset 0)"
    assert [(st.rank_lower, st.rank_upper) for st in report.levels] == [(1, 2)] * 4
    assert [st.note for st in report.levels] == [
        f"rank_upper is the Schreier count: {cap}",
        f"rank_upper is the Schreier count: {cap}",
        f"rank_upper comes from the spec words, not the Schreier count 3: {cap}",
        f"rank_upper comes from the spec words, not the Schreier count 4: {cap}",
    ]


def test_spec_word_bound_below_the_homology_floor_is_crossed(monkeypatch):
    # fig8 level 4: its 3 spec words fall below a homology floor patched to
    # 4, under a Tietze count of 5; the bound is checked, not lifted to 4
    table = hnn_chain(parsed(FIG8)[0], "t", 4).levels[4]
    assert len(table.spec.generators) == 3
    monkeypatch.setattr(
        chains, "subgroup_homology", lambda table, primes: HomologyReport(4, {2: 4})
    )
    monkeypatch.setattr(subgroups, "tietze_simplify", lambda pres: tietze_result(5))
    with pytest.raises(AssertionError, match=r"rank bounds crossed: 4 > 3"):
        chains._level_stats(table, 4, (2,))
