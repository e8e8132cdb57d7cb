import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from rankgradient.chains import gradient_sequence, hnn_chain, lamplighter_chain
from rankgradient.cosets import CosetTable, enumerate_cosets, with_schreier_spec
from rankgradient import subgroups
from rankgradient.subgroups import (
    _canonical_relator_key,
    _join_reduced,
    rank_bounds,
    rewrite_presentation,
    schreier_generators,
    subgroup_homology,
    tietze_simplify,
)
from rankgradient.homology import homology_report, report_from_matrix
from rankgradient.towers import build_tower, cover_table
from rankgradient.words import (
    Presentation,
    SubgroupSpec,
    cyclic_reduce,
    free_reduce,
    invert,
    parse_presentation,
    primitive_root,
)

from test_cosets import every_subgroup


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


def free(rank):
    return parsed("gens " + " ".join("abc"[:rank]) + "\n")[0]


def test_nielsen_schreier_all_low_index():
    for rank, n_max in ((2, 4), (3, 3)):
        pres = free(rank)
        for table in every_subgroup(pres, n_max):
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
    assert report.b1p == {2: 2, 3: 2, 5: 2}


def preset(name):
    text = resources.files("rankgradient.presets").joinpath(name + ".txt").read_text()
    return parse_presentation(text)[0]


def homology_corpus():
    """Coset tables: a small example, every surface2 subgroup of index <= 4,
    fig8 HNN levels 1-8, the lamplighter W3 levels and the z2z2 mu = 1/2
    tower levels."""
    s3, spec = parsed("gens a b\nrel a^3\nrel b^2\nrel a b a b\nsub H b\n")
    yield enumerate_cosets(s3, spec)
    yield from every_subgroup(preset("surface2"), 4)
    for chain, levels in ((hnn_chain(preset("fig8"), "t", 8), range(1, 9)),
                          (lamplighter_chain(3, 2), range(3))):
        for level in levels:
            yield chain.levels[level]
    for cover in build_tower(preset("z2z2"), Fraction(1, 2), 1, scale=12, seed=0):
        yield cover_table(cover)


def test_subgroup_homology_matches_rewrite():
    # The Fox matrix of the cover against the Reidemeister-Schreier
    # presentation: beta1 and b_{1,p} must agree.  The rewritten
    # generators number the Schreier count, the bound a level reports when
    # rewriting trips the relator cap.
    count = 0
    for table in homology_corpus():
        rewritten = rewrite_presentation(table)
        report = subgroup_homology(table)
        assert report == homology_report(rewritten), (table.pres, table.index)
        assert rewritten.rank == 1 + table.index * (table.pres.rank - 1)
        count += 1
    assert count == 1 + 5511 + 8 + 3 + 2


def full_edge_row(table, c, word):
    """The loop of a word at coset c as a 1-cycle on all index * rank edges
    of the cover graph: column d * rank + g - 1 holds the signed count of
    crossings of the edge d -g-> d.g."""
    rank = table.pres.rank
    counts = {}
    d = c
    for letter in word:
        if letter > 0:
            col = d * rank + letter - 1
            counts[col] = counts.get(col, 0) + 1
            d = table.perms[letter - 1][d]
        else:
            d = table.letter_perm(letter)[d]
            col = d * rank - letter - 1
            counts[col] = counts.get(col, 0) - 1
    assert d == c, "word trace did not close"
    return sorted((j, v) for j, v in counts.items() if v)


def full_edge_matrix(table, loops=()):
    """The Fox matrix of the cover on every edge, then one row per loop word
    at coset 0, and its index * rank columns; the cokernel of the relator
    rows is H1(H) + Z^(index - 1)."""
    rows = [full_edge_row(table, c, relator)
            for c in range(table.index) for relator in table.pres.relators]
    rows += [full_edge_row(table, 0, loop) for loop in loops]
    return rows, table.index * table.pres.rank


# ---------------------------------------------------------------------------
# Stallings folding: the exact-rank and index oracle inside free groups
# ---------------------------------------------------------------------------


@dataclass
class FoldedGraph:
    """Fully folded labeled graph of a finitely generated free subgroup."""

    rank: int  # ambient free rank
    adjacency: dict  # vertex -> {letter: vertex}, letters are signed
    base: int

    @property
    def num_vertices(self):
        return len(self.adjacency)

    @property
    def num_edges(self):
        return sum(1 for nbrs in self.adjacency.values() for letter in nbrs if letter > 0)

    @property
    def cycle_rank(self):
        return self.num_edges - self.num_vertices + 1

    def is_complete_cover(self):
        return all(len(nbrs) == 2 * self.rank for nbrs in self.adjacency.values())


def fold_subgroup_graph(rank: int, spec: SubgroupSpec) -> FoldedGraph:
    """Fold the wedge of generator paths of a free-group subgroup."""
    if spec.normal:
        raise ValueError("folding applies to plain subgroups, not normal closures")
    parent = {0: 0}
    adj = {0: {}}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    pending = []

    def union(a, b):
        a, b = find(a), find(b)
        if a == b:
            return
        if len(adj[a]) < len(adj[b]):
            a, b = b, a
        parent[b] = a
        edges = adj.pop(b)
        for letter, tgt in edges.items():
            _connect(a, letter, tgt)

    def _connect(u, letter, v):
        u = find(u)
        existing = adj[u].get(letter)
        if existing is None:
            adj[u][letter] = v
        elif find(existing) != find(v):
            pending.append((existing, v))

    def add_edge(u, letter, v):
        _connect(u, letter, v)
        _connect(v, -letter, u)
        while pending:
            union(*pending.pop())

    fresh = 1
    for word in spec.generators:
        here = 0
        for letter in free_reduce(word):
            parent[fresh] = fresh
            adj[fresh] = {}
            add_edge(here, letter, fresh)
            here = find(fresh)
            fresh += 1
        # close the loop at the base
        here = find(here)
        base = find(0)
        if here != base:
            union(here, base)
            while pending:
                union(*pending.pop())

    # Compress all edge targets to representatives.
    graph = {}
    for v in list(adj):
        rv = find(v)
        if rv != v:
            continue
        graph[v] = {letter: find(t) for letter, t in adj[v].items()}
    return FoldedGraph(rank=rank, adjacency=graph, base=find(0))


def stallings_fold(rank: int, spec: SubgroupSpec):
    """(subgroup rank, index) of a f.g. subgroup of a free group.

    index is the vertex count of the folded graph when it is a complete
    cover, or None when the index is infinite.
    """
    graph = fold_subgroup_graph(rank, spec)
    index = graph.num_vertices if graph.is_complete_cover() else None
    return graph.cycle_rank, index


def test_subgroup_homology_matches_full_edge_matrix():
    # The cycle space of the cover graph has index * rank - index + 1
    # generators; the Fox matrix on every edge presents H1(H) on them.
    count = 0
    for table in homology_corpus():
        rows, cols = full_edge_matrix(table)
        want = report_from_matrix(rows, cols - table.index + 1)
        assert subgroup_homology(table) == want, (table.pres, table.index)
        count += 1
    assert count == 1 + 5511 + 8 + 3 + 2


def orbit_starts(table, u):
    """The least coset of each orbit of u's permutation, ascending."""
    perm = table.word_perm(u)
    seen, starts = set(), []
    for c in range(table.index):
        if c not in seen:
            starts.append(c)
            while c not in seen:
                seen.add(c)
                c = perm[c]
    return starts


# Z/4 x Z/5 x Z/3: three power relators and three commutators.  Over <a^2>
# the orbits of a have 2 cosets, so a^4 runs twice round each.
@pytest.mark.parametrize("sub,index,rows", [
    ("", 60, 60 // 4 + 60 // 5 + 60 // 3 + 3 * 60),
    ("a^2", 30, 30 // 2 + 30 // 5 + 30 // 3 + 3 * 30),
])
def test_schreier_words_walk_a_power_relator_once_per_orbit(sub, index, rows):
    pres, spec = parsed(
        "gens a b c\nrel a^4\nrel b^5\nrel c^3\n"
        "rel a b a^-1 b^-1\nrel a c a^-1 c^-1\nrel b c b^-1 c^-1\n"
        + (f"sub H {sub}\n" if sub else "")
    )
    table = enumerate_cosets(pres, spec)
    assert table.index == index
    total = 0
    for relator in pres.relators:
        alone = CosetTable(Presentation(pres.generators, (relator,)), table.perms)
        cosets = [c for c, _ in subgroups._schreier_words(alone)]
        u, e = primitive_root(relator)
        if e > 1:
            assert cosets == orbit_starts(table, u)
        else:
            assert cosets == list(range(index))
        total += len(cosets)
    assert total == rows
    assert len(subgroups.subgroup_abelianized_matrix(table)[0]) == rows
    assert len(rewrite_presentation(table).relators) <= rows


def power_relator_covers():
    """Coset tables over groups with proper-power relators: the s3
    mu = 3/4 depth-3 tower levels, a z2z2 mu = 1/2 depth-1 tower and the
    lamplighter W3 chain levels."""
    for group, mu, depth in (("s3", Fraction(3, 4), 3), ("z2z2", Fraction(1, 2), 1)):
        for cover in build_tower(preset(group), mu, depth, scale=12, seed=0):
            yield cover_table(cover)
    yield from lamplighter_chain(3, 2).levels


def test_orbit_walk_matches_full_edge_matrix():
    # The full-edge oracle walks every relator at every coset; the walker
    # walks a power relator once per orbit of its root, with fewer rows.
    count = walked = full = 0
    for table in power_relator_covers():
        rows, cols = full_edge_matrix(table)
        want = report_from_matrix(rows, cols - table.index + 1)
        assert subgroup_homology(table) == want, (table.pres, table.index)
        assert homology_report(rewrite_presentation(table)) == want
        walked += len(subgroups.subgroup_abelianized_matrix(table)[0])
        full += len(rows)
        count += 1
    assert count == 4 + 2 + 3
    assert walked < full


def test_relator_free_homology_numbers_no_cotree(monkeypatch):
    # with no relator and no loop there is no word to walk; a loop word still
    # needs the numbering
    pres, spec = parsed("gens a b\nsub K a, b^2, b a b^-1\n")
    table = enumerate_cosets(pres, spec)
    calls = []
    cotree_pairs = subgroups.cotree_pairs
    monkeypatch.setattr(
        subgroups, "cotree_pairs", lambda t: calls.append(1) or cotree_pairs(t)
    )
    rows, cols = full_edge_matrix(table)
    assert subgroup_homology(table) == report_from_matrix(rows, cols - table.index + 1)
    assert table.index == 2 and calls == []
    subgroups.subgroup_abelianized_matrix(table, [(1, 1)])
    assert calls == [1]


def test_tietze_removes_redundant_generators():
    # <x, y | x y^-1> is Z
    pres, _ = parsed("gens x y\nrel x y^-1\n")
    simplified = tietze_simplify(pres)
    assert simplified.rank == 1
    assert simplified.relators == ()


def test_rank_bounds_sandwich():
    pres, spec = parsed(
        "gens a b\nrel a^3\nrel b^2\nrel a b a b\nsub H b\n"
    )
    table = enumerate_cosets(pres, spec)
    lower, upper = rank_bounds(table, subgroup_homology(table))
    assert lower <= upper
    assert lower >= 1  # <a> in the subgroup maps onto Z/3


# Reference Tietze loop: tietze_simplify as it stood before the incremental
# loop, which renumbered and re-keyed every relator after every step.  At
# effort 1 it eliminates generators, as tietze_simplify does; effort 2 adds
# greedy substitution of long pieces of relators of at most SHORTEN_LIMIT
# letters into others, searched in each relator separately (Havas, Kenne,
# Richardson and Robertson, A Tietze transformation program, 1984), and is
# the rank oracle: elimination alone must reach the same rank.  It reads
# the other limits from the subgroups module, so a test may lower them for
# both sides at once.

SHORTEN_LIMIT = 200


def _ref_encode(word, offset):
    return "".join([chr(letter + offset) for letter in word])


def _ref_shorten_by(ri, relators, codes, offset):
    r = relators[ri]
    n = len(r)
    doubled = [(base + base, _ref_encode(base + base, offset)) for base in (r, invert(r))]
    for length in range(n - 1, n // 2, -1):
        for word, code in doubled:
            for i in range(n):
                piece = code[i : i + length]
                for rj, s in enumerate(relators):
                    if rj == ri:
                        continue
                    k = codes[rj].find(piece)
                    if k != -1:
                        complement = invert(word[i + length : i + n])
                        return rj, cyclic_reduce(s[:k] + complement + s[k + length :])
    return None


def _ref_substitute(word, target, replacement):
    out = []
    inv_rep = invert(replacement)
    for letter in word:
        if letter == target:
            out.extend(replacement)
        elif letter == -target:
            out.extend(inv_rep)
        else:
            out.append(letter)
    return free_reduce(out)


def _ref_renumber(words, removed_letter):
    def remap(letter):
        g = abs(letter)
        shifted = g - 1 if g > removed_letter else g
        return shifted if letter > 0 else -shifted

    return [tuple(remap(x) for x in w) for w in words]


def _ref_clean(relators):
    seen = set()
    out = []
    for r in sorted((cyclic_reduce(r) for r in relators), key=lambda w: (len(w), w)):
        if not r:
            continue
        key = _canonical_relator_key(r)
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out


def _ref_eliminate_once(relators, names):
    for ri, r in enumerate(relators):
        counts = {}
        for letter in r:
            counts[abs(letter)] = counts.get(abs(letter), 0) + 1
        for g in sorted(counts):
            if counts[g] != 1:
                continue
            pos = next(i for i, letter in enumerate(r) if abs(letter) == g)
            if r[pos] < 0:
                r = invert(r)
                pos = len(r) - 1 - pos
            u, v = r[:pos], r[pos + 1 :]
            replacement = free_reduce(invert(u) + invert(v))
            new_relators = []
            ok = True
            for rj, s in enumerate(relators):
                if rj == ri:
                    continue
                s2 = _ref_substitute(s, g, replacement)
                if len(s2) > subgroups.DEFAULT_RELATOR_CAP:
                    ok = False
                    break
                new_relators.append(s2)
            if not ok:
                continue
            del names[g - 1]
            relators[:] = _ref_renumber(new_relators, g)
            return True
    return False


def _ref_shorten_once(relators, offset):
    codes = [_ref_encode(s, offset) for s in relators]
    for ri, r in enumerate(relators):
        if len(r) < 2 or len(r) > SHORTEN_LIMIT:
            continue
        found = _ref_shorten_by(ri, relators, codes, offset)
        if found is not None:
            rj, s2 = found
            relators[rj] = s2
            return True
    return False


def reference_tietze(pres, effort):
    names = list(pres.generators)
    offset = len(names)
    relators = _ref_clean(pres.relators)
    for _ in range(subgroups.TIETZE_PASSES):
        if _ref_eliminate_once(relators, names) or (
            effort >= 2 and _ref_shorten_once(relators, offset)
        ):
            relators = _ref_clean(relators)
        else:
            break
    return Presentation(generators=tuple(names), relators=tuple(relators))


def once_occurring(pres):
    """Generators occurring exactly once in some relator of pres."""
    return {g for r in pres.relators for g, c in Counter(map(abs, r)).items() if c == 1}


def note_parts(note):
    """(whether it names a stop at the step limit, refused eliminations) of
    a Tietze note; (False, 0) for no note."""
    if note is None:
        return False, 0
    assert note.startswith("Tietze "), note
    parts = note.removeprefix("Tietze ").split(" and ")
    limit = parts[0] == f"stopped at its {subgroups.TIETZE_PASSES}-step limit"
    parts = parts[limit:]
    if not parts:
        return limit, 0
    (part,) = parts
    match = re.fullmatch(
        rf"refused (\d+) elimination(s?) at relator cap {subgroups.DEFAULT_RELATOR_CAP}", part
    )
    assert match, note
    count = int(match.group(1))
    assert count >= 1 and (match.group(2) == "s") == (count > 1), note
    return limit, count


def refused_count(note):
    """The elimination count of a Tietze note that names no step limit."""
    limit, count = note_parts(note)
    assert not limit, note
    return count


def reference_at_limit(pres, effort, passes):
    """The reference loop with at most ``passes`` steps."""
    with mock.patch.object(subgroups, "TIETZE_PASSES", passes):
        return reference_tietze(pres, effort)


def assert_matches_reference(pres):
    simplified = tietze_simplify(pres)
    assert simplified == reference_tietze(pres, 1), pres
    assert simplified.rank == reference_tietze(pres, 2).rank, pres
    if simplified.note is None:
        assert not once_occurring(simplified)


@pytest.mark.parametrize("levels", [range(1, 9), range(9, 13), range(13, 17)])
def test_tietze_matches_reference_on_fig8(levels):
    chain = hnn_chain(preset("fig8"), "t", max(levels))
    for n in levels:
        assert_matches_reference(rewrite_presentation(chain.levels[n]))


def tower_rewrites():
    for group, mu in (("z2z2", Fraction(1, 2)), ("s3", Fraction(3, 4))):
        for cover in build_tower(preset(group), mu, 1, scale=12, seed=0):
            yield rewrite_presentation(cover_table(cover))


def test_tietze_matches_reference_on_tower_rewrites():
    for pres in tower_rewrites():
        assert_matches_reference(pres)


@pytest.mark.parametrize(
    "name,max_index", [("fig8", 4), ("surface2", 3), ("s3", 6), ("z2z2", 4), ("lamplighter2", 4)]
)
def test_tietze_matches_reference_on_low_index_subgroups(name, max_index):
    tables = every_subgroup(preset(name), max_index)
    assert tables
    for table in tables:
        assert_matches_reference(rewrite_presentation(table))


def test_tietze_over_cap_relator_blocks_only_what_it_does_not_contain():
    big = (1, 2) * 5001  # (a b)^5001, 10002 letters
    # b a solves a = b^-1, which empties the big relator: allowed
    pres = Presentation(generators=("a", "b", "c"), relators=(big, (2, 1), (3, 3)))
    assert_matches_reference(pres)
    simplified = tietze_simplify(pres)
    assert simplified.generators == ("b", "c")
    assert simplified.note is None
    # c d^-1 could eliminate c or d, but the big relator holds neither
    pres = Presentation(generators=("a", "b", "c", "d"), relators=(big, (3, -4)))
    assert_matches_reference(pres)
    simplified = tietze_simplify(pres)
    assert simplified.rank == 4
    assert simplified.note == "Tietze refused 2 eliminations at relator cap 10000"
    assert len(once_occurring(simplified)) == 2


def test_tietze_names_its_step_limit(monkeypatch):
    pres = rewrite_presentation(hnn_chain(preset("fig8"), "t", 6).levels[6])
    monkeypatch.setattr(subgroups, "TIETZE_PASSES", 3)
    assert_matches_reference(pres)
    simplified = tietze_simplify(pres)
    assert simplified.rank == pres.rank - 3
    assert simplified.note == "Tietze stopped at its 3-step limit"


def test_tietze_names_the_step_limit_only_when_a_step_is_left():
    pres = rewrite_presentation(hnn_chain(preset("fig8"), "t", 6).levels[6])
    final = reference_tietze(pres, 1)
    # the fewest steps that reach the final presentation
    steps = next(k for k in range(1, 200) if reference_at_limit(pres, 1, k) == final)
    with mock.patch.object(subgroups, "TIETZE_PASSES", steps):
        simplified = tietze_simplify(pres)
        assert simplified == final
        assert simplified.note is None
    with mock.patch.object(subgroups, "TIETZE_PASSES", steps - 1):
        simplified = tietze_simplify(pres)
        assert simplified == reference_tietze(pres, 1) != final
        assert simplified.note == f"Tietze stopped at its {steps - 1}-step limit"


def test_tietze_names_refusals_with_the_step_limit(monkeypatch):
    big = (1, 2) * 5001  # (a b)^5001, 10002 letters
    # a c: a = c^-1 leaves the big relator over the cap, and it holds no c,
    # so both are refused before b a eliminates a, which empties it
    pres = Presentation(generators=("a", "b", "c"), relators=(big, (2, 1), (1, 3)))
    monkeypatch.setattr(subgroups, "TIETZE_PASSES", 0)
    assert_matches_reference(pres)
    simplified = tietze_simplify(pres)
    assert simplified.rank == 3
    assert simplified.note == (
        "Tietze stopped at its 0-step limit and refused 2 eliminations at relator cap 10000"
    )
    monkeypatch.setattr(subgroups, "TIETZE_PASSES", 1)
    assert tietze_simplify(pres).generators == ("b", "c")


def test_tietze_notes_pinned_at_fig8_depth_24():
    chain = hnn_chain(preset("fig8"), "t", 24)
    report = gradient_sequence(chain)
    notes = [st.note and st.note.split(" (")[0] for st in report.levels]
    counts = [refused_count(note) for note in notes]
    assert counts == [0] * 17 + [1, 1, 2, 2, 2, 2, 3, 3]
    # independently: the generators that still occur once in a relator
    for n in range(17, 25):
        simplified = tietze_simplify(rewrite_presentation(chain.levels[n]))
        assert len(once_occurring(simplified)) == counts[n]
        # the spec words still bound rank_upper, and the note says so
        assert report.levels[n].rank_upper == 3 < simplified.rank
        assert report.levels[n].note == (
            f"{notes[n]} (its bound is {simplified.rank}; rank_upper 3 "
            "comes from the spec words and is unaffected)"
        )


# Oracle for the Tietze relator key: the plain slicing version.


def rotation_key(w):
    return min(u[i:] + u[:i] for u in (w, invert(w)) for i in range(max(len(u), 1)))


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
def capped_joins(draw):
    """Freely reduced chunks, some starting with the inverse of the end of
    the chunk before so that letters cancel across joins, the free
    reduction of their concatenation, and a cap around its length."""
    rank = draw(st.integers(1, 3))
    chunks = []
    for _ in range(draw(st.integers(0, 5))):
        w = draw(words(rank))
        if chunks and draw(st.booleans()):
            last = chunks[-1]
            w = invert(last[len(last) - draw(st.integers(0, len(last))):]) + w
        chunks.append(free_reduce(w))
    joined = free_reduce(tuple(x for w in chunks for x in w))
    return chunks, joined, max(len(joined) + draw(st.integers(-3, 3)), 0)


@seed(20070111)
@given(capped_joins())
@settings(max_examples=500, deadline=None)
def test_capped_join_refuses_exactly_past_the_cap(data):
    chunks, joined, cap = data
    expected = None if len(joined) > cap else joined
    assert _join_reduced(chunks, cap) == expected


@st.composite
def relator_lists(draw):
    rank = draw(st.integers(1, 3))
    relators = draw(st.lists(words(rank, 8).map(cyclic_reduce), min_size=1, max_size=4))
    # Plant long pieces of some relator (or of its inverse) in new relators
    # so that relators share long subwords.
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.sampled_from(relators))
        base = draw(st.sampled_from((r, invert(r))))
        i = draw(st.integers(0, max(len(base) - 1, 0)))
        piece = (base[i:] + base[:i])[: draw(st.integers(0, len(base)))]
        relators.append(cyclic_reduce(draw(words(rank, 4)) + piece + draw(words(rank, 4))))
    return rank, relators


@st.composite
def tietze_inputs(draw):
    """Relator lists with planted rotations, inverses and pieces of other
    relators, and small caps and limits so that refusals and the step limit
    come up."""
    rank, relators = draw(relator_lists())
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.sampled_from(relators))
        base = draw(st.sampled_from((r, invert(r))))
        i = draw(st.integers(0, max(len(base) - 1, 0)))
        relators.append(base[i:] + base[:i])
    relators = draw(st.permutations(relators))
    pres = Presentation(generators=tuple(f"x{i}" for i in range(rank)), relators=tuple(relators))
    limits = {
        "DEFAULT_RELATOR_CAP": draw(st.sampled_from((4, 8, 16, 10_000))),
        "TIETZE_PASSES": draw(st.sampled_from((1, 2, 200))),
    }
    return pres, limits


@given(tietze_inputs())
@settings(max_examples=400, deadline=None)
def test_tietze_matches_reference_on_planted_relators(data):
    pres, limits = data
    with mock.patch.multiple(subgroups, **limits):
        simplified = tietze_simplify(pres)
        assert simplified == reference_tietze(pres, 1), (pres, limits)
        # the limit is named exactly when one more step changes the result
        limit, count = note_parts(simplified.note)
        passes = limits["TIETZE_PASSES"]
        assert limit == (reference_at_limit(pres, 1, passes + 1) != simplified)
        if limit:
            assert count <= len(once_occurring(simplified))
        else:
            assert count == len(once_occurring(simplified))


def cleaning_after_every_pass(pres):
    """Reference Tietze loop that cleans the relators after every pass, even
    one that changed nothing."""
    names = list(pres.generators)
    relators = _ref_clean(pres.relators)
    for _ in range(200):
        progress = _ref_eliminate_once(relators, names)
        relators = _ref_clean(relators)
        if not progress:
            break
    return Presentation(generators=tuple(names), relators=tuple(relators))


def test_tietze_cleans_only_after_a_change(monkeypatch):
    chain = hnn_chain(preset("fig8"), "t", 12)
    corpus = [rewrite_presentation(chain.levels[n]) for n in range(1, 13)]
    corpus += tower_rewrites()
    for pres in corpus:
        assert tietze_simplify(pres) == cleaning_after_every_pass(pres)
    cleans = []
    clean = subgroups._clean
    monkeypatch.setattr(subgroups, "_clean", lambda rels: cleans.append(1) or clean(rels))
    simplified = tietze_simplify(corpus[-1])
    # once on the input, then once per elimination
    assert len(cleans) == 1 + corpus[-1].rank - simplified.rank
