import random
from importlib import resources
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rankgradient import chains, cosets
from rankgradient.chains import farber_chain
from rankgradient.cli import PRESET_NAMES
from rankgradient.cosets import (
    DEFAULT_COSET_CAP,
    DEFAULT_NODE_CAP,
    CosetTable,
    _hlt,
    _search_index,
    canonicalize,
    contains,
    enumerate_cosets,
    intersect,
    is_normal,
    low_index,
    normal_core,
    schreier_generators,
    schreier_transversal,
    subgroups_of_index,
    validate,
    with_schreier_spec,
)
from rankgradient.errors import IndexBoundExceeded, LowIndexBudget
from rankgradient.words import SubgroupSpec, free_reduce, invert, parse_presentation


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


S3 = "gens a b\nrel a^3\nrel b^2\nrel a b a b\n"
Z2Z2 = "gens a b\nrel a^2\nrel b^2\nrel a b a^-1 b^-1\n"
SURFACE2 = "gens a b c d\nrel a b a^-1 b^-1 c d c^-1 d^-1\n"


def every_subgroup(pres, n_max):
    """The table of every subgroup of index <= n_max, ascending index, then
    lexicographic table (what ``low_index`` listed before it went by
    conjugacy class)."""
    return [t for k in range(1, n_max + 1) for t in subgroups_of_index(pres, k)]


def class_counts(classes):
    """Subgroups per index, summed over (table, class size) pairs."""
    counts = {}
    for table, size in classes:
        counts[table.index] = counts.get(table.index, 0) + size
    return counts


def hall_counts(rank, n_max):
    """Subgroups of index n in a free group of rank r, by Hall's recursion."""
    a = {1: 1}
    for n in range(2, n_max + 1):
        total = n * factorial(n) ** (rank - 1)
        for k in range(1, n):
            total -= factorial(n - k) ** (rank - 1) * a[k]
        a[n] = total
    return a


def hall_recursion(homs, n_max):
    """Subgroups of index n = 1 .. n_max in a group G, from t_n = |Hom(G, S_n)|
    by Hall's relation n h_n = sum_{k=1..n} a_k h_{n-k}, h_n = t_n / n!."""
    h = {0: 1}
    a = {}
    for n in range(1, n_max + 1):
        h[n] = homs(n) // factorial(n)
        assert h[n] * factorial(n) == homs(n)
        a[n] = n * h[n] - sum(a[k] * h[n - k] for k in range(1, n))
    return a


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def hook_dimension(shape):
    """f_lambda, the degree of the irreducible character of S_n for the
    partition shape, by the hook length formula."""
    columns = [sum(1 for row in shape if row > c) for c in range(shape[0])]
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            hooks *= (row - c) + (columns[c] - r) - 1
    return factorial(sum(shape)) // hooks


def mednykh_counts(genus, n_max):
    """Subgroups of index n in the genus-g surface group: Mednykh's
    |Hom(pi_1 S_g, S_n)| = n! sum_lambda (n! / f_lambda)^(2g - 2), then
    Hall's recursion."""

    def homs(n):
        return factorial(n) * sum(
            (factorial(n) // hook_dimension(shape)) ** (2 * genus - 2)
            for shape in partitions(n)
        )

    return hall_recursion(homs, n_max)


def test_enumerate_s3_regular():
    pres, _ = parsed(S3)
    table = enumerate_cosets(pres)
    assert table.index == 6
    assert validate(table) == []


def test_enumerate_subgroup_index():
    pres, spec = parsed(S3 + "sub H b\n")
    table = enumerate_cosets(pres, spec)
    assert table.index == 3
    assert table.fixes_base((2,))
    assert not table.fixes_base((1,))


def test_enumerate_normal_closure():
    pres, spec = parsed("gens a b\nsub K normal a^2, b^2, a b a^-1 b^-1\n")
    table = enumerate_cosets(pres, spec)
    assert table.index == 4  # kernel onto (Z/2)^2
    assert is_normal(table)


def test_enumerate_cap():
    pres, _ = parsed("gens a b\n")
    with pytest.raises(IndexBoundExceeded):
        enumerate_cosets(pres, cap=10)


def test_hall_counts_oracle_f2():
    assert hall_counts(2, 5) == {1: 1, 2: 3, 3: 13, 4: 71, 5: 461}


def test_mednykh_counts_oracle():
    # sum_lambda f_lambda^2 = n!, and genus 1 (Z^2) has sigma_1(n) subgroups
    for n in range(1, 8):
        assert sum(hook_dimension(shape) ** 2 for shape in partitions(n)) == factorial(n)
    assert mednykh_counts(1, 6) == {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12}
    assert mednykh_counts(2, 6) == {1: 1, 2: 15, 3: 220, 4: 5275, 5: 151086, 6: 6605004}
    # the same recursion from |Hom(F_2, S_n)| = (n!)^2 is Hall's count for F_2
    assert hall_recursion(lambda n: factorial(n) ** 2, 5) == hall_counts(2, 5)


def test_low_index_matches_mednykh_on_surface2():
    pres, _ = preset("surface2")
    classes = low_index(pres, 4)
    counts = class_counts(classes)
    assert counts == {n: mednykh_counts(2, 4)[n] for n in range(1, 5)}
    assert counts == {1: 1, 2: 15, 3: 220, 4: 5275}
    assert len(classes) == 1731


@pytest.mark.parametrize("rank,n_max", [(2, 4), (3, 3)])
def test_low_index_matches_hall(rank, n_max):
    pres, _ = parsed("gens " + " ".join("abc"[:rank]) + "\n")
    oracle = hall_counts(rank, n_max)
    assert class_counts(low_index(pres, n_max)) == {n: oracle[n] for n in range(1, n_max + 1)}


def test_validate_relator_problems_match_the_letter_by_letter_action():
    # validate raises a power relator u^e to e by squaring u's permutation;
    # the reference composes all e * |u| letter permutations
    pres, _ = parsed(
        "gens a b\nrel a^6\nrel b^4\nrel a b a b a b\nrel a b^-1 a b^-1 a b^-1 a b^-1 a b^-1\n"
        "rel a^2 b^2\nrel a b a^-1 b^-1\n"
    )
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        table = CosetTable(pres, tuple(tuple(rng.sample(range(n), n)) for _ in "ab"))
        identity = tuple(range(n))
        want = [
            f"relator {i} does not act as the identity"
            for i, r in enumerate(pres.relators)
            if table.word_perm(r) != identity
        ]
        assert [p for p in validate(table) if p.startswith("relator")] == want
        seen.update(want)
    assert len(seen) == len(pres.relators)  # each relator fails on some table
    assert validate(enumerate_cosets(parsed(S3)[0])) == []


def test_low_index_deterministic_and_valid():
    pres, _ = parsed(S3)
    classes = low_index(pres, 4)
    again = low_index(pres, 4)
    assert [(t.perms, size) for t, size in classes] == [(t.perms, size) for t, size in again]
    for t in every_subgroup(pres, 4):
        assert validate(t) == []
        # the attached spec really is the stabilizer of coset 0
        check = enumerate_cosets(pres, with_schreier_spec(t).spec)
        assert check.index == t.index


def test_low_index_budget(monkeypatch):
    pres, _ = parsed("gens a b\n")
    monkeypatch.setattr(cosets, "DEFAULT_NODE_CAP", 100)
    with pytest.raises(LowIndexBudget) as exc:
        low_index(pres, 6)
    assert isinstance(exc.value.partial, list)
    assert exc.value.partial == low_index(pres, 3)  # indices 1 to 3 take 65 nodes


def test_schreier_transversal_prefix_closed():
    pres, spec = parsed("gens a b\nsub K normal a^2, b^2, a b a^-1 b^-1\n")
    table = enumerate_cosets(pres, spec)
    words, parent = schreier_transversal(table)
    for i, w in enumerate(words):
        assert table.apply(w) == i
        if i:
            pc, letter = parent[i]
            assert words[i] == words[pc] + (letter,)


def test_schreier_generators_fix_base():
    pres, _ = parsed(S3 + "sub H b\n")
    table = enumerate_cosets(pres, parsed(S3 + "sub H b\n")[1])
    gens = schreier_generators(table)
    # Nielsen-Schreier count for a rank-2 ambient at index 3
    assert len(gens) == 2 * 3 - (3 - 1)
    for w in gens:
        assert table.fixes_base(w)


def test_intersect():
    pres, _ = parsed("gens a b\n")
    # kernels of the two parity maps F2 -> Z/2
    ha = enumerate_cosets(pres, parsed("gens a b\nsub A a, b^2, b a b^-1\n")[1])
    hb = enumerate_cosets(pres, parsed("gens a b\nsub B b, a^2, a b a^-1\n")[1])
    meet = intersect(ha, hb)
    assert meet.index == 4
    for w in ((1, 1), (2, 2), (1, 2, -1, -2)):
        assert meet.fixes_base(free_reduce(w))


def test_intersect_is_canonical_as_built():
    for text, n_max in (("gens a b\n", 3), (SURFACE2, 2)):
        tables = every_subgroup(parsed(text)[0], n_max)
        for t1 in tables:
            for t2 in tables:
                meet = intersect(t1, t2)
                assert canonicalize(meet).perms == meet.perms


def reference_intersect(t1, t2):
    """``intersect`` keyed by pairs: the product action numbered through a
    dict of (a, b) tuples, then a second pass over the pairs for the
    permutations.  Kept as the oracle for the integer pair codes."""
    letters = cosets._letters(t1.pres.rank)
    start = (0, 0)
    number = {start: 0}
    order = [start]
    i = 0
    while i < len(order):
        a, b = order[i]
        i += 1
        for letter in letters:
            nxt = (t1.letter_perm(letter)[a], t2.letter_perm(letter)[b])
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
    perms = tuple(
        tuple(number[(t1.perms[g][a], t2.perms[g][b])] for a, b in order)
        for g in range(t1.pres.rank)
    )
    return CosetTable(pres=t1.pres, perms=perms)


def test_intersect_matches_pair_keyed_reference():
    for text, n_max in (("gens a b\n", 3), (SURFACE2, 2)):
        tables = every_subgroup(parsed(text)[0], n_max)
        for t1 in tables:
            for t2 in tables:
                assert intersect(t1, t2).perms == reference_intersect(t1, t2).perms


def test_intersect_matches_pair_keyed_reference_along_the_f2_chain(monkeypatch):
    meets = []  # (t1, t2, intersection) for each intersection the chain takes

    def recorded(t1, t2):
        meets.append((t1, t2, intersect(t1, t2)))
        return meets[-1][2]

    monkeypatch.setattr(chains, "intersect", recorded)
    pres, specs = preset("f2")
    chain = farber_chain(pres, specs[0], 4)
    # perfbench's f2_chain check compares both exactly
    assert chain.indices() == (1, 16, 16, 3888)
    assert chain.truncated == "stopped before level 4: intersection index 31104 exceeds cap 10000"
    assert [meet.index for _, _, meet in meets][-1] == 31104
    for t1, t2, meet in meets:
        assert meet.perms == reference_intersect(t1, t2).perms


def test_contains_agrees_with_schreier_membership():
    for text, n_max in (("gens a b\n", 4), (SURFACE2, 3)):
        tables = every_subgroup(parsed(text)[0], n_max)
        gens = [schreier_generators(t) for t in tables]
        for a in tables:
            for b, b_gens in zip(tables, gens):
                assert contains(a, b) == all(a.fixes_base(w) for w in b_gens)


def test_normal_core():
    pres, spec = parsed(S3 + "sub H b\n")
    table = enumerate_cosets(pres, spec)
    assert not is_normal(table)
    core = normal_core(table)
    assert core.index == 6  # <b> has trivial core in S3
    assert is_normal(core)


def test_normal_core_of_normal_subgroup_is_itself():
    pres, spec = parsed(S3 + "sub H a\n")
    table = enumerate_cosets(pres, spec)
    assert is_normal(table)
    assert normal_core(table).index == table.index


def test_is_normal_agrees_with_core_on_all_f2_subgroups_of_index_at_most_4():
    pres, _ = parsed("gens a b\n")
    tables = every_subgroup(pres, 4)
    assert len(tables) == 88
    verdicts = [is_normal(t) for t in tables]
    assert verdicts == [normal_core(t).index == t.index for t in tables]
    assert sum(verdicts) == 15
    # a normal subgroup is its own class: [N_G(H) : H] = index
    assert sorted(t.perms for t, size in low_index(pres, 4) if size == 1) == sorted(
        t.perms for t, normal in zip(tables, verdicts) if normal
    )


def test_word_perm_matches_apply():
    pres, spec = parsed(S3 + "sub H b\n")
    table = enumerate_cosets(pres, spec)
    w = (1, -2, 1)
    perm = table.word_perm(w)
    assert perm == tuple(table.apply(w, c) for c in range(table.index))


def test_canonicalize_idempotent():
    pres, _ = parsed(S3)
    table = enumerate_cosets(pres)
    assert canonicalize(table).perms == table.perms  # already canonical
    shuffled = with_schreier_spec(table)
    assert canonicalize(shuffled).perms == table.perms


words_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(bool), min_size=0, max_size=4
).map(free_reduce)


@settings(max_examples=30, deadline=None)
@given(st.lists(words_st, min_size=1, max_size=3))
def test_membership_closed_under_products(gen_words):
    pres, _ = parsed("gens a b\nrel a^4\nrel b^4\nrel a b a^-1 b^-1\n")
    spec = parse_presentation(
        "gens a b\nsub H " + ", ".join(pres.word_str(w) for w in gen_words) + "\n"
    )[1][0] if any(gen_words) else None
    table = enumerate_cosets(pres, spec, cap=100)
    for w in gen_words:
        assert table.fixes_base(w)
        assert table.fixes_base(invert(w))
    assert table.index * 1 <= 16
    assert validate(table) == []


# ---------------------------------------------------------------------------
# HLT against the object-per-coset reference
# ---------------------------------------------------------------------------


class ReferenceTC:
    """The HLT state that the flat table replaced: one list per coset with
    None holes, a method call per letter.  Kept verbatim as the oracle."""

    def __init__(self, rank, cap):
        self.rank = rank
        self.cap = cap
        self.table = [[None] * (2 * rank)]
        self.p = [0]  # union-find, representative is always the minimum
        self.alive = 1

    def col(self, letter):
        g = abs(letter) - 1
        return 2 * g if letter > 0 else 2 * g + 1

    def inv_col(self, col):
        return col ^ 1

    def rep(self, c):
        root = c
        while self.p[root] != root:
            root = self.p[root]
        while self.p[c] != root:
            self.p[c], c = root, self.p[c]
        return root

    def define(self, alpha, col):
        if self.alive >= self.cap:
            raise IndexBoundExceeded(self.cap)
        beta = len(self.table)
        self.table.append([None] * (2 * self.rank))
        self.p.append(beta)
        self.alive += 1
        self.table[alpha][col] = beta
        self.table[beta][self.inv_col(col)] = alpha
        return beta

    def coincidence(self, alpha, beta):
        queue = []

        def merge(a, b):
            a, b = self.rep(a), self.rep(b)
            if a != b:
                lo, hi = min(a, b), max(a, b)
                self.p[hi] = lo
                self.alive -= 1
                queue.append(hi)

        merge(alpha, beta)
        i = 0
        while i < len(queue):
            gamma = queue[i]
            i += 1
            for col in range(2 * self.rank):
                delta = self.table[gamma][col]
                if delta is None:
                    continue
                self.table[delta][self.inv_col(col)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][col] is not None:
                    merge(nu, self.table[mu][col])
                elif self.table[nu][self.inv_col(col)] is not None:
                    merge(mu, self.table[nu][self.inv_col(col)])
                else:
                    self.table[mu][col] = nu
                    self.table[nu][self.inv_col(col)] = mu

    def scan_and_fill(self, alpha, word):
        if not word:
            return
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and self.table[f][self.col(word[i])] is not None:
                f = self.table[f][self.col(word[i])]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][self.col(-word[j])] is not None:
                b = self.table[b][self.col(-word[j])]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][self.col(word[i])] = b
                self.table[b][self.col(-word[i])] = f
                return
            self.define(f, self.col(word[i]))

    def is_alive(self, c):
        return self.p[c] == c


def reference_hlt(rank, relators, point_words, cap):
    """(pre-canonical perms, cosets defined) by the reference HLT loop."""
    tc = ReferenceTC(rank, cap)
    for w in point_words:
        tc.scan_and_fill(0, w)
    alpha = 0
    while alpha < len(tc.table):
        if tc.is_alive(alpha):
            for w in relators:
                tc.scan_and_fill(alpha, w)
                if not tc.is_alive(alpha):
                    break
            if tc.is_alive(alpha):
                for col in range(2 * rank):
                    if tc.is_alive(alpha) and tc.table[alpha][col] is None:
                        tc.define(alpha, col)
        alpha += 1
    live = [c for c in range(len(tc.table)) if tc.is_alive(c)]
    number = {c: i for i, c in enumerate(live)}
    perms = tuple(
        tuple(number[tc.rep(tc.table[c][2 * g])] for c in live) for g in range(rank)
    )
    return perms, len(tc.table)


def hlt_outcome(hlt, pres, spec, cap=DEFAULT_COSET_CAP):
    """What an HLT routine makes of (pres, spec): its result, or the cap and
    text of the IndexBoundExceeded it raised."""
    relators = list(pres.relators)
    points = list(spec.generators) if spec is not None else []
    if spec is not None and spec.normal:
        relators, points = relators + points, []
    try:
        return hlt(pres.rank, relators, points, cap)
    except IndexBoundExceeded as exc:
        return ("cap", exc.cap, str(exc))


def assert_hlt_matches_reference(pres, spec, cap=DEFAULT_COSET_CAP):
    got = hlt_outcome(_hlt, pres, spec, cap)
    assert got == hlt_outcome(reference_hlt, pres, spec, cap)
    return got


def preset(name):
    return parse_presentation(
        resources.files("rankgradient.presets").joinpath(name + ".txt").read_text()
    )


def abelian(n1, n2, n3):
    return parse_presentation(
        f"gens a b c\nrel a^{n1}\nrel b^{n2}\nrel c^{n3}\n"
        "rel a b a^-1 b^-1\nrel a c a^-1 c^-1\nrel b c b^-1 c^-1\n"
        f"sub H a^{n1}\n"
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_hlt_matches_reference_on_every_preset(name):
    pres, specs = preset(name)
    for spec in (None, *specs):
        assert_hlt_matches_reference(pres, spec)


@pytest.mark.parametrize("factors", [(16, 25, 20), (17, 21, 22), (20, 20, 20)])
def test_hlt_matches_reference_on_large_abelian_groups(factors):
    pres, (spec,) = abelian(*factors)
    perms, defined = assert_hlt_matches_reference(pres, spec)
    assert len(perms[0]) == factors[0] * factors[1] * factors[2] < defined


def test_hlt_matches_reference_on_normal_closures():
    for text in (
        "gens a b\nsub K normal a^2, b^2, a b a^-1 b^-1\n",
        "gens a b\nsub K normal a^3, b^2, a b a b\n",
        "gens a b c\nsub K normal a^2, b^3, c^2, a b a^-1 b^-1, a c a^-1 c^-1\n",
        S3 + "sub N normal a\n",
        SURFACE2 + "sub N normal a, b, c^2, d^2\n",
    ):
        pres, (spec,) = parse_presentation(text)
        assert spec.normal
        assert_hlt_matches_reference(pres, spec)


def test_hlt_matches_reference_on_fig8_loop_images(monkeypatch):
    from rankgradient.graphings import to_labeled_graph
    from test_graphings import fig8_chain, tried_candidates

    chain = fig8_chain()
    # The loop subgroup of every connected candidate, whether or not the
    # homology screen spares it the enumeration.
    seen = []
    for m in tried_candidates(monkeypatch, chain, 3):
        loops, disconnected = to_labeled_graph(m)
        if not disconnected:
            seen.append(SubgroupSpec(generators=tuple(loops), name="loops"))
    assert len(seen) == 4
    outcomes = [assert_hlt_matches_reference(chain.ambient, spec) for spec in seen]
    trips = [o for o in outcomes if o[0] == "cap"]
    assert len(trips) == 3 and len(outcomes) > len(trips)


@pytest.mark.parametrize("text", [S3, Z2Z2, "gens a b c\nrel a^4\nrel b^5\nrel c^3\n"
                                  "rel a b a^-1 b^-1\nrel a c a^-1 c^-1\nrel b c b^-1 c^-1\n"])
def test_hlt_trips_every_small_cap_like_the_reference(text):
    pres, _ = parse_presentation(text)
    outcomes = [assert_hlt_matches_reference(pres, None, cap) for cap in range(1, 81)]
    first_ok = next(cap for cap, o in enumerate(outcomes, 1) if o[0] != "cap")
    for cap, o in enumerate(outcomes, 1):
        if cap < first_ok:
            assert o == ("cap", cap, str(IndexBoundExceeded(cap)))
    assert first_ok >= len(outcomes[-1][0][0])  # index n needs cap >= n


# ---------------------------------------------------------------------------
# Low-index search against the full relator rescan
# ---------------------------------------------------------------------------


def reference_search_index(pres, k, out, budget):
    """The search with every relator traced from every coset at every node."""
    rank = pres.rank
    relators = pres.relators
    fwd = [[None] * k for _ in range(rank)]
    bwd = [[None] * k for _ in range(rank)]
    slots = [(c, g) for c in range(k) for g in range(rank)]

    def relators_ok():
        for c in range(k):
            for w in relators:
                d = c
                for letter in w:
                    d = fwd[letter - 1][d] if letter > 0 else bwd[-letter - 1][d]
                    if d is None:
                        break
                else:
                    if d != c:
                        return False
        return True

    def extend(pos, used):
        budget[0] += 1
        if budget[0] > budget[1]:
            raise LowIndexBudget(budget[1], list(budget[2]))
        if pos == len(slots):
            if used == k and relators_ok():
                out.append(tuple(tuple(row) for row in fwd))
            return
        c, g = slots[pos]
        if c >= used:
            return
        if fwd[g][c] is not None:
            extend(pos + 1, used)
            return
        for d in range(min(used + 1, k)):
            if bwd[g][d] is not None:
                continue
            fwd[g][c] = d
            bwd[g][d] = c
            if relators_ok():
                extend(pos + 1, max(used, d + 1))
            fwd[g][c] = None
            bwd[g][d] = None

    extend(0, 1)


def slot_key(perms):
    """A table's entries in slot order (coset, then generator), the order
    in which the search fills them and compares numberings."""
    return tuple(p[c] for c in range(len(perms[0]) if perms else 1) for p in perms)


def assert_classes_expand_to(pres, k, classes, subgroups):
    """The class tables of index k, as _search_index left them, against
    the perms of every subgroup of index k from an oracle search."""
    # each class table is the least of its k renumberings, and its size
    # is k over the number of base cosets that give the table itself
    for perms, size in classes:
        renumbered = [cosets._renumbered(perms, b) for b in range(k)]
        assert slot_key(perms) == min(map(slot_key, renumbered))
        assert size * renumbered.count(perms) == k
    assert sum(size for _, size in classes) == len(subgroups)
    # expanded, the classes are the oracle's subgroups in the old order
    assert [t.perms for t in subgroups_of_index(pres, k)] == sorted(subgroups)


def assert_budget_trips(pres, nodes, node_caps, monkeypatch):
    """``low_index`` up to index len(nodes) under each node cap, where
    nodes[k - 1] is what the search of index k takes: it raises
    LowIndexBudget exactly below the total, with the classes of the indices
    it finished."""
    n_max = len(nodes)
    finished = low_index(pres, n_max)
    for node_cap in node_caps:
        monkeypatch.setattr(cosets, "DEFAULT_NODE_CAP", node_cap)
        done = 0  # indices searched within node_cap
        while done < n_max and sum(nodes[:done + 1]) <= node_cap:
            done += 1
        if done == n_max:
            assert low_index(pres, n_max) == finished
            continue
        with pytest.raises(LowIndexBudget) as exc:
            low_index(pres, n_max)
        partial = [pair for pair in finished if pair[0].index <= done]
        assert exc.value.partial == partial
        assert str(exc.value) == (
            f"low-index search exceeded {node_cap} nodes ({len(partial)} tables found)"
        )


LOW_INDEX_CASES = [("surface2", 3), ("fig8", 5), ("s3", 5), ("z2z2", 5), ("lamplighter2", 5)]
# nodes of the class search at index 1, 2, ... of each case
CLASS_SEARCH_NODES = {
    "surface2": [5, 91, 2056],
    "fig8": [4, 24, 125, 614, 3612],
    "s3": [3, 9, 22, 27, 32],
    "z2z2": [3, 13, 18, 24, 26],
    "lamplighter2": [3, 13, 24, 57, 84],
}
# the text at the last node cap that trips, one below the total
LAST_TRIP = {
    "surface2": "low-index search exceeded 2151 nodes (16 tables found)",
    "fig8": "low-index search exceeded 4378 nodes (5 tables found)",
    "s3": "low-index search exceeded 92 nodes (3 tables found)",
    "z2z2": "low-index search exceeded 83 nodes (5 tables found)",
    "lamplighter2": "low-index search exceeded 180 nodes (11 tables found)",
}


@pytest.mark.parametrize("name, n_max", LOW_INDEX_CASES)
def test_low_index_search_matches_full_rescan(name, n_max):
    pres, _ = preset(name)
    reference_total = 0
    for k in range(1, n_max + 1):
        classes, subgroups = [], []
        budget, reference_budget = [0, DEFAULT_NODE_CAP, []], [0, DEFAULT_NODE_CAP, []]
        _search_index(pres, k, classes, budget)
        reference_search_index(pres, k, subgroups, reference_budget)
        assert_classes_expand_to(pres, k, classes, subgroups)
        assert budget[0] == CLASS_SEARCH_NODES[name][k - 1]
        assert budget[0] <= reference_budget[0]  # no more nodes than the rescan
        reference_total += reference_budget[0]
    if name == "fig8":
        # Checking only the rotations that start at the new edge would not
        # do: a trace that does not close can have an undefined rotation.
        # That variant needs 14,945 nodes here, the full rescan 8,888.
        assert reference_total == 8888


@pytest.mark.parametrize("name, n_max", LOW_INDEX_CASES)
def test_low_index_budget_trips_like_full_rescan(name, n_max, monkeypatch):
    pres, _ = preset(name)
    nodes = CLASS_SEARCH_NODES[name]
    total = sum(nodes)
    node_caps = (1, 2, 5, 20, 100, 500, 2000, 5000, total - 1, total)
    assert_budget_trips(pres, nodes, node_caps, monkeypatch)
    monkeypatch.setattr(cosets, "DEFAULT_NODE_CAP", total - 1)
    with pytest.raises(LowIndexBudget) as exc:
        low_index(pres, n_max)
    assert str(exc.value) == LAST_TRIP[name]
    # the full rescan, which visits at least as many nodes per index,
    # trips at every cap the class search trips at
    for node_cap in [cap for cap in node_caps if cap < total]:
        budget = [0, node_cap, []]
        with pytest.raises(LowIndexBudget):
            for k in range(1, n_max + 1):
                reference_search_index(pres, k, [], budget)


def recursive_search_index(pres, k, out, budget):
    """The search as one recursive call per node, nesting k * rank deep."""
    rank = pres.rank
    act = [[None] * k for _ in range(2 * rank)]
    through = [[] for _ in range(rank)]
    for w in pres.relators:
        for i, letter in enumerate(w):
            through[abs(letter) - 1].append((
                letter > 0,
                [act[cosets._column(-x)] for x in reversed(w[:i])],
                [act[cosets._column(x)] for x in w[i + 1:]],
            ))
    slots = [(c, g) for c in range(k) for g in range(rank)]

    def edge_ok(g, c, d):
        for forward, back, ahead in through[g]:
            s, e = (c, d) if forward else (d, c)
            for r in back:
                if (s := r[s]) is None:
                    break
            else:
                for r in ahead:
                    if (e := r[e]) is None:
                        break
                else:
                    if e != s:
                        return False
        return True

    def extend(pos, used):
        budget[0] += 1
        if budget[0] > budget[1]:
            raise LowIndexBudget(budget[1], list(budget[2]))
        if pos == len(slots):
            if used == k:
                out.append(tuple(tuple(act[2 * g]) for g in range(rank)))
            return
        c, g = slots[pos]
        if c >= used:
            return
        fwd, bwd = act[2 * g], act[2 * g + 1]
        for d in range(min(used + 1, k)):
            if bwd[d] is not None:
                continue
            fwd[c] = d
            bwd[d] = c
            if edge_ok(g, c, d):
                extend(pos + 1, max(used, d + 1))
            fwd[c] = None
            bwd[d] = None

    extend(0, 1)


# nodes of the class search at index 1, 2, ... (surface2 at index 4 takes
# 67,976; the search that listed every subgroup took 135,447)
DEEPER_NODES = {
    "surface2": [5, 91, 2056, 67976],
    "fig8": [4, 24, 125, 614, 3612, 26106],
    "f2": [3, 13, 49, 195, 907],
}


@pytest.mark.parametrize("name, n_max", [("surface2", 4), ("fig8", 6), ("f2", 5)])
def test_low_index_loop_matches_recursive_search(name, n_max, monkeypatch):
    pres, _ = preset(name)
    for k in range(1, n_max + 1):
        classes, subgroups = [], []
        budget, recursive_budget = [0, DEFAULT_NODE_CAP, []], [0, DEFAULT_NODE_CAP, []]
        _search_index(pres, k, classes, budget)
        recursive_search_index(pres, k, subgroups, recursive_budget)
        assert_classes_expand_to(pres, k, classes, subgroups)
        assert budget[0] == DEEPER_NODES[name][k - 1]
        assert budget[0] <= recursive_budget[0]
    node_caps = (1, 2, 3, 7, 50, 333, 1000, 4000, 20000, 60000, 200000)
    assert_budget_trips(pres, DEEPER_NODES[name], node_caps, monkeypatch)


def test_low_index_search_needs_no_recursion_depth():
    # Index 300 of Z has 300 slots, one recursive call deep each; the
    # search must run with only 200 frames to spare.
    import inspect
    import sys

    pres, _ = parsed("gens a\n")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        out = []
        _search_index(pres, 300, out, [0, DEFAULT_NODE_CAP, []])
    finally:
        sys.setrecursionlimit(limit)
    assert out == [((tuple(range(1, 300)) + (0,),), 1)]  # normal: a class of 1
