from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rankgradient.cosets import (
    canonicalize,
    contains,
    enumerate_cosets,
    intersect,
    is_normal,
    low_index,
    normal_core,
    schreier_generators,
    schreier_transversal,
    validate,
    with_schreier_spec,
)
from rankgradient.errors import IndexBoundExceeded, LowIndexBudget
from rankgradient.words import free_reduce, invert, parse_presentation


def parsed(text):
    pres, specs = parse_presentation(text)
    return pres, (specs[0] if specs else None)


S3 = "gens a b\nrel a^3\nrel b^2\nrel a b a b\n"
Z2Z2 = "gens a b\nrel a^2\nrel b^2\nrel a b a^-1 b^-1\n"
SURFACE2 = "gens a b c d\nrel a b a^-1 b^-1 c d c^-1 d^-1\n"


def hall_counts(rank, n_max):
    """Subgroups of index n in a free group of rank r, by Hall's recursion."""
    a = {1: 1}
    for n in range(2, n_max + 1):
        total = n * factorial(n) ** (rank - 1)
        for k in range(1, n):
            total -= factorial(n - k) ** (rank - 1) * a[k]
        a[n] = total
    return a


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


@pytest.mark.parametrize("rank,n_max", [(2, 4), (3, 3)])
def test_low_index_matches_hall(rank, n_max):
    pres, _ = parsed("gens " + " ".join("abc"[:rank]) + "\n")
    tables = low_index(pres, n_max)
    counts = {}
    for t in tables:
        counts[t.index] = counts.get(t.index, 0) + 1
    oracle = hall_counts(rank, n_max)
    assert counts == {n: oracle[n] for n in range(1, n_max + 1)}


def test_low_index_deterministic_and_valid():
    pres, _ = parsed(S3)
    tables = low_index(pres, 4)
    again = low_index(pres, 4)
    assert [t.perms for t in tables] == [t.perms for t in again]
    for t in tables:
        assert validate(t) == []
        # the attached spec really is the stabilizer of coset 0
        check = enumerate_cosets(pres, with_schreier_spec(t).spec)
        assert check.index == t.index


def test_low_index_budget():
    pres, _ = parsed("gens a b\n")
    with pytest.raises(LowIndexBudget) as exc:
        low_index(pres, 6, node_cap=100)
    assert isinstance(exc.value.partial, list)


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
        tables = low_index(parsed(text)[0], n_max)
        for t1 in tables:
            for t2 in tables:
                meet = intersect(t1, t2)
                assert canonicalize(meet).perms == meet.perms


def test_contains_agrees_with_schreier_membership():
    for text, n_max in (("gens a b\n", 4), (SURFACE2, 3)):
        tables = low_index(parsed(text)[0], n_max)
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
    tables = low_index(pres, 4)
    assert len(tables) == 88
    verdicts = [is_normal(t) for t in tables]
    assert verdicts == [normal_core(t).index == t.index for t in tables]
    assert sum(verdicts) == 15


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
