import pytest
from hypothesis import given, strategies as st

from rankgradient.words import (
    RESERVED_NAMES,
    ParseError,
    Presentation,
    SubgroupSpec,
    concat,
    csv_table,
    cyclic_reduce,
    free_reduce,
    invert,
    max_generator,
    parse_presentation,
    primitive_root,
    serialize_presentation,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=20)


@given(raw_words)
def test_free_reduce_idempotent(raw):
    w = free_reduce(raw)
    assert free_reduce(w) == w


@given(raw_words)
def test_free_reduce_no_adjacent_cancellation(raw):
    w = free_reduce(raw)
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


@given(raw_words)
def test_invert_is_involution(raw):
    w = free_reduce(raw)
    assert invert(invert(w)) == w
    assert concat(w, invert(w)) == ()


@given(raw_words, raw_words, raw_words)
def test_concat_associative(a, b, c):
    a, b, c = free_reduce(a), free_reduce(b), free_reduce(c)
    assert concat(concat(a, b), c) == concat(a, concat(b, c))


@given(raw_words)
def test_cyclic_reduce_fixed_point(raw):
    w = cyclic_reduce(free_reduce(raw))
    assert cyclic_reduce(w) == w
    if len(w) >= 2:
        assert w[0] != -w[-1]


def old_cyclic_reduce(w):
    """Reference cyclic reduction: one slice per conjugating pair."""
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


# raw words, and conjugates u w u^-1 so that many pairs are stripped
conjugated_words = st.one_of(
    raw_words,
    st.tuples(raw_words, raw_words).map(lambda uw: uw[0] + uw[1] + list(invert(uw[0]))),
)


@given(conjugated_words)
def test_cyclic_reduce_matches_slicing_loop(raw):
    assert cyclic_reduce(raw) == old_cyclic_reduce(raw)


def is_proper_power(w):
    """Whether w = v^k for some k > 1: exactly when w equals one of its
    nontrivial rotations (Lyndon and Schutzenberger, 1962)."""
    return any(w[i:] + w[:i] == w for i in range(1, len(w)))


# cyclically reduced words, and their powers so that roots are hit
cyclic_words = st.lists(letters, max_size=8).map(cyclic_reduce)
powered_words = st.tuples(cyclic_words, st.integers(1, 5)).map(
    lambda wk: cyclic_reduce(wk[0] * wk[1])
)


@given(st.one_of(cyclic_words, powered_words))
def test_primitive_root(w):
    u, e = primitive_root(w)
    assert u * e == w
    assert not is_proper_power(u)
    assert e == 1 or is_proper_power(w)
    assert cyclic_reduce(u) == u  # a cyclically reduced word has one


def test_primitive_root_examples():
    assert primitive_root((1, 1, 1)) == ((1,), 3)
    assert primitive_root((1, 2, 1, 2)) == ((1, 2), 2)
    assert primitive_root((1, 2, -1, -2)) == ((1, 2, -1, -2), 1)
    assert primitive_root((1, 2, 1)) == ((1, 2, 1), 1)
    assert primitive_root(()) == ((), 1)


def test_csv_table_rows_end_in_crlf_and_quote():
    text = csv_table(["a", "b"], [[1, "x, y"], [], ["", True]])
    assert text == 'a,b\r\n1,"x, y"\r\n\r\n,True\r\n'


def test_max_generator():
    assert max_generator(()) == -1
    assert max_generator((3, -1)) == 2


def test_parse_basic():
    pres, specs = parse_presentation(
        """
        # free group on two letters with one relator
        gens a b
        rel a^2 b^-1
        sub H a, b^2
        """
    )
    assert pres.generators == ("a", "b")
    assert pres.relators == ((1, 1, -2),)
    assert len(specs) == 1
    assert specs[0].generators == ((1,), (2, 2))
    assert specs[0].name == "H"
    assert not specs[0].normal


def test_parse_rel_equation():
    pres, _ = parse_presentation("gens a t\nrel t^-1 a t = a^2\n")
    assert pres.relators == (cyclic_reduce((-2, 1, 2, -1, -1)),)


def test_parse_sub_without_commas_splits_tokens():
    _, specs = parse_presentation("gens a b\nsub H a^2 b^2\n")
    assert specs[0].generators == ((1, 1), (2, 2))


def test_parse_sub_commas_keep_multiletter_words():
    _, specs = parse_presentation("gens a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n")
    assert specs[0].normal
    assert specs[0].generators == ((1,) * 4, (2,) * 4, (1, 2, -1, -2))


def test_parse_identity_word():
    _, specs = parse_presentation("gens a\nsub H 1\n")
    assert specs[0].generators == ((),)


@pytest.mark.parametrize(
    "text",
    [
        "rel a\n",  # rel before gens
        "gens a\ngens b\n",  # duplicate gens
        "gens a a\n",
        "gens a\nrel b\n",  # unknown generator
        "gens a\nrel a^0\n",
        "gens a\nrel a^x\n",
        "gens a\nsub\n",
        "gens a\nfrobnicate a\n",
        "",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_presentation("gens a\nrel c\n")
    assert exc.value.line == 2


def test_serialize_round_trip():
    text = "gens a b\nrel a^3\nrel a b a b\nsub K normal a^4, b^4, a b a^-1 b^-1\n"
    pres, specs = parse_presentation(text)
    out = serialize_presentation(pres, specs)
    pres2, specs2 = parse_presentation(out)
    assert pres2 == pres
    assert [s.generators for s in specs2] == [s.generators for s in specs]
    assert serialize_presentation(pres2, specs2) == out


def test_canonical_form_ignores_whitespace_and_comments():
    a = serialize_presentation(*parse_presentation("gens a b\nrel a b a^-1 b^-1\nsub H a\n"))
    b = serialize_presentation(
        *parse_presentation("# hi\ngens   a   b\n\nrel a b a^-1 b^-1   # comment\nsub H a\n")
    )
    assert a == b


def test_presentation_rejects_bad_relator():
    with pytest.raises(ValueError):
        Presentation(generators=("a",), relators=((2,),))


def construction_error(generators, relators):
    try:
        Presentation(generators=generators, relators=relators)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("generators", [(), ("a",), ("a", "b"), ("a", "b", "c")])
@pytest.mark.parametrize("relators", [
    (), ((),), ((2,),), ((-3, 1),), ((1, -1, 3, -1, 1),), ((1, 0),), ((1, 2), (2, -3, 2)),
])
def test_presentation_range_check_matches_max_generator(generators, relators):
    # the check at construction raises exactly where max_generator says a
    # reduced relator reaches past the generators
    try:
        reduced = [cyclic_reduce(r) for r in relators]
    except ValueError as exc:
        want = str(exc)
    else:
        bad = [r for r in reduced if max_generator(r) >= len(generators)]
        want = f"relator {bad[0]} references an unknown generator" if bad else None
    assert construction_error(generators, relators) == want


def test_word_str_exponent_collapsing():
    pres = Presentation(generators=("a", "b"))
    assert pres.word_str((1, 1, -2, -2, -2)) == "a^2 b^-3"
    assert pres.word_str(()) == "1"


def test_spec_validate_over():
    pres = Presentation(generators=("a",))
    spec = SubgroupSpec(generators=((2,),))
    with pytest.raises(ValueError):
        spec.validate_over(pres)


@pytest.mark.parametrize(
    "text",
    [
        "gens 1 a\nrel 1 a\n",  # 1 is the empty word
        "gens normal b\nsub H normal\n",  # normal opens a normal spec
        "gens a =\nrel a =\n",  # = splits an equation
        "gens a^2 b\n",  # ^ starts an exponent
        "gens a,b c\nsub H a,b\n",  # , separates subgroup words
    ],
)
def test_reserved_generator_names(text):
    with pytest.raises(ParseError, match="reserved generator name") as exc:
        parse_presentation(text)
    assert exc.value.line == 1


def test_serialize_keeps_a_sole_multiletter_subgroup_word():
    pres, specs = parse_presentation("gens a b\nsub H a b,\n")
    assert specs[0].generators == ((1, 2),)
    out = serialize_presentation(pres, specs)
    assert out == "gens a b\nsub H a b,\n"
    assert parse_presentation(out)[1] == specs


NAME_CHARS = "abxyzAB_019'-."
names = st.text(alphabet=NAME_CHARS, min_size=1, max_size=4).filter(
    lambda name: name not in RESERVED_NAMES
)


@st.composite
def presentation_texts(draw):
    gens = draw(st.lists(names, min_size=1, max_size=4, unique=True))

    def token():
        name = draw(st.sampled_from(gens))
        exp = draw(st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0))
        return name if exp == 1 and draw(st.booleans()) else f"{name}^{exp}"

    def word():
        return " ".join(token() for _ in range(draw(st.integers(0, 4)))) or "1"

    lines = ["gens " + " ".join(gens)]
    for _ in range(draw(st.integers(0, 3))):
        rel = word()
        if draw(st.booleans()):
            rel += " = " + word()
        lines.append("rel " + rel)
    for _ in range(draw(st.integers(0, 3))):
        head = "sub " + draw(st.sampled_from(["H", "K2", "normal"]))
        if draw(st.booleans()):
            head += " normal"
        count = draw(st.integers(0, 3))
        if draw(st.booleans()):
            body = ", ".join(word() for _ in range(count))
            if count == 1 and draw(st.booleans()):
                body += ","
        else:
            body = " ".join(token() for _ in range(count))
        lines.append(head + (" " + body if body else ""))
    return "\n".join(lines) + "\n"


@given(presentation_texts())
def test_parse_serialize_parse_round_trip(text):
    pres, specs = parse_presentation(text)
    out = serialize_presentation(pres, specs)
    pres2, specs2 = parse_presentation(out)
    assert pres2 == pres
    assert specs2 == specs
    assert serialize_presentation(pres2, specs2) == out


reserved_names = st.one_of(
    st.sampled_from(RESERVED_NAMES),
    st.builds(
        lambda head, char, tail: head + char + tail,
        st.text(alphabet=NAME_CHARS, max_size=3),
        st.sampled_from("^,="),
        st.text(alphabet=NAME_CHARS, max_size=3),
    ),
)


@given(st.lists(names, max_size=3, unique=True), reserved_names, st.integers(0, 3))
def test_reserved_generator_names_are_rejected(gens, bad, at):
    gens.insert(at, bad)
    with pytest.raises(ParseError, match="reserved generator name"):
        parse_presentation("gens " + " ".join(gens) + "\nrel " + gens[0] + "\n")
