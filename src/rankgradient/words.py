"""Words in free groups and the presentation data model.

A word is a tuple of nonzero ints: generator ``i`` (0-based) appears as the
letter ``i + 1`` and its inverse as ``-(i + 1)``.  Words are kept freely
reduced everywhere; the empty tuple is the identity.
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from fractions import Fraction


Word = tuple  # tuple[int, ...], freely reduced

DEFAULT_WORD_LENGTH_CAP = 10**6
# Generator names no word could reference: "1" is the empty word, "normal"
# opens a normal subgroup spec, "^" starts an exponent, "," separates subgroup
# words and "=" splits an equation.
RESERVED_NAMES = ("1", "normal")
RESERVED_CHARS = "^,="


class ParseError(ValueError):
    """Syntax error in the presentation file format."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def free_reduce(raw) -> Word:
    """Freely reduce a sequence of signed letters."""
    out = []
    for letter in raw:
        if letter == 0:
            raise ValueError("letter 0 is not a valid signed generator")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert(w: Word) -> Word:
    return tuple(-letter for letter in reversed(w))


def concat(*ws: Word) -> Word:
    merged = []
    for w in ws:
        merged.extend(w)
    return free_reduce(merged)


def cyclic_strip(w: Word) -> Word:
    """Cyclic reduction of a freely reduced word: strip the conjugating
    letter pairs from both ends in one slice."""
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i : j + 1]


def cyclic_reduce(w: Word) -> Word:
    return cyclic_strip(free_reduce(w))


def primitive_root(w: Word):
    """(u, e) with w = u^e and u not a proper power: u is the shortest
    prefix whose length divides len(w) and whose power is w.  A cyclically
    reduced w has a cyclically reduced root; the identity is ((), 1)."""
    n = len(w)
    for d in range(1, n // 2 + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    return w, 1


def max_generator(w: Word) -> int:
    """Largest 0-based generator index used in w, or -1 for the identity."""
    return max((abs(letter) - 1 for letter in w), default=-1)


def read_only(self, name, value=None):
    """``__setattr__`` and ``__delattr__`` of the frozen record classes."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


class Presentation:
    """A finitely presented group: named generators plus relator words.

    Relators are cyclically reduced at construction.  Equality reads the
    generators and relators only: ``note`` names what a simplification left
    undone (set by tietze_simplify).
    """

    def __init__(self, generators, relators=(), note=None):
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        reduced = tuple(cyclic_reduce(r) for r in relators)
        rank = len(generators)
        for r in reduced:
            if max(map(abs, r), default=0) > rank:
                raise ValueError(f"relator {r} references an unknown generator")
        self.__dict__.update(generators=generators, relators=reduced, note=note)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.generators, self.relators) == (other.generators, other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = self.generators[abs(w[i]) - 1]
            exp = (j - i) if w[i] > 0 else -(j - i)
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return " ".join(parts)


class SubgroupSpec(namedtuple("SubgroupSpec", "generators normal name", defaults=(False, "H"))):
    """Subgroup generators over an ambient presentation.

    With ``normal=True`` the spec denotes the normal closure of the listed
    words rather than the plain subgroup they generate.
    """

    __slots__ = ()

    def validate_over(self, pres: Presentation):
        for w in self.generators:
            if max_generator(w) >= pres.rank:
                raise ValueError(f"subgroup word {w} references an unknown generator")


def _parse_word_tokens(tokens, gen_index, lineno):
    letters = []
    for tok in tokens:
        if tok == "1":
            continue
        name, _, exp_text = tok.partition("^")
        if name not in gen_index:
            raise ParseError(f"unknown generator {name!r}", line=lineno)
        if exp_text == "":
            exp = 1
        else:
            try:
                exp = int(exp_text)
            except ValueError:
                raise ParseError(f"bad exponent in token {tok!r}", line=lineno) from None
            if exp == 0:
                raise ParseError(f"zero exponent in token {tok!r}", line=lineno)
        if len(letters) + abs(exp) > DEFAULT_WORD_LENGTH_CAP:
            raise ParseError(
                f"word exceeds the length cap of {DEFAULT_WORD_LENGTH_CAP} letters", line=lineno
            )
        letter = gen_index[name] + 1
        letters.extend([letter if exp > 0 else -letter] * abs(exp))
    return free_reduce(letters)


def parse_presentation(text):
    """Parse the presentation file format.

    Grammar (UTF-8, line based, ``#`` comments)::

        gens <name> <name> ...            exactly once, before any rel/sub
        rel <word>                        or:  rel <word> = <word>
        sub <name> [normal] <word>, ...   named subgroup spec

    A <word> is whitespace-separated tokens ``name`` or ``name^k`` (k a
    nonzero integer), or the literal ``1`` for the empty word.  A generator
    name may not be ``1`` or ``normal`` or contain ``^``, ``,`` or ``=``.
    In ``sub`` lines the generator words are separated by commas; when no
    comma is present each token is its own word.  A word may spell out at
    most ``DEFAULT_WORD_LENGTH_CAP`` letters.

    Returns (Presentation, list of SubgroupSpec).
    """
    gens = None
    gen_index = {}
    relators = []
    specs = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, rest = fields[0], fields[1:]
        if keyword == "gens":
            if gens is not None:
                raise ParseError("duplicate 'gens' line", line=lineno)
            if not rest:
                raise ParseError("empty generator list", line=lineno)
            for name in rest:
                if name in RESERVED_NAMES or any(c in name for c in RESERVED_CHARS):
                    raise ParseError(f"reserved generator name {name!r}", line=lineno)
            gens = tuple(rest)
            gen_index = {name: i for i, name in enumerate(gens)}
            if len(gen_index) != len(gens):
                raise ParseError("duplicate generator name", line=lineno)
        elif keyword == "rel":
            if gens is None:
                raise ParseError("'rel' before 'gens'", line=lineno)
            if "=" in rest:
                eq = rest.index("=")
                lhs = _parse_word_tokens(rest[:eq], gen_index, lineno)
                rhs = _parse_word_tokens(rest[eq + 1 :], gen_index, lineno)
                relators.append(concat(lhs, invert(rhs)))
            else:
                relators.append(_parse_word_tokens(rest, gen_index, lineno))
        elif keyword == "sub":
            if gens is None:
                raise ParseError("'sub' before 'gens'", line=lineno)
            if not rest:
                raise ParseError("'sub' needs a name", line=lineno)
            name, words = rest[0], rest[1:]
            normal = bool(words) and words[0] == "normal"
            if normal:
                words = words[1:]
            text = " ".join(words)
            if "," in text:
                groups = [seg.split() for seg in text.split(",")]
                gen_words = tuple(
                    _parse_word_tokens(g, gen_index, lineno)
                    for g in groups
                    if g
                )
            else:
                gen_words = tuple(
                    _parse_word_tokens([tok], gen_index, lineno)
                    for tok in words
                )
            specs.append(SubgroupSpec(generators=gen_words, normal=normal, name=name))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line=lineno, column=1)
    if gens is None:
        raise ParseError("missing 'gens' line")
    pres = Presentation(generators=gens, relators=tuple(relators))
    for spec in specs:
        spec.validate_over(pres)
    return pres, specs


def serialize_presentation(pres: Presentation, specs=()) -> str:
    """Canonical text form; parse(serialize(parse(t))) is stable."""
    lines = ["gens " + " ".join(pres.generators)]
    for r in pres.relators:
        lines.append("rel " + pres.word_str(r))
    for spec in specs:
        head = f"sub {spec.name}" + (" normal" if spec.normal else "")
        body = ", ".join(pres.word_str(w) for w in spec.generators)
        if len(spec.generators) == 1 and " " in body:
            body += ","  # without a comma each token would be its own word
        lines.append(head + " " + body if body else head)
    return "\n".join(lines) + "\n"


def frac_str(q) -> str:
    """Exact rational as "p/q"; integers come out as "n/1"."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def csv_table(header, rows) -> str:
    """CSV text of a header row and data rows; every row ends in \\r\\n."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
