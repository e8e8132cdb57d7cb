"""Subgroup analysis: homology from the Fox matrix of the finite cover,
and Reidemeister-Schreier rewriting and Tietze simplification for rank
upper bounds.  The Schreier generators themselves live in ``cosets`` and
are re-exported here.

The cover's edges off its BFS spanning tree are numbered once, in
``_schreier_words``: the rewritten relators are its words, and the Fox
matrix, on those cotree columns, is their exponent sums.

Exact rank is uncomputable in general, so everything rank-shaped is reported
as a [lower, upper] interval; the interval is degenerate exactly when the
homology lower bound meets the presentation upper bound (always the case for
free ambient groups).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .cosets import CosetTable, cotree_pairs, schreier_generators
from .errors import RelatorLengthExceeded
from .homology import DEFAULT_PRIMES, abelianized_matrix, report_from_matrix
from .words import (
    Presentation,
    cyclic_reduce,
    cyclic_strip,
    invert,
    primitive_root,
)

DEFAULT_RELATOR_CAP = 10_000  # letters in a rewritten or substituted relator
TIETZE_PASSES = 200  # eliminations per simplification


def _schreier_words(table: CosetTable, loops=()):
    """(coset c, word) for the relators at the cosets, then for each loop
    word at coset 0: the loop of the word at c in the cover graph, as the
    signed numbers of the cotree edges it crosses, in order.  The edge
    c -g-> c.g that ``cotree_pairs`` lists i-th reads i + 1 crossed forwards
    and -(i + 1) backwards; tree edges are skipped, so the word is the
    Reidemeister-Schreier rewrite, unreduced.

    A relator u^e with e > 1 (u its primitive root) is walked once per
    orbit of u on the cosets, at the orbit's least coset: its loop at c.u
    is a rotation of its loop at c, the same relator up to conjugacy and
    the same Fox row.  Every other relator is walked at every coset, in
    coset then relator order."""
    if not table.pres.relators and not loops:
        return  # no word to walk, so no cotree to number
    rank = table.pres.rank
    number = [0] * (table.index * rank)  # edge c -g-> c.g at c * rank + g - 1
    for i, (c, g) in enumerate(cotree_pairs(table), 1):
        number[c * rank + g - 1] = i
    perms = table.perms
    inverses = [table.letter_perm(-g) for g in range(1, rank + 1)]

    def walk(c, word, times=1, seen=None):
        """The loop of word^times at c; marks in ``seen`` each coset a
        pass of word ends at."""
        out = []
        d = c
        for _ in range(times):
            for letter in word:
                if letter > 0:
                    i = number[d * rank + letter - 1]
                    d = perms[letter - 1][d]
                else:
                    d = inverses[-letter - 1][d]
                    i = -number[d * rank - letter - 1]
                if i:
                    out.append(i)
            if seen is not None:
                seen[d] = 1
        assert d == c, "relator trace did not close"
        return out

    roots = [primitive_root(relator) for relator in table.pres.relators]
    # per power relator, the cosets of the u-orbits walked so far
    walked = [bytearray(table.index) if e > 1 else None for _, e in roots]
    for c in range(table.index):
        for (u, e), seen in zip(roots, walked):
            if seen is None or not seen[c]:
                yield c, walk(c, u, e, seen)
    for loop in loops:
        yield 0, walk(0, loop)


def rewrite_presentation(table: CosetTable) -> Presentation:
    """Reidemeister-Schreier presentation of the subgroup of the table.

    Generators are the nontrivial Schreier generators, one per cotree edge.
    Relators are the ``_schreier_words`` cyclically reduced, each of at
    most ``DEFAULT_RELATOR_CAP`` letters: one per coset for a relator that
    is not a proper power, one per orbit of its root for one that is (the
    other cosets of the orbit give its rotations).
    """
    relators = []
    for c, w in _schreier_words(table):
        w = cyclic_reduce(w)
        if len(w) > DEFAULT_RELATOR_CAP:
            raise RelatorLengthExceeded(DEFAULT_RELATOR_CAP, len(w), context=f"coset {c}")
        relators.append(w)
    names = tuple(f"x{i}" for i in range(1 + table.index * (table.pres.rank - 1)))
    return Presentation(generators=names, relators=tuple(relators))


def subgroup_abelianized_matrix(table: CosetTable, loops=()):
    """Fox matrix of the cover of the subgroup H of a coset table on its
    cotree columns, plus one row per loop word at coset 0: the abelianized
    ``_schreier_words``, so a proper-power relator has one row per orbit
    of its root, the rows it drops being copies.  Reading a 1-cycle off
    the cotree edges maps the cycle lattice onto the columns, so the
    cokernel of the relator rows is H1(H) (Magnus, Karrass and Solitar,
    Combinatorial Group Theory, 2.3).

    Returns (rows, index * (rank - 1) + 1 cotree columns).
    """
    rows = abelianized_matrix(w for _, w in _schreier_words(table, loops))
    return rows, 1 + table.index * (table.pres.rank - 1)


def subgroup_homology(table: CosetTable, primes=DEFAULT_PRIMES):
    """HomologyReport of the subgroup of a coset table."""
    return report_from_matrix(*subgroup_abelianized_matrix(table), primes)


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------


def _least_rotation(w):
    """Lexicographically least rotation of w in O(len(w)) comparisons:
    Booth's failure-function scan over w + w (Booth, IPL 1980)."""
    s = w + w
    fail = [-1] * len(s)
    k = 0  # start of the least rotation found so far
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # so i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return w[k:] + w[:k]


def _canonical_relator_key(w):
    """Least rotation of w or of its inverse: equal exactly for relators
    that are cyclic permutations of each other or of each other's inverse."""
    return min(_least_rotation(w), _least_rotation(invert(w)))


class _Relator:
    """A cyclically reduced relator with the values the Tietze loop reads,
    each computed once and only when read: a signature that all its
    rotations and inverses share (its length and generator set), generator
    counts, the generators occurring once and the canonical key."""

    def __init__(self, word):
        self.word = word
        self.gens = frozenset(map(abs, word))
        self.sig = (len(word), self.gens)

    @cached_property
    def counts(self):
        return Counter(map(abs, self.word))

    @cached_property
    def once(self):
        return sorted(g for g, c in self.counts.items() if c == 1)

    @cached_property
    def key(self):
        return _canonical_relator_key(self.word)


def _join_reduced(chunks, cap):
    """Free reduction of the concatenation of freely reduced words: letters
    cancel only where the kept part of one chunk meets the next.  None when
    it has more than cap letters, found before the word is built."""
    kept = []  # [word, start, end]: word[start:end] survives so far
    for w in chunks:
        i, n = 0, len(w)
        while i < n and kept:
            top = kept[-1]
            if top[0][top[2] - 1] != -w[i]:
                break
            i += 1
            top[2] -= 1
            if top[2] == top[1]:
                kept.pop()
        if i < n:
            kept.append([w, i, n])
    if sum(n - i for _, i, n in kept) > cap:
        return None
    out = []
    for w, i, n in kept:
        out += w[i:n]
    return tuple(out)


def _clean(relators):
    """Nontrivial relators sorted by (length, word), one per canonical key;
    a key is computed only for a relator whose signature an earlier kept
    relator has."""
    out = []
    by_sig = {}
    for rel in sorted(relators, key=lambda rel: (len(rel.word), rel.word)):
        same = by_sig.get(rel.sig)
        if same is None:
            if rel.word:
                by_sig[rel.sig] = [rel]
                out.append(rel)
        elif all(other.key != rel.key for other in same):
            same.append(rel)
            out.append(rel)
    return out


def _substituted(rel, g, relators):
    """Solve relator ``rel`` for g, which occurs in it once, and substitute
    into the relators containing g: {relator: freely reduced new word}.
    None when some other relator would have more than DEFAULT_RELATOR_CAP
    letters afterwards, a relator without g because it has them already."""
    if any(
        other is not rel and g not in other.gens and len(other.word) > DEFAULT_RELATOR_CAP
        for other in relators
    ):
        return None
    r = rel.word
    pos = r.index(g) if g in r else r.index(-g)
    rest = r[pos + 1 :] + r[:pos]
    image = {g: invert(rest), -g: rest} if r[pos] == g else {g: rest, -g: invert(rest)}
    changed = {}
    for other in relators:
        if other is not rel and g in other.gens:
            s = other.word
            chunks, start = [], 0
            for i in [i for i, x in enumerate(s) if x == g or x == -g]:
                chunks += (s[start:i], image[s[i]])
                start = i + 1
            chunks.append(s[start:])
            changed[other] = w = _join_reduced(chunks, DEFAULT_RELATOR_CAP)
            if w is None:
                return None
    return changed


def _eliminate_once(relators):
    """First elimination in scan order (relator, then generator occurring
    once in it, ascending) that takes no relator past DEFAULT_RELATOR_CAP,
    as (generator, new relators, generators refused before it): the
    relator it is solved from is dropped and only the relators containing
    the generator change.  (None, None, refused generators) when there is
    none."""
    refused = set()
    for rel in relators:
        for g in rel.once:
            changed = _substituted(rel, g, relators)
            if changed is None:
                refused.add(g)
                continue
            return g, [
                _Relator(cyclic_strip(changed[other])) if other in changed else other
                for other in relators
                if other is not rel
            ], refused
    return None, None, refused


def tietze_simplify(pres: Presentation) -> Presentation:
    """Presentation simplification: deletes trivial and duplicate relators
    and eliminates generators occurring exactly once in some relator, at
    most ``TIETZE_PASSES`` eliminations.  The generator count never
    increases and the group is unchanged up to isomorphism.

    The loop is incremental.  Letters keep their input numbers until one
    renumbering at the end, which is monotone, so every sort and rotation
    comes out as if renumbered after each step.  Each relator's counts and
    key (Booth's least rotation, only when another relator has the same
    length and generator set) are computed at most once, when first read.
    An elimination substitutes only into the relators containing the
    generator and is refused when a relator would pass
    ``DEFAULT_RELATOR_CAP``.

    The result's ``note`` names what the loop left undone: a stop at the
    step limit, when one more step was there to take, and the eliminations
    the last scan refused at the relator cap.  Without a stop at the limit
    these are one per generator still occurring once in a relator.
    """
    # Presentation relators are cyclically reduced already.
    relators = _clean([_Relator(w) for w in pres.relators])
    eliminated = set()
    # The step after the last allowed one is looked for but not taken, so
    # that the limit is named only when it left a step undone.
    for step in range(TIETZE_PASSES + 1):
        g, found, refused = _eliminate_once(relators)
        if found is None or step == TIETZE_PASSES:
            break
        eliminated.add(g)
        relators = _clean(found)
    undone = []
    if found is not None:
        undone.append(f"stopped at its {TIETZE_PASSES}-step limit")
    if refused:
        undone.append(
            f"refused {len(refused)} elimination{'s' * (len(refused) > 1)} "
            f"at relator cap {DEFAULT_RELATOR_CAP}"
        )
    survivors = [g for g in range(1, pres.rank + 1) if g not in eliminated]
    words = [rel.word for rel in relators]
    if eliminated:
        new = {}
        for i, g in enumerate(survivors, 1):
            new[g], new[-g] = i, -i
        words = [tuple(map(new.__getitem__, w)) for w in words]
    return Presentation(
        generators=tuple(pres.generators[g - 1] for g in survivors),
        relators=tuple(words),
        note="Tietze " + " and ".join(undone) if undone else None,
    )


# ---------------------------------------------------------------------------
# Rank bounds
# ---------------------------------------------------------------------------


class RankBounds(tuple):
    """The rank interval (lower, upper); ``note`` names a cap or limit met
    in bounding it, or is None."""

    def __new__(cls, lower, upper, note=None):
        bounds = super().__new__(cls, (lower, upper))
        bounds.note = note
        return bounds


def rank_bounds(table: CosetTable, report) -> RankBounds:
    """Rank interval [lower, upper] for the subgroup of the table, given
    its homology report, with a note naming a cap met in bounding it.

    lower: best homology bound (beta1 and b_{1,p}).  upper: the least
    certified generator count among the word count of a plain spec and
    the Schreier count 1 + index * (rank - 1), over a relator-free ambient
    group (where Tietze removes no generator) or when rewriting trips the
    relator cap, else the Tietze count of the rewritten presentation.
    """
    lower = report.rank_lower
    upper = 1 + table.index * (table.pres.rank - 1)  # the Schreier count
    note = capped = None
    if table.pres.relators:
        try:
            rewritten = rewrite_presentation(table)
        except RelatorLengthExceeded as exc:
            capped = exc
        else:
            simplified = tietze_simplify(rewritten)
            upper, note = simplified.rank, simplified.note
    spec = table.spec
    words = len(spec.generators) if spec is not None and not spec.normal else 0
    if 0 < words < upper:
        if capped:
            note = f"rank_upper comes from the spec words, not the Schreier count {upper}: {capped}"
        elif note:
            note = (
                f"{note} (its bound is {upper}; rank_upper {words} "
                "comes from the spec words and is unaffected)"
            )
        upper = words
    elif capped:
        note = f"rank_upper is the Schreier count: {capped}"
    if lower > upper:
        raise AssertionError(f"rank bounds crossed: {lower} > {upper}")
    return RankBounds(lower, upper, note)
