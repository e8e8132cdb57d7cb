"""Coset tables and the finite-index subgroup engine.

Todd-Coxeter enumeration (HLT style), low-index subgroup search by
conjugacy class, subgroup intersection via product actions, and normal
cores via the regular representation of the permutation image.  Enumeration
fills one flat int table under a live-coset cap.  Low-index search finds one
table per conjugacy class with its class size, checks only the relator
traces through each new edge, and ``subgroups_of_index`` expands the classes
to every subgroup (see ``enumerate_cosets``, ``_search_index``).

Conventions: coset 0 is the subgroup itself, words act on the right, and a
table's permutations are listed per generator.  Enumeration, intersection
and normal cores number cosets by BFS from coset 0 in letter order
(g1, g1^-1, g2, ...), the low-index search by first touch in slot order
(coset, then generator); either way equal subgroups yield identical tables.

A table alone fixes its subgroup.  Only ``enumerate_cosets`` attaches a
spec, the one it enumerated; the tables of ``low_index``, ``intersect`` and
``normal_core`` carry none, and Schreier generators are built on demand.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    ImageTooLarge,
    IndexBoundExceeded,
    InternalInvariantError,
    LowIndexBudget,
)
from .words import Presentation, SubgroupSpec, Word, free_reduce, invert, primitive_root, read_only

DEFAULT_COSET_CAP = 100_000
DEFAULT_IMAGE_CAP = 1_000_000
DEFAULT_NODE_CAP = 10_000_000

ALGORITHM_VERSION = "rankgradient-cosets-1"

# The subgroup a table without a spec enumerates.
TRIVIAL_SUBGROUP = SubgroupSpec(generators=(), name="trivial")


class CosetTable:
    """Complete transitive action of the generators on right cosets.

    ``perms`` holds one permutation (tuple of ints) per generator.  Equality
    reads ``pres`` and ``perms`` only: ``spec`` is the SubgroupSpec the table
    was enumerated from, if any, and ``provenance`` is "cache" when the table
    was read from the cache.
    """

    def __init__(self, pres, perms, spec=None, provenance=""):
        self.__dict__.update(pres=pres, perms=perms, spec=spec, provenance=provenance)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.pres, self.perms) == (other.pres, other.perms)

    def __hash__(self):
        return hash((self.pres, self.perms))

    @cached_property
    def _inv_perms(self):
        """Inverse permutations, built on the first inverse letter read."""
        return tuple(_invert_perm(p) for p in self.perms)

    @property
    def index(self) -> int:
        return len(self.perms[0]) if self.perms else 1

    def letter_perm(self, letter: int):
        return self.perms[letter - 1] if letter > 0 else self._inv_perms[-letter - 1]

    def apply(self, word: Word, coset: int = 0) -> int:
        for letter in word:
            coset = self.letter_perm(letter)[coset]
        return coset

    def word_perm(self, word: Word):
        """Permutation of cosets induced by a word: c -> c.word."""
        perm = range(self.index)
        for letter in word:
            p = self.letter_perm(letter)
            perm = [p[c] for c in perm]
        return tuple(perm)

    def fixes_base(self, word: Word) -> bool:
        """Subgroup membership: w is in the subgroup iff it fixes coset 0."""
        return self.apply(word, 0) == 0


def _invert_perm(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _letters(rank):
    return [x for g in range(1, rank + 1) for x in (g, -g)]


def _column(letter):
    """Table column of a letter: 2g for generator g + 1, 2g + 1 for its inverse."""
    return 2 * letter - 2 if letter > 0 else -2 * letter - 1


def _bfs(table: CosetTable):
    """Cosets reachable from 0 in BFS order (letters g1, g1^-1, g2, ...),
    and parent[d] = (coset, letter) of the edge that first reached d (None
    for coset 0 and for unreached cosets)."""
    order = [0]
    parent = [None] * table.index
    steps = [(letter, table.letter_perm(letter)) for letter in _letters(table.pres.rank)]
    i = 0
    while i < len(order):
        c = order[i]
        i += 1
        for letter, perm in steps:
            d = perm[c]
            if d != 0 and parent[d] is None:
                parent[d] = (c, letter)
                order.append(d)
    return order, parent


def canonicalize(table: CosetTable) -> CosetTable:
    """Renumber cosets by BFS from 0 in letter order."""
    n = table.index
    order, _ = _bfs(table)
    if len(order) != n:
        raise InternalInvariantError("coset table is not transitive")
    new_of = [0] * n
    for i, c in enumerate(order):
        new_of[c] = i
    perms = tuple(
        tuple(new_of[p[order[c]]] for c in range(n)) for p in table.perms
    )
    return CosetTable(pres=table.pres, perms=perms, spec=table.spec)


# ---------------------------------------------------------------------------
# Todd-Coxeter (HLT with coincidence processing)
# ---------------------------------------------------------------------------


def _hlt(rank, relators, point_words, cap):
    """HLT as in ``enumerate_cosets``: (pre-canonical perms, cosets defined)."""
    width = 2 * rank
    blank = [-1] * width
    table, p, alive = blank[:], [0], 1  # p: union-find, roots are minima

    def rep(c):
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(c, col):
        nonlocal alive
        if alive >= cap:
            raise IndexBoundExceeded(cap)
        beta = len(p)
        table.extend(blank)
        p.append(beta)
        alive += 1
        table[c * width + col], table[beta * width + (col ^ 1)] = beta, c

    def coincidence(a, b):
        queue = []

        def merge(a, b):
            nonlocal alive
            a, b = rep(a), rep(b)
            if a != b:
                a, b = min(a, b), max(a, b)
                p[b] = a
                alive -= 1
                queue.append(b)

        merge(a, b)
        for gamma in queue:  # merge appends while the loop runs
            for col in range(width):
                delta = table[gamma * width + col]
                if delta < 0:
                    continue
                inv = col ^ 1
                table[delta * width + inv] = -1
                mu, nu = rep(gamma), rep(delta)
                if table[mu * width + col] >= 0:
                    merge(nu, table[mu * width + col])
                elif table[nu * width + inv] >= 0:
                    merge(mu, table[nu * width + inv])
                else:
                    table[mu * width + col], table[nu * width + inv] = nu, mu

    points = [([_column(x) for x in w], [_column(-x) for x in w]) for w in point_words]
    words = [([_column(x) for x in w], [_column(-x) for x in w]) for w in relators]
    step = -1  # step -1 scans the point words at coset 0
    while step < len(p):
        alpha, scans = (0, points) if step < 0 else (step, words)
        step += 1
        if p[alpha] != alpha:
            continue
        for fwd, bwd in scans:
            # Scan forward and backward from alpha; a gap of one letter is
            # a deduction, a wider one a definition, no gap a coincidence.
            f, i, b, j = alpha, 0, alpha, len(fwd) - 1
            while True:
                while i <= j and (x := table[f * width + fwd[i]]) >= 0:
                    f, i = x, i + 1
                while j >= i and (x := table[b * width + bwd[j]]) >= 0:
                    b, j = x, j - 1
                if j < i:
                    if f != b:
                        coincidence(f, b)
                    break
                if j == i:
                    table[f * width + fwd[i]], table[b * width + bwd[i]] = b, f
                    break
                define(f, fwd[i])
            if p[alpha] != alpha:
                break
        else:
            if step:  # a relator pass, not the point-word pass
                for col in range(width):
                    if table[alpha * width + col] < 0:
                        define(alpha, col)

    live = [c for c in range(len(p)) if p[c] == c]
    if any(table[c * width + col] < 0 for c in live for col in range(0, width, 2)):
        raise InternalInvariantError("incomplete table after HLT loop")
    number = {c: i for i, c in enumerate(live)}
    return tuple(
        tuple(number[rep(table[c * width + col])] for c in live)
        for col in range(0, width, 2)
    ), len(p)


def enumerate_cosets(
    pres: Presentation,
    spec: SubgroupSpec | None = None,
    cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """Todd-Coxeter coset enumeration over a finitely presented group.

    HLT with coincidence processing (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 5.1-5.3) on one flat int list: entry
    ``c * 2 * rank + col`` is where column ``col`` (generator g at 2g, its
    inverse at 2g + 1) sends coset c, -1 while undefined.  Each relator and
    subgroup word is encoded once as forward and inverse column lists.
    ``cap`` bounds the live cosets: a definition made while ``cap`` are
    alive raises IndexBoundExceeded, so index n needs ``cap >= n`` and may
    need more before pending coincidences collapse the table.  The result
    is canonicalized and checked by ``validate``: never silently wrong.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if spec is None:
        spec = TRIVIAL_SUBGROUP
    spec.validate_over(pres)
    relators = list(pres.relators)
    point_words = list(spec.generators)
    if spec.normal:
        # Normal closure: the generating words hold at every coset.
        relators += point_words
        point_words = []
    perms, _ = _hlt(pres.rank, relators, point_words, cap)
    table = CosetTable(pres=pres, perms=perms, spec=spec)
    table = canonicalize(table)
    problems = validate(table)
    if problems:
        raise InternalInvariantError(f"enumeration produced an invalid table: {problems}")
    return table


# ---------------------------------------------------------------------------
# Schreier transversals and generators
# ---------------------------------------------------------------------------


def schreier_transversal(table: CosetTable):
    """BFS coset representatives and spanning tree.

    Returns (words, parent) where words[i] is the shortest-lex representative
    carrying coset 0 to i and parent[i] = (parent coset, letter) for i > 0.
    """
    order, parent = _bfs(table)
    words = [None] * table.index
    words[0] = ()
    for d in order[1:]:
        c, letter = parent[d]
        words[d] = words[c] + (letter,)
    return words, parent


def cotree_pairs(table: CosetTable):
    """The (coset c, generator g) of each edge c -g-> c.g off the BFS
    spanning tree, in coset then generator order: index * rank - (index - 1)
    pairs, one per nontrivial Schreier generator."""
    _, parent = _bfs(table)
    pairs = []
    for c in range(table.index):
        for g in range(1, table.pres.rank + 1):
            d = table.perms[g - 1][c]
            if parent[d] == (c, g) or parent[c] == (d, -g):
                continue  # tree edge c -g-> d, reached from either end
            pairs.append((c, g))
    return pairs


def schreier_generators(table: CosetTable) -> tuple:
    """Schreier generators of the subgroup of a coset table: one word
    t_c g t_{c.g}^-1 per cotree pair (c, g) of the shortest-lex BFS
    transversal."""
    words, _ = schreier_transversal(table)
    return tuple(
        free_reduce(words[c] + (g,) + invert(words[table.perms[g - 1][c]]))
        for c, g in cotree_pairs(table)
    )


def with_schreier_spec(table: CosetTable, name="H") -> CosetTable:
    spec = SubgroupSpec(generators=schreier_generators(table), name=name)
    return CosetTable(table.pres, table.perms, spec, table.provenance)


# ---------------------------------------------------------------------------
# Low-index subgroup search
# ---------------------------------------------------------------------------


def low_index(pres: Presentation, n_max: int):
    """The subgroups of index <= n_max by conjugacy class: one pair
    (table, class size) per class.

    The table is the least of the class's numberings (see
    ``_search_index``) and the class size is k / [N_G(H) : H] at index k,
    so the sizes of index k sum to the number of subgroups of index k.
    ``subgroups_of_index`` lists every subgroup.  Output order is
    deterministic: ascending index, then lexicographic table.  The search
    visits at most ``DEFAULT_NODE_CAP`` nodes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    found = []
    budget = [0, DEFAULT_NODE_CAP, found]
    for k in range(1, n_max + 1):
        found += _index_classes(pres, k, budget)
    return found


def subgroups_of_index(pres: Presentation, k: int):
    """Every subgroup of index exactly k, one table each, in lexicographic
    order: each class table renumbered from each of its k base cosets, with
    duplicates dropped.  The search of index k alone visits at most
    ``DEFAULT_NODE_CAP`` nodes."""
    classes = _index_classes(pres, k, [0, DEFAULT_NODE_CAP, []])
    tables = {_renumbered(table.perms, b) for table, _ in classes for b in range(k)}
    return [CosetTable(pres, t) for t in sorted(tables)]


def _index_classes(pres, k, budget):
    classes = []
    _search_index(pres, k, classes, budget)
    return [(CosetTable(pres, t), size) for t, size in sorted(classes)]


def _renumbered(perms, base):
    """``perms`` renumbered from coset ``base`` by first touch: cosets are
    numbered as they are first reached in slot order (coset, then
    generator), the numbering ``_search_index`` builds."""
    number = {base: 0}
    order = [base]
    for c in order:  # order grows while the loop runs
        for p in perms:
            if p[c] not in number:
                number[p[c]] = len(order)
                order.append(p[c])
    return tuple(tuple(number[p[c]] for c in order) for p in perms)


def _search_index(pres, k, out, budget):
    """Append to ``out`` one (perms, class size) per conjugacy class of
    subgroups of index k: Sims' search by conjugacy class (Sims,
    Computation with Finitely Presented Groups, 1994, ch. 5).

    The slots (coset c, generator g) are filled in order, coset then
    generator, and each image is a coset in use or the next unused one, so
    tables are numbered by first touch from base coset 0.  A table on k
    points in which every relator closes is one subgroup H; renumbered from
    base coset b it is the stabilizer of b, a conjugate of H.  A class is
    kept only in its least numbering, lexicographically in slot order.
    When row c is complete, the partial table is renumbered from base coset
    c as far as both are defined, and pruned if that renumbering is
    smaller, as every completion's then is too.  At a leaf every base coset
    is compared in full: the bases giving the table itself number
    [N_G(H) : H], and the class holds k / [N_G(H) : H] subgroups.

    Each descent to a slot is one node against ``budget``.  A node is also
    pruned when some relator trace is fully defined and does not close.
    Only traces through the edge c -g-> d just set are checked, which prunes
    exactly what a scan of all k * |R| traces would: every other defined
    trace was defined, and closed, at the parent.  A trace crosses the edge
    at some occurrence of g^+-1 in its relator; as the partial table is
    injective, it is fully defined iff the prefix traced backward from one
    end of the edge and the suffix traced forward from the other both are,
    and then it closes iff they meet.
    """
    rank = pres.rank
    act = [[None] * k for _ in range(2 * rank)]  # per column, as in _hlt
    rows = act[0::2]  # the generators' columns, in slot order within a row
    # through[g]: (is g, prefix rows backward, suffix rows forward) per g^+-1
    through = [[] for _ in range(rank)]
    for w in pres.relators:
        for i, letter in enumerate(w):
            through[abs(letter) - 1].append((
                letter > 0,
                [act[_column(-x)] for x in reversed(w[:i])],
                [act[_column(x)] for x in w[i + 1:]],
            ))
    # (c, g, row of g, row of g^-1) per slot, then a sentinel at which
    # every branch ends
    slots = [(c, g, act[2 * g], act[2 * g + 1]) for c in range(k) for g in range(rank)]
    slots.append((k, None, None, None))

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

    slot_rows = [(c, row) for c in range(k) for row in rows]  # in slot order

    def renumbered(base):
        """Renumber the table from ``base`` by first touch and compare it
        with the table slot by slot while both are defined: the sign of the
        difference (0 if they agree that far), and the old coset of each
        new one.  ``order[j]`` exists when read: rows 0..j-1 of the two
        agree, and the search only tests tables whose rows 0..j-1 reach
        past j."""
        number = {base: 0}
        order = [base]
        for j, row in slot_rows:
            mine, image = row[j], row[order[j]]
            if mine is None or image is None:
                break
            new = number.get(image)
            if new is None:
                new = number[image] = len(order)
                order.append(image)
            if new != mine:
                return (-1 if new < mine else 1), order
        return 0, order

    def normalizer_index():
        """0 if the complete table renumbered from some base coset is
        smaller, else [N_G(H) : H], the number of base cosets that give the
        table itself.  These form the orbit of coset 0 under the table's
        automorphisms, and a base giving the table yields one, j -> order[j];
        a base in the orbit of those found so far needs no walk."""
        autos, orbit, seen = [], [0], {0}
        for base in range(1, k):
            if base in seen:
                continue
            sign, order = renumbered(base)
            if sign < 0:
                return 0
            if sign == 0:
                autos.append(order)
                for x in orbit:  # orbit grows while the loop runs
                    for auto in autos:
                        if auto[x] not in seen:
                            seen.add(auto[x])
                            orbit.append(auto[x])
        return len(orbit)

    # Depth-first over the slots in a loop, not by recursion, which would
    # nest k * rank calls deep.  Per slot: the points used on entering it
    # and the images left to try there; the image set there is in ``act``.
    points = [1] * len(slots)  # only points[0] is read before it is set
    tries = [None] * len(slots)
    nodes, cap = budget[0], budget[1]
    last = rank - 1
    pos, descending = 0, True
    while pos >= 0:
        c, g, fwd, bwd = slots[pos]
        if descending:
            nodes += 1  # one node per descent
            if nodes > cap:
                budget[0] = nodes
                raise LowIndexBudget(cap, list(budget[2]))
            used = points[pos]
            if c >= used:
                # Rows 0..used-1 are closed under the action, so the table
                # is complete or can never become transitive on k points.
                if c == k and used == k and (n := normalizer_index()):
                    out.append((tuple(tuple(row) for row in rows), k // n))
                pos, descending = pos - 1, False
                continue
            tries[pos] = iter(range(min(used + 1, k)))
        else:
            bwd[fwd[c]] = fwd[c] = None  # undo the image tried last
        for d in tries[pos]:
            if bwd[d] is None:
                fwd[c] = d
                bwd[d] = c
                if edge_ok(g, c, d):
                    points[pos + 1] = used = max(points[pos], d + 1)
                    # Once row c is complete, the renumbering from base
                    # coset c is compared as far as it is defined; a leaf
                    # compares every base in full.
                    if g != last or used == c + 1 or not c or renumbered(c)[0] >= 0:
                        pos, descending = pos + 1, True
                        break
                fwd[c] = bwd[d] = None
        else:
            pos, descending = pos - 1, False
    budget[0] = nodes


# ---------------------------------------------------------------------------
# Intersection and normal core
# ---------------------------------------------------------------------------


def intersect(t1: CosetTable, t2: CosetTable) -> CosetTable:
    """Table of H1 n H2: the component of (0, 0) in the product action,
    numbered by a BFS in the order ``canonicalize`` uses.  The pair of
    cosets (a, b) is held as the integer a * n2 + b, and each generator's
    row of the result is filled as the BFS reads its letter."""
    if t1.pres != t2.pres:
        raise ValueError("tables must share an ambient presentation")
    n2 = t2.index
    rows = tuple([] for _ in t1.perms)
    # per generator: its row, then its images in t1 and t2, then those of
    # its inverse
    steps = [
        (row, t1.letter_perm(g), t2.letter_perm(g), t1.letter_perm(-g), t2.letter_perm(-g))
        for g, row in enumerate(rows, 1)
    ]
    number = {0: 0}
    order = [0]
    for code in order:  # order grows while the loop runs
        a, b = divmod(code, n2)
        for row, fwd1, fwd2, inv1, inv2 in steps:
            nxt = fwd1[a] * n2 + fwd2[b]
            i = number.get(nxt)
            if i is None:
                i = number[nxt] = len(order)
                order.append(nxt)
            row.append(i)
            nxt = inv1[a] * n2 + inv2[b]
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
    return CosetTable(pres=t1.pres, perms=tuple(map(tuple, rows)))


def _image_closure(table: CosetTable, limit: int):
    """The image of the generators in Sym(index), closed up by BFS from the
    identity: (elements, number of each element), or None as soon as it
    would exceed ``limit`` elements."""
    identity = tuple(range(table.index))
    number = {identity: 0}
    elements = [identity]
    i = 0
    while i < len(elements):
        e = elements[i]
        i += 1
        for perm in table.perms:
            f = tuple(perm[x] for x in e)
            if f not in number:
                if len(elements) >= limit:
                    return None
                number[f] = len(elements)
                elements.append(f)
    return elements, number


def normal_core(table: CosetTable) -> CosetTable:
    """Table of the core of H: the regular representation of the image group.

    The core index equals the image order, which can reach index!, hence
    the cap DEFAULT_IMAGE_CAP.
    """
    closure = _image_closure(table, DEFAULT_IMAGE_CAP)
    if closure is None:
        raise ImageTooLarge(DEFAULT_IMAGE_CAP)
    elements, number = closure
    perms = tuple(
        tuple(number[tuple(perm[x] for x in e)] for e in elements)
        for perm in table.perms
    )
    return canonicalize(CosetTable(pres=table.pres, perms=perms))


def contains(table: CosetTable, sub: CosetTable) -> bool:
    """True iff the subgroup of ``sub`` lies in the subgroup of ``table``,
    i.e. iff the coset map sending 0 to 0 and commuting with every letter is
    well defined; it is built along the BFS of ``sub``, checking every edge."""
    image = [None] * sub.index
    image[0] = 0
    steps = [(sub.letter_perm(x), table.letter_perm(x)) for x in _letters(sub.pres.rank)]
    for c in _bfs(sub)[0]:
        for sub_perm, perm in steps:
            d = sub_perm[c]
            e = perm[image[c]]
            if image[d] is None:
                image[d] = e
            elif image[d] != e:
                return False
    return True


def is_normal(table: CosetTable) -> bool:
    """H is normal iff its core has the same index, i.e. iff the image of
    the transitive action has order index (it never has less)."""
    return _image_closure(table, table.index) is not None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _perm_power(perm, e):
    """perm^e, e >= 1, by repeated squaring."""
    if e == 1:
        return perm
    half = _perm_power(perm, e // 2)
    square = [half[c] for c in half]
    return tuple(square if e % 2 == 0 else [perm[c] for c in square])


def validate(table: CosetTable):
    """Audit all CosetTable invariants; empty list means the table is valid."""
    problems = []
    n = table.index
    for g, perm in enumerate(table.perms):
        if sorted(perm) != list(range(n)):
            problems.append(f"generator {g}: action is not a bijection")
    if not problems:
        if len(_bfs(table)[0]) != n:
            problems.append("action is not transitive on cosets")
        identity = tuple(range(n))
        for r_i, relator in enumerate(table.pres.relators):
            u, e = primitive_root(relator)
            if _perm_power(table.word_perm(u), e) != identity:
                problems.append(f"relator {r_i} does not act as the identity")
        if table.spec is not None and not table.spec.normal:
            for w in table.spec.generators:
                if not table.fixes_base(w):
                    problems.append(f"subgroup generator {w} does not fix coset 0")
    return problems
