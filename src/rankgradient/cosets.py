"""Coset tables and the finite-index subgroup engine.

Todd-Coxeter enumeration (HLT style), low-index subgroup search by
conjugacy class, subgroup intersection via product actions, and normal
cores via the regular representation of the permutation image.  Both
enumeration and the low-index search keep one list per table column.
Enumeration fills it under a live-coset cap.  Low-index search finds one
table per conjugacy class with its class size; it scans the relator traces
through each edge it sets and fills the edges they force, so it branches
only on free slots (see ``enumerate_cosets``, ``_search_index``).

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
    IntersectionTooLarge,
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


_BLOCK = 1024  # cosets added to every column of the HLT table at a time


def _hlt(rank, relators, point_words, cap):
    """HLT as in ``enumerate_cosets``: (pre-canonical perms, cosets defined)."""
    block = [-1] * _BLOCK
    act = [block[:] for _ in range(2 * rank)]  # act[col][c], -1 while undefined
    cols = [(act[col], act[col ^ 1]) for col in range(2 * rank)]  # (column, inverse's)
    p, alive = [0], 1  # p: union-find, roots are minima

    def rep(c):
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(c, row, inv):
        nonlocal alive
        if alive >= cap:
            raise IndexBoundExceeded(cap)
        beta = len(p)
        if beta == len(row):
            for column in act:
                column += block
        p.append(beta)
        alive += 1
        row[c], inv[beta] = beta, c

    def coincidence(a, b):
        """Merge the live cosets a != b and every pair that forces, in the
        order the cosets die; the number of cosets killed."""
        if a > b:
            a, b = b, a
        p[b] = a
        queue = [b]
        for gamma in queue:  # grows while the loop runs
            for row, inv in cols:
                delta = row[gamma]
                if delta < 0:
                    continue
                inv[delta] = -1
                mu, nu = rep(gamma), rep(delta)
                if (x := row[mu]) >= 0:
                    a = nu
                elif (x := inv[nu]) >= 0:
                    a = mu
                else:
                    row[mu], inv[nu] = nu, mu
                    continue
                b = rep(x)
                if a != b:
                    if a > b:
                        a, b = b, a
                    p[b] = a
                    queue.append(b)
        return len(queue)

    points, words = (  # per word: its letters' columns, its inverse letters' columns
        [([act[_column(x)] for x in w], [act[_column(-x)] for x in w]) for w in ws]
        for ws in (point_words, relators)
    )
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
                while i <= j and (x := fwd[i][f]) >= 0:
                    f, i = x, i + 1
                while j >= i and (x := bwd[j][b]) >= 0:
                    b, j = x, j - 1
                if j < i:
                    if f != b:
                        alive -= coincidence(f, b)
                    break
                if j == i:
                    fwd[i][f], bwd[i][b] = b, f
                    break
                define(f, fwd[i], bwd[i])
            if p[alpha] != alpha:
                break
        else:
            if step:  # a relator pass, not the point-word pass
                for row, inv in cols:
                    if row[alpha] < 0:
                        define(alpha, row, inv)

    # Every entry of a live coset's row is -1 or a live coset, so the
    # renumbering reads no union-find: the spare last slot of ``number``
    # answers -1, and a dead coset numbers -1 too.
    live = [c for c in range(len(p)) if p[c] == c]
    number = [-1] * (len(p) + 1)
    for i, c in enumerate(live):
        number[c] = i
    perms = tuple(
        tuple(map(number.__getitem__, map(row.__getitem__, live))) for row in act[0::2]
    )
    if any(-1 in perm for perm in perms):
        raise InternalInvariantError("incomplete table after HLT loop")
    return perms, len(p)


def enumerate_cosets(
    pres: Presentation,
    spec: SubgroupSpec | None = None,
    cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """Todd-Coxeter coset enumeration over a finitely presented group.

    HLT with coincidence processing (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 5.1-5.3) on one int list per column:
    ``act[col][c]`` is where column ``col`` (generator g at 2g, its inverse
    at 2g + 1) sends coset c, -1 while undefined.  The columns grow by a
    block of 1,024 cosets at a time.  Each relator and subgroup word is
    encoded once as the lists of its letters' columns and of their
    inverses' columns, so a scan reads ``fwd[i][c]``.
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
    Output order is deterministic: ascending index, then lexicographic
    table.  The search visits at most ``DEFAULT_NODE_CAP`` nodes.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    found = []
    budget = [0, DEFAULT_NODE_CAP, found]
    for k in range(1, n_max + 1):
        found += _index_classes(pres, k, budget)
    return found


def classes_of_index(pres: Presentation, k: int):
    """The (class table, class size) pairs of index exactly k, as
    ``low_index`` lists them; the search of index k alone visits at most
    ``DEFAULT_NODE_CAP`` nodes."""
    return _index_classes(pres, k, [0, DEFAULT_NODE_CAP, []])


def _index_classes(pres, k, budget):
    classes = []
    _search_index(pres, k, classes, budget)
    return [(CosetTable(pres, t), size) for t, size in sorted(classes)]


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

    Each edge set, chosen or deduced, has every relator trace through it
    scanned, as HLT scans a relator (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 5.4): the rest of the relator is read
    cyclically, forward from one end of the edge and backward from the
    other, as far as the partial table is defined.  A trace read in full
    that does not close prunes the node.  A gap of one letter between two
    known cosets forces that edge; both of its slots are free, as each scan
    stopped at one of them, so it is set and its traces scanned in turn.
    Deduced edges join cosets already in use and hold in every completion,
    so every table is still reached once, in its least first-touch
    numbering.  The search branches only on slots left free: it passes
    through a deduced slot, with its renumbering check if the slot ends a
    row, and undoes the deductions with the image that made them.  Each
    descent to a slot, branching or not, is one node against ``budget``.
    """
    rank = pres.rank
    act = [[None] * k for _ in range(2 * rank)]  # per column, as in _hlt
    rows = act[0::2]  # the generators' columns, in slot order within a row
    # per generator g: its row, its inverse's row and the relator traces
    # through g, one per occurrence of g^+-1 in the root u of a relator u^e
    # (the occurrences in the other e - 1 copies of u give the same
    # traces): (is g, then per letter of the rest of the relator, read
    # cyclically from just after the occurrence, its row, its inverse's row
    # and (its generator's entry, is positive), then the rest's last index)
    gens = [(act[2 * g], act[2 * g + 1], []) for g in range(rank)]
    for w in pres.relators:
        for i, letter in enumerate(primitive_root(w)[0]):
            rest = w[i + 1:] + w[:i]
            gens[abs(letter) - 1][2].append((
                letter > 0,
                [act[_column(x)] for x in rest],
                [act[_column(-x)] for x in rest],
                [(gens[abs(x) - 1], x > 0) for x in rest],
                len(rest) - 1,
            ))
    # (c, g, row of g, row of g^-1, traces through g) per slot, then a sentinel
    # at which every branch ends
    slots = [(c, g, *gens[g]) for c in range(k) for g in range(rank)]
    slots.append((k, None, None, None, None))

    trail = []  # (generator's entry, c, d) per deduced edge c -g-> d

    def deduce(traces, c, d):
        """Scan ``traces``, those through the edge c -g-> d just set, then
        those through each edge they force, which is set and put on the
        trail in turn.  False as soon as a trace read in full does not
        close."""
        t = len(trail)
        while True:
            for forward, ahead, back, sets, j in traces:
                # the rest runs from the edge's head back to its tail
                f, b = (d, c) if forward else (c, d)
                i = 0
                while i <= j and (x := ahead[i][f]) is not None:
                    f, i = x, i + 1
                while j >= i and (x := back[j][b]) is not None:
                    b, j = x, j - 1
                if j < i:
                    if f != b:
                        return False
                elif j == i:
                    ahead[i][f], back[i][b] = b, f
                    gen, positive = sets[i]
                    trail.append((gen, f, b) if positive else (gen, b, f))
            if t == len(trail):
                return True
            (_, _, traces), c, d = trail[t]
            t += 1

    slot_rows = [(c, row) for c in range(k) for row in rows]  # in slot order

    def renumbered(base):
        """Renumber the table from ``base`` by first touch and compare it
        with the table slot by slot while both are defined: the sign of the
        difference (0 if they agree that far), and the old coset of each
        new one.  Deduced rows can be complete past the cosets numbered so
        far: where rows 0..j-1 agree and reach no coset past j - 1,
        ``order[j]`` does not exist, and the walk stops."""
        number = {base: 0}
        order = [base]
        for j, row in slot_rows:
            if j >= len(order):
                break
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
    # nest k * rank calls deep.  Per slot: the points used on entering it,
    # the images left to try there (None where the slot was deduced) and
    # the trail's length before its image was set.
    points = [1] * len(slots)  # only points[0] is read before it is set
    tries = [None] * len(slots)
    marks = [0] * len(slots)
    nodes, cap = budget[0], budget[1]
    last = rank - 1
    pos, descending = 0, True
    while pos >= 0:
        c, g, fwd, bwd, traces = slots[pos]
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
            if fwd[c] is not None:  # deduced: pass through
                tries[pos] = None
                points[pos + 1] = used
                if g != last or used == c + 1 or not c or renumbered(c)[0] >= 0:
                    pos += 1
                else:
                    pos, descending = pos - 1, False
                continue
            tries[pos] = iter(range(min(used + 1, k)))
            marks[pos] = mark = len(trail)
        elif tries[pos] is None:
            pos -= 1
            continue
        else:
            mark = marks[pos]
            while len(trail) > mark:  # undo the image tried last
                (r, inv, _), a, b = trail.pop()
                r[a] = inv[b] = None
            bwd[fwd[c]] = fwd[c] = None
        for d in tries[pos]:
            if bwd[d] is None:
                fwd[c] = d
                bwd[d] = c
                if not traces or deduce(traces, c, d):
                    points[pos + 1] = used = max(points[pos], d + 1)
                    # Once row c is complete, the renumbering from base
                    # coset c is compared as far as it is defined; a leaf
                    # compares every base in full.
                    if g != last or used == c + 1 or not c or renumbered(c)[0] >= 0:
                        pos, descending = pos + 1, True
                        break
                while len(trail) > mark:
                    (r, inv, _), a, b = trail.pop()
                    r[a] = inv[b] = None
                fwd[c] = bwd[d] = None
        else:
            pos, descending = pos - 1, False
    budget[0] = nodes


# ---------------------------------------------------------------------------
# Intersection and normal core
# ---------------------------------------------------------------------------


def intersect(t1: CosetTable, t2: CosetTable, cap: int | None = None) -> CosetTable:
    """Table of H1 n H2: the component of (0, 0) in the product action,
    numbered by a BFS in the order ``canonicalize`` uses.  The pair of
    cosets (a, b) is held as the integer a * n2 + b, and each generator's
    row of the result is filled as the BFS reads its letter.

    Once more than ``cap`` cosets are numbered, the partial table is
    dropped and the rest of the component is only counted, in a set of
    pair codes, before IntersectionTooLarge reports the full index."""
    if t1.pres != t2.pres:
        raise ValueError("tables must share an ambient presentation")
    n2 = t2.index
    limit = t1.index * n2 if cap is None else cap  # the index is at most n1 * n2
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
        if len(order) > limit:
            break
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
    else:
        return CosetTable(pres=t1.pres, perms=tuple(map(tuple, rows)))
    unread = order[number[code]:]
    order = rows = steps = row = None  # free the partial table
    seen = set(number)
    number = None
    # the letters' images alone reach the whole component: the action is
    # by permutations of a finite set
    forward = list(zip(t1.perms, t2.perms))
    while unread:
        a, b = divmod(unread.pop(), n2)
        for fwd1, fwd2 in forward:
            nxt = fwd1[a] * n2 + fwd2[b]
            if nxt not in seen:
                seen.add(nxt)
                unread.append(nxt)
    raise IntersectionTooLarge(len(seen), cap)


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
