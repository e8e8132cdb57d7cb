"""Coset tables and the finite-index subgroup engine.

Todd-Coxeter enumeration (HLT style), exhaustive low-index subgroup search,
subgroup intersection via product actions, and normal cores via the regular
representation of the permutation image.

Conventions: coset 0 is the subgroup itself, words act on the right, and a
table's permutations are listed per generator.  All construction paths
canonicalize the coset numbering by BFS from coset 0 in letter order
(g1, g1^-1, g2, ...), so equal subgroups yield identical tables.

A table alone fixes its subgroup.  Only ``enumerate_cosets`` attaches a
spec, the one it enumerated; the tables of ``low_index``, ``intersect`` and
``normal_core`` carry none, and Schreier generators are built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ImageTooLarge,
    IndexBoundExceeded,
    InternalInvariantError,
    LowIndexBudget,
)
from .words import Presentation, SubgroupSpec, Word, free_reduce, invert

DEFAULT_COSET_CAP = 100_000
DEFAULT_IMAGE_CAP = 1_000_000
DEFAULT_NODE_CAP = 10_000_000

ALGORITHM_VERSION = "rankgradient-cosets-1"

# The subgroup a table without a spec enumerates.
TRIVIAL_SUBGROUP = SubgroupSpec(generators=(), name="trivial")


@dataclass(frozen=True)
class CosetTable:
    """Complete transitive action of the generators on right cosets."""

    pres: Presentation
    perms: tuple  # one permutation (tuple of ints) per generator
    spec: SubgroupSpec | None = field(default=None, compare=False)
    provenance: str = field(default="", compare=False)

    def __post_init__(self):
        inv = tuple(_invert_perm(p) for p in self.perms)
        object.__setattr__(self, "_inv_perms", inv)

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
    out = []
    for g in range(1, rank + 1):
        out.extend((g, -g))
    return out


def _bfs(table: CosetTable):
    """Cosets reachable from 0 in BFS order (letters g1, g1^-1, g2, ...),
    and parent[d] = (coset, letter) of the edge that first reached d (None
    for coset 0 and for unreached cosets)."""
    order = [0]
    parent = [None] * table.index
    letters = _letters(table.pres.rank)
    i = 0
    while i < len(order):
        c = order[i]
        i += 1
        for letter in letters:
            d = table.letter_perm(letter)[c]
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
    return CosetTable(pres=table.pres, perms=perms, spec=table.spec, provenance=table.provenance)


# ---------------------------------------------------------------------------
# Todd-Coxeter (HLT with coincidence processing)
# ---------------------------------------------------------------------------


class _TC:
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


def enumerate_cosets(
    pres: Presentation,
    spec: SubgroupSpec | None = None,
    cap: int = DEFAULT_COSET_CAP,
    provenance: str = "enumerate",
) -> CosetTable:
    """Todd-Coxeter coset enumeration over a finitely presented group.

    Raises IndexBoundExceeded if the table does not close within ``cap``
    live cosets; on success the returned table is verified against all
    CosetTable invariants, so it is never silently wrong.
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

    tc = _TC(pres.rank, cap)
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
                for col in range(2 * pres.rank):
                    if tc.is_alive(alpha) and tc.table[alpha][col] is None:
                        tc.define(alpha, col)
        alpha += 1

    live = [c for c in range(len(tc.table)) if tc.is_alive(c)]
    number = {c: i for i, c in enumerate(live)}
    perms = []
    for g in range(pres.rank):
        perm = []
        for c in live:
            d = tc.table[c][2 * g]
            if d is None:
                raise InternalInvariantError("incomplete table after HLT loop")
            perm.append(number[tc.rep(d)])
        perms.append(tuple(perm))
    table = CosetTable(pres=pres, perms=tuple(perms), spec=spec, provenance=provenance)
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
    return CosetTable(
        pres=table.pres,
        perms=table.perms,
        spec=spec,
        provenance=table.provenance,
    )


# ---------------------------------------------------------------------------
# Low-index subgroup search
# ---------------------------------------------------------------------------


def low_index(pres: Presentation, n_max: int, node_cap: int = DEFAULT_NODE_CAP):
    """All subgroups of index <= n_max, one coset table each.

    Subgroups correspond bijectively to transitive pointed actions with
    canonical (first-touch) coset numbering, so the backtracking emits every
    subgroup exactly once -- not conjugacy representatives.  Output order is
    deterministic: ascending index, then lexicographic table.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    found = []
    budget = [0, node_cap, found]
    for k in range(1, n_max + 1):
        tables = []
        _search_index(pres, k, tables, budget)
        tables.sort()
        for perms in tables:
            found.append(CosetTable(pres=pres, perms=perms, provenance=f"low_index({k})"))
    return found


def _search_index(pres, k, out, budget):
    rank = pres.rank
    relators = pres.relators
    # fwd[g][c] / bwd[g][c]: action of generator g and its inverse.
    fwd = [[None] * k for _ in range(rank)]
    bwd = [[None] * k for _ in range(rank)]
    slots = [(c, g) for c in range(k) for g in range(rank)]

    def relators_ok():
        # Prune on any fully-determined relator trace that fails to close.
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
            # Rows 0..used-1 are closed under the action, so the table can
            # never become transitive on k points: dead branch.
            return
        if fwd[g][c] is not None:
            extend(pos + 1, used)
            return
        limit = min(used + 1, k)
        for d in range(limit):
            if bwd[g][d] is not None:
                continue
            fwd[g][c] = d
            bwd[g][d] = c
            new_used = max(used, d + 1)
            if relators_ok():
                extend(pos + 1, new_used)
            fwd[g][c] = None
            bwd[g][d] = None

    extend(0, 1)


# ---------------------------------------------------------------------------
# Intersection and normal core
# ---------------------------------------------------------------------------


def intersect(t1: CosetTable, t2: CosetTable) -> CosetTable:
    """Table of H1 n H2: the component of (0, 0) in the product action,
    numbered by a BFS in the order ``canonicalize`` uses."""
    if t1.pres != t2.pres:
        raise ValueError("tables must share an ambient presentation")
    letters = _letters(t1.pres.rank)
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
    return CosetTable(pres=t1.pres, perms=perms, provenance="intersect")


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


def normal_core(table: CosetTable, image_cap: int = DEFAULT_IMAGE_CAP) -> CosetTable:
    """Table of the core of H: the regular representation of the image group.

    The core index equals the image order, which can reach index!, hence
    the cap.
    """
    closure = _image_closure(table, image_cap)
    if closure is None:
        raise ImageTooLarge(image_cap)
    elements, number = closure
    perms = tuple(
        tuple(number[tuple(perm[x] for x in e)] for e in elements)
        for perm in table.perms
    )
    return canonicalize(CosetTable(pres=table.pres, perms=perms, provenance="normal_core"))


def contains(table: CosetTable, sub: CosetTable) -> bool:
    """True iff the subgroup of ``sub`` lies in the subgroup of ``table``,
    i.e. iff the coset map sending 0 to 0 and commuting with every letter is
    well defined; it is built along the BFS of ``sub``, checking every edge."""
    image = [None] * sub.index
    image[0] = 0
    letters = _letters(sub.pres.rank)
    for c in _bfs(sub)[0]:
        for letter in letters:
            d = sub.letter_perm(letter)[c]
            e = table.letter_perm(letter)[image[c]]
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
            if table.word_perm(relator) != identity:
                problems.append(f"relator {r_i} does not act as the identity")
        if table.spec is not None and not table.spec.normal:
            for w in table.spec.generators:
                if not table.fixes_base(w):
                    problems.append(f"subgroup generator {w} does not fix coset 0")
    return problems
