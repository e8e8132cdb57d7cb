"""Covering towers for free products A * Z with a prescribed fixed-vertex
ratio.

A finite cover of the wedge realizing A * Z is exactly a transitive action:
permutations of the A-generators whose orbits all have size 1 or |A|, plus
one free permutation sigma for the Z factor.  Edges of the covering graph
are the n points, vertices are the A-orbits.  The tower construction keeps
the fixed-vertex fraction mu exactly constant while multiplying the point
count and (by a seeded search over lift twists valued in small dihedral
2-groups) strictly growing the radius on which the universal tree maps
injectively into the cover.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from .cosets import DEFAULT_COSET_CAP, CosetTable, enumerate_cosets, schreier_transversal, validate
from .errors import BudgetError, InternalInvariantError
from .homology import DEFAULT_PRIMES, homology_report
from .subgroups import subgroup_homology
from .words import Presentation, csv_table, frac_str, read_only

DEFAULT_GROUP_ORDER_CAP = 1_000
STABLE_LETTER = "t"  # the generator of the Z factor
DEFAULT_RADIUS_CAP = 64
DEFAULT_SEARCH_RESTARTS = 6
DEFAULT_SEARCH_MOVES = 300_000
DEFAULT_TOWER_SCALE = 12  # multiplies the level-0 counts of fixed points and regular blocks
BASE_POINT_CAP = 5_000  # points of a level-0 cover
ROUTE_TRIES = 200  # at most 200 seeded sigma routes scored per level-0 layout


# ---------------------------------------------------------------------------
# Finite group data
# ---------------------------------------------------------------------------


class FiniteGroupData(namedtuple("FiniteGroupData", "pres table order rank b1p")):
    """Regular representation and invariants of a finite presented group:
    ``table`` is the action on the |A| elements (identity = 0) and ``rank``
    the minimal generating-set size, found by brute force."""

    __slots__ = ()


def _brute_force_rank(table):
    """Smallest k such that some k of the elements generate; order <= cap
    keeps this a desk-size search."""
    n = table.index
    if n == 1:
        return 0
    words, _ = schreier_transversal(table)

    def closure(seed_ids):
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s in seed_ids:
                y = table.apply(words[s], x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return len(seen)

    from itertools import combinations

    for k in range(1, n + 1):
        for combo in combinations(range(1, n), k):
            if closure(combo) == n:
                return k
    raise AssertionError("unreachable: the full element set generates")


def finite_group_data(pres: Presentation):
    """Enumerate a finite presented group of order at most
    DEFAULT_GROUP_ORDER_CAP and compute |A|, d(A), b1p(A)."""
    table = enumerate_cosets(pres, cap=DEFAULT_GROUP_ORDER_CAP)
    report = homology_report(pres)
    if report.beta1 != 0:
        raise ValueError("the base group is infinite (beta1 > 0)")
    return FiniteGroupData(
        pres=pres,
        table=table,
        order=table.index,
        rank=_brute_force_rank(table),
        b1p=dict(report.b1p),
    )


# ---------------------------------------------------------------------------
# Cover graphs
# ---------------------------------------------------------------------------


class CoverGraph:
    """Transitive (A, sigma)-action on n points; base point 0.

    Points are the edges of the covering graph, A-orbits its vertices; every
    A-orbit has size 1 or |A|.  ``a_perms`` holds one permutation per
    generator of A.
    """

    def __init__(self, group, n, a_perms, sigma):
        self.__dict__.update(group=group, n=n, a_perms=a_perms, sigma=sigma)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.n, self.a_perms, self.sigma) == (
            other.group, other.n, other.a_perms, other.sigma
        )

    @cached_property
    def _orbit_map(self):
        """(A-orbits, orbit id of each point), computed once per cover."""
        ids = [None] * self.n
        orbits = []
        for x in range(self.n):
            if ids[x] is not None:
                continue
            i = len(orbits)
            ids[x] = i
            orbit = [x]
            for y in orbit:
                for p in self.a_perms:
                    z = p[y]
                    if ids[z] is None:
                        ids[z] = i
                        orbit.append(z)
            orbits.append(tuple(sorted(orbit)))
        return orbits, ids

    def orbits(self):
        """A-orbits as a list of sorted tuples, ordered by minimum point."""
        return list(self._orbit_map[0])

    def orbit_ids(self):
        return self._orbit_map[1]

    @property
    def num_vertices(self):
        return len(self._orbit_map[0])

    @property
    def mu(self):
        orbits = self._orbit_map[0]
        fixed = sum(1 for o in orbits if len(o) == 1)
        return Fraction(fixed, len(orbits))

    def check_invariants(self):
        """Raise ValueError unless every A-orbit has size 1 or |A| and the
        action is a valid (bijective, transitive) coset table of A * Z."""
        a = self.group.order
        for orbit in self._orbit_map[0]:
            if len(orbit) not in (1, a):
                raise ValueError(f"A-orbit of size {len(orbit)}, expected 1 or {a}")
        problems = validate(cover_table(self))
        if problems:
            raise ValueError("invalid cover: " + "; ".join(problems))


def ambient_presentation(a_pres: Presentation) -> Presentation:
    """Presentation of A * Z: A's generators and relators plus the free
    letter STABLE_LETTER."""
    if STABLE_LETTER in a_pres.generators:
        raise ValueError(f"generator name {STABLE_LETTER!r} already used")
    return Presentation(
        generators=a_pres.generators + (STABLE_LETTER,), relators=a_pres.relators
    )


def cover_table(cover: CoverGraph) -> CosetTable:
    """The cover as a coset table for A * Z (points = cosets of the
    base-point stabilizer)."""
    return CosetTable(
        pres=ambient_presentation(cover.group.pres),
        perms=cover.a_perms + (cover.sigma,),
    )


# ---------------------------------------------------------------------------
# Injectivity radius
# ---------------------------------------------------------------------------


def injectivity_radius(cover: CoverGraph, cap: int = DEFAULT_RADIUS_CAP) -> int:
    """Largest k such that the radius-k vertex ball around the base vertex
    of the universal covering tree maps injectively into the covering graph.

    The covering graph has the A-orbits as vertices and one edge per point x
    (from the orbit of x to the orbit of x.sigma); its universal cover is
    explored as the non-backtracking edge walks from the base orbit, and the
    first walk ending at an already reached vertex has length k + 1.
    Returns cap when the ball is still injective there (radius at least cap).
    """
    seen = set()
    for vertex, _, length, _ in _nb_walks(cover, cap):
        if vertex in seen:
            return length - 1
        seen.add(vertex)
    return cap


def _edge_graph(cover: CoverGraph):
    """(base vertex, out-edges by vertex, head of an edge) of the covering
    graph: the directed edge (x, +1) runs orbit(x) -> orbit(sigma(x)) and
    (x, -1) runs back."""
    ids = cover.orbit_ids()
    sigma = cover.sigma
    out_edges = {}
    for x in range(cover.n):
        out_edges.setdefault(ids[x], []).append((x, 1))
        out_edges.setdefault(ids[sigma[x]], []).append((x, -1))

    def head(edge):
        x, d = edge
        return ids[sigma[x]] if d == 1 else ids[x]

    return ids[0], out_edges, head


# ---------------------------------------------------------------------------
# Tower construction
# ---------------------------------------------------------------------------


def _radius_floor(plan):
    """Least injectivity radius of any route following `plan`.

    A fixed point is an orbit with exactly two edges, so the two walks from
    a fixed base point 0 run along paths of new vertices until they reach
    the hubs of the nearest regular (None) slots, R cycle steps to the
    right and L to the left.  The ball of radius m = min(L, R) is therefore
    injective whatever the route, unless L = R and both walks may reach the
    same hub at length m; then only radius m - 1 is certain.  With no fixed
    points (mu = 0) the floor is 0.
    """
    if 0 not in plan:
        return 0
    i, size = plan.index(0), len(plan)
    right = next(k for k in range(1, size + 1) if plan[(i + k) % size] is None)
    left = next(k for k in range(1, size + 1) if plan[(i - k) % size] is None)
    return min(left, right) - (left == right)


def _base_cover(group, mu: Fraction, scale: int, rng_seed: int = 0, chain_len: int = None):
    """Level-0 layout: `regular` blocks carrying the regular representation,
    then fixed points.

    sigma is a single long cycle routed to keep the graph sparse: regular
    points are visited round-robin across the blocks (so consecutive regular
    points lie in different orbits whenever there is more than one block)
    and the fixed points are spread between them as evenly as possible,
    forming chains of degree-2 vertices.

    The scan keeps the first clean route of least radius, and no route can
    score below min(_radius_floor(plan), DEFAULT_RADIUS_CAP), so it stops at
    the first clean route at that bound: no later route has a strictly
    greater (clean, -radius) key and the rng is local, so the cover is the
    one the full ROUTE_TRIES scan returns.  A radius below the bound raises
    InternalInvariantError.
    """
    a = group.order
    fixed = mu.numerator * scale
    regular = (mu.denominator - mu.numerator) * scale
    if regular == 0:
        raise ValueError("mu = 1 is not realizable by finite covers of this kind")
    n = fixed + a * regular
    if n > BASE_POINT_CAP:
        raise ValueError(
            f"mu = {mu} at scale {scale} needs {n} points, over the cap {BASE_POINT_CAP}; "
            f"the minimal point count for this mu is {mu.numerator + a * (mu.denominator - mu.numerator)}"
        )
    # fixed points first (so the base point 0 is fixed whenever mu > 0),
    # then the regular blocks
    a_perms = []
    for g in range(group.pres.rank):
        perm = list(range(n))
        for block in range(regular):
            for e in range(a):
                x = fixed + block * a + e
                perm[x] = fixed + block * a + group.table.perms[g][e]
        a_perms.append(tuple(perm))
    a_perms = tuple(a_perms)
    block_points = [list(range(fixed + b * a, fixed + (b + 1) * a)) for b in range(regular)]

    def cover_for(route):
        sigma = [0] * n
        for i, x in enumerate(route):
            sigma[x] = route[(i + 1) % n]
        return CoverGraph(group=group, n=n, a_perms=a_perms, sigma=tuple(sigma))

    def edge_profile(cover):
        """(max multiplicity, loop count) of the covering graph."""
        ids, sigma = cover.orbit_ids(), cover.sigma
        counts = {}
        loops = 0
        for x in range(n):
            u, v = ids[x], ids[sigma[x]]
            if u == v:
                loops += 1
            key = (min(u, v), max(u, v))
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values()), loops

    # Seeded route search.  Loops and edges of multiplicity 3+ can never be
    # separated by the 2-fold lifts, so they would freeze the injectivity
    # radius for the whole tower; insist on a clean profile, then keep the
    # route with the largest radius.
    # Half the fixed points form one chain of degree-2 vertices with the base
    # point at its center, so balls around the base grow linearly instead of
    # branching at a hub; the rest are spread along the regular route to thin
    # out hub-to-hub adjacencies.
    if chain_len is None:
        chain_len = max(fixed // 2, min(fixed, 1))
    chain_len = min(chain_len, fixed)
    # without a base chain the base point is spread with the others
    others = list(range(1 if chain_len else 0, fixed))
    cut = max(chain_len - 1, 0)
    chain_rest, spread = others[:cut], others[cut:]
    half = len(chain_rest) // 2
    # Route plan: the base chain, then regular slots (None) with the
    # remaining fixed points spread among them as evenly as possible.
    plan = chain_rest[:half] + [0] + chain_rest[half:] if chain_len else []
    credit = Fraction(0)
    per_slot = Fraction(len(spread), a * regular)
    placed = 0
    for _ in range(a * regular):
        plan.append(None)
        credit += per_slot
        while credit >= 1 and placed < len(spread):
            plan.append(spread[placed])
            placed += 1
            credit -= 1
    plan.extend(spread[placed:])

    floor = min(_radius_floor(plan), DEFAULT_RADIUS_CAP)
    rng = random.Random(rng_seed)
    best = None
    for _ in range(ROUTE_TRIES):
        # greedy assignment: never put two points of the same hub next to
        # each other and never use a direct hub pair more than twice; live
        # lists the blocks with points left in ascending order, so the
        # candidates come out sorted
        remaining = [list(points) for points in block_points]
        live = list(range(regular))
        pair_count = [[0] * regular for _ in range(regular)]
        route = []
        prev_hub = None
        ok = True
        for fixed_point in plan:
            if fixed_point is not None:
                route.append(fixed_point)
                prev_hub = None
                continue
            if prev_hub is None:
                candidates = live
            else:
                row = pair_count[prev_hub]
                candidates = [b for b in live if b != prev_hub and row[b] < 2]
                if not candidates and regular == 1:
                    candidates = live
            if not candidates:
                ok = False
                break
            b = rng.choice(candidates)
            points = remaining[b]
            route.append(points.pop())
            if not points:
                live.remove(b)
            if prev_hub is not None:
                pair_count[b][prev_hub] += 1
                pair_count[prev_hub][b] += 1
            prev_hub = b
        if not ok:
            continue
        cover = cover_for(route)
        multiplicity, loops = edge_profile(cover)
        clean = loops == 0 and multiplicity <= 2
        radius = injectivity_radius(cover)
        if radius < floor:
            raise InternalInvariantError(f"route radius {radius} below its floor {floor}")
        # prefer clean routes with a small starting radius: the lifts can
        # only push the radius up, so headroom below the structural ceiling
        # is what makes a deep tower possible
        key = (clean, -radius)
        if best is None or key > best[0]:
            best = (key, cover)
        if clean and radius == floor:
            break
    if best is None:
        raise ValueError(
            f"no route satisfying the hub constraints found for mu={mu}, "
            f"scale={scale}; try a larger scale"
        )
    (clean, _), cover = best
    if not clean and regular > 1:
        raise ValueError(
            f"no loop-free route with edge multiplicity <= 2 found for mu={mu}, "
            f"scale={scale}; try a larger scale"
        )
    return cover


def _dihedral_mul(g, h, k):
    """Dihedral group of order k (k a power of 2, k >= 2) on labels
    b + 2a for the element r^a f^b; reducing a label mod a smaller power
    of 2 is then exactly the quotient map between the dihedral groups,
    which is what lets one twist vector serve every level at once."""
    half = k >> 1
    b, a = g & 1, g >> 1
    d, c = h & 1, h >> 1
    return (b ^ d) + 2 * ((a + (-c if b else c)) % half)


def _dihedral_inv(g, k):
    half = k >> 1
    if g & 1:
        return g  # reflections are involutions
    return 2 * ((-(g >> 1)) % half)


def _default_order(j):
    """Copy-group order of level j >= 1 before any bump: 2, 8, 16, ..."""
    return 2 if j == 1 else 2 ** (j + 1)


def _copy_orders(walks, r0, depth):
    """Copy-group orders per level for the walks of a layout up to length
    r0 + depth: 2, 8, 16, ... by default, bumped per level until a vertex's
    walk count fits into the copy group (pigeonhole: more walks than group
    elements in a window is a guaranteed collision).  The jump from 2 to 8
    skips the abelian groups of order 4; level 2 needs a nonabelian copy
    group, since commuting-cycle walk pairs with equal signed point
    multisets collide in every abelian lift."""
    per_vertex = {}
    for v, _, ln, _ in walks:
        counts = per_vertex.setdefault(v, [0] * (r0 + depth + 1))
        counts[ln] += 1
    orders = []
    k = 1
    bumped = False
    for j in range(1, depth + 1):
        default = _default_order(j)
        need = max(sum(counts[: r0 + j + 1]) for counts in per_vertex.values())
        k = max(2 * k, default, 1 << (need - 1).bit_length())
        bumped = bumped or k > default
        orders.append(k)
    return orders, bumped


def _nb_walks(cover, maxlen):
    """The non-backtracking edge walks from the base vertex of length up to
    maxlen, lazily in BFS order, as (endpoint vertex, path of (point,
    direction), length, parent).  The walks form a prefix tree: walk i > 0
    is its parent walk (an earlier index) extended by the last edge of its
    path; the empty walk 0 has parent -1."""
    base, out_edges, head = _edge_graph(cover)
    yield base, (), 0, -1
    frontier = [(0, base, ())]  # (index, endpoint, path) of the last length
    count = 1
    for length in range(1, maxlen + 1):
        nxt = []
        for parent, vertex, path in frontier:
            arrived = path[-1] if path else None
            for edge in out_edges.get(vertex, ()):
                if arrived is not None and edge == (arrived[0], -arrived[1]):
                    continue  # backtracking
                walk = (head(edge), path + (edge,), length, parent)
                nxt.append((count, walk[0], walk[1]))
                count += 1
                yield walk
        frontier = nxt


def _walks_within(cover, maxlen, limit):
    """The walks of _nb_walks(cover, maxlen) as a list, or None as soon as
    some endpoint vertex has more than limit of them."""
    walks, count = [], {}
    for walk in _nb_walks(cover, maxlen):
        count[walk[0]] = count.get(walk[0], 0) + 1
        if count[walk[0]] > limit:
            return None
        walks.append(walk)
    return walks


class _TwistSearch:
    """Seeded annealing search for one twist vector giving every level of the
    tower its exact radius.

    A walk in the level-j lift ends at (base vertex, g mod k_j) where g is
    the ordered product of the twist labels along the walk (inverted against
    the direction).  The radius of level j is therefore read off the base
    walks alone: it is at least r0 + j iff no two walks of length <= r0 + j
    agree in (vertex, product mod k_j), and at most r0 + j iff some pair of
    length <= r0 + j + 1 does.  One constraint (spec) per such window pins the
    radii to exactly r0, r0 + 1, ..., r0 + depth - 1, >= r0 + depth: the
    first depth specs forbid collisions, the rest (ceilings) demand one.

    The walks form a BFS prefix tree, so a walk's product is its parent's
    product times the label of its last edge, and the walks of length <= lim
    are a prefix of the walk list.  A walk's key is the int
    v * kmax + (g mod k), a bijective image of (v, g mod k).

    A forbid spec counts walks by key in a dict that drops a key whose count
    reaches 0: _conflict_point draws a colliding key from its insertion
    order.  A ceiling is read only as met or unmet, so instead of a table
    it keeps a witness, one colliding walk pair of its window (None when
    unmet), and its total is 1 or 0.  A move keeps the pair while it still
    collides under the new products; only when it does not is the window
    rescanned.  A move saves the products, the table list and the totals,
    and updates a copy of each forbid dict, so a rejected move is undone
    by restoring the saved objects, leaving every table as it was, key
    order included."""

    def __init__(self, base, walks, r0, depth, orders):
        self.r0 = r0
        self.depth = depth
        self.orders = orders
        self.n0 = base.n
        kmax = orders[-1]
        self.kmax = kmax
        self.mul = [[_dihedral_mul(g, h, kmax) for h in range(kmax)] for g in range(kmax)]
        self.inv = [_dihedral_inv(g, kmax) for g in range(kmax)]
        self.walks = walks
        self.specs = [(r0 + j, orders[j - 1], True) for j in range(1, depth + 1)]
        self.specs += [(r0 + j + 1, orders[j - 1], False) for j in range(1, depth)]
        # walks 0 .. ends[si] - 1 are the window of spec si
        self.ends = [sum(1 for w in walks if w[2] <= lim) for lim, _, _ in self.specs]
        self.parent = [w[3] for w in walks]
        self.last = [w[1][-1] if w[1] else None for w in walks]
        self.vkey = [w[0] * kmax for w in walks]
        # walks by endpoint vertex, each list in index order
        self.at_vertex = {}
        for i, w in enumerate(walks):
            self.at_vertex.setdefault(w[0], []).append(i)
        through = {}
        for i, (_, path, _, _) in enumerate(walks):
            for x, _ in path:
                through.setdefault(x, set()).add(i)
        # The walks through x are closed under extension.  Their products
        # are recomputed in index order (parents first); a copy of each
        # forbid table (specs 0 .. depth - 1) is then updated over its
        # window's share of them in the set's iteration order.  An accepted
        # move thus moves a key whose count drops to 0 and comes back to the
        # end of its dict, in an order the set fixes; a rejected move leaves
        # the old dict and its order untouched.  That order fixes every draw
        # of _conflict_point.
        self.below = {x: sorted(members) for x, members in through.items()}
        self.members = {
            x: [[i for i in members if i < end] for end in self.ends[:depth]]
            for x, members in through.items()
        }
        # per forbid spec, (table, its colliding keys) as last listed by
        # _conflict_point: a stored table is never changed, so the list
        # holds while the spec keeps the same table object
        self._bad = [None] * depth

    def feasible(self):
        """Cheap necessary conditions on the layout, checked before burning
        the annealing budget.  Mod 2 the walk products are linear in the
        twist reflection bits, so the level-1 constraints form a GF(2)
        system; it must be solvable, and when a level-1 ceiling is demanded
        some fresh length-(r0+2) pair must be free to collide under it.
        (No vertex can carry more than k_j walks in the level-j window:
        _copy_orders sized every k_j to the largest such count.)

        A row is an int: bit 0 is the right-hand side, bit x + 1 the
        reflection bit of point x.  A row joins the basis reduced against
        every earlier basis row, so the basis has distinct top bits, each
        absent from the rows after it, and one pass in order reduces a row."""
        masks = [0] * len(self.walks)  # points passed an odd number of times
        for i, (_, path, _, parent) in enumerate(self.walks):
            if path:
                masks[i] = masks[parent] ^ (2 << path[-1][0])
        basis = []

        def reduce(row):
            for b in basis:
                row = min(row, row ^ b)
            return row

        for members in self.at_vertex.values():
            inner = [i for i in members if self.walks[i][2] <= self.r0 + 1]
            for a in range(len(inner)):
                for b in range(a + 1, len(inner)):
                    row = reduce(masks[inner[a]] ^ masks[inner[b]] | 1)
                    if row == 1:
                        return False, "two walks share every point mod 2, forcing a collision"
                    if row:
                        basis.append(row)
        if self.depth < 2:
            return True, ""
        # level-1 ceiling: some pair entering at length r0 + 2 must not be
        # forced odd by the system above
        for members in self.at_vertex.values():
            window = [i for i in members if self.walks[i][2] <= self.r0 + 2]
            for a in range(len(window)):
                for b in range(a + 1, len(window)):
                    i, j = window[a], window[b]
                    if max(self.walks[i][2], self.walks[j][2]) != self.r0 + 2:
                        continue
                    if reduce(masks[i] ^ masks[j]) != 1:
                        return True, ""
        return False, "every fresh pair in the ceiling window is forced apart mod 2"

    def _products(self, twists):
        mul, inv, parent, last = self.mul, self.inv, self.parent, self.last
        prods = [0] * len(self.walks)
        for i in range(1, len(prods)):
            y, d = last[i]
            prods[i] = mul[prods[parent[i]]][twists[y] if d == 1 else inv[twists[y]]]
        return prods

    def _tables(self, prods):
        """Per forbid spec a count dict and its number of colliding pairs;
        per ceiling spec a witness pair and 1, or None and 0."""
        tables, totals = [], []
        vkey = self.vkey
        for si, ((_, k, forbid), end) in enumerate(zip(self.specs, self.ends)):
            if forbid:
                counter = {}
                for i in range(end):
                    key = vkey[i] + prods[i] % k
                    counter[key] = counter.get(key, 0) + 1
                tables.append(counter)
                totals.append(sum(m * (m - 1) // 2 for m in counter.values()))
            else:
                pair = self._witness(si, prods)
                tables.append(pair)
                totals.append(0 if pair is None else 1)
        return tables, totals

    def _witness(self, si, prods):
        """The first pair of walks in spec si's window that collide, or None."""
        k = self.specs[si][1]
        vkey = self.vkey
        seen = {}
        for i in range(self.ends[si]):
            key = vkey[i] + prods[i] % k
            if key in seen:
                return seen[key], i
            seen[key] = i
        return None

    def _objective(self, totals):
        obj = 0
        for (_, _, forbid), total in zip(self.specs, totals):
            obj += total if forbid else (1 if total == 0 else 0)
        return obj

    def _change(self, twists, x, value, prods, tables, totals):
        """Set twist x to value: save prods, tables and totals for _undo,
        recompute the products of the walks through x, update a copy of
        each forbid table, and update the ceiling pairs."""
        old = prods[:]
        self._saved = old, tables[:], totals[:]
        twists[x] = value
        mul, inv, parent, last = self.mul, self.inv, self.parent, self.last
        for i in self.below[x]:
            y, d = last[i]
            prods[i] = mul[prods[parent[i]]][twists[y] if d == 1 else inv[twists[y]]]
        vkey = self.vkey
        for si, members in enumerate(self.members[x]):
            k = self.specs[si][1]
            counter, total = tables[si].copy(), totals[si]
            for i in members:
                r_old, r = old[i] % k, prods[i] % k
                if r_old != r:
                    key = vkey[i] + r_old
                    m = counter[key]
                    total -= m - 1
                    if m == 1:
                        del counter[key]
                    else:
                        counter[key] = m - 1
                    key = vkey[i] + r
                    m = counter.get(key, 0)
                    total += m
                    counter[key] = m + 1
            tables[si], totals[si] = counter, total
        for si in range(self.depth, len(self.specs)):
            pair = tables[si]
            if pair is not None:
                i, j = pair
                k = self.specs[si][1]
                if prods[i] % k == prods[j] % k:
                    continue
            tables[si] = pair = self._witness(si, prods)
            totals[si] = 0 if pair is None else 1

    def _undo(self, twists, x, value, prods, tables, totals):
        """Take back the last _change, made at x, which had the twist value,
        by restoring what it saved."""
        twists[x] = value
        prods[:], tables[:], totals[:] = self._saved

    def _conflict_point(self, prods, tables, totals, rng):
        """A point to re-draw, or None: a random unmet spec, then for a
        forbidding spec a random walk of a random colliding key, for a
        demanding one a random nonempty walk of its window, then a random
        point of that walk's path.

        The members of a key v * kmax + r are the walks at vertex v in the
        window with product = r mod k, listed in index order from the
        vertex's walk list rather than by a scan of the whole window.  A
        table's colliding keys are listed once and reused while the spec
        keeps that table, as it does after a rejected move."""
        unmet = [
            si
            for si, (_, _, forbid) in enumerate(self.specs)
            if (totals[si] > 0) == forbid
        ]
        if not unmet:
            return None
        si = rng.choice(unmet)
        _, k, forbid = self.specs[si]
        if forbid:
            table, cached = tables[si], self._bad[si]
            if cached is None or cached[0] is not table:
                cached = self._bad[si] = table, [key for key, m in table.items() if m > 1]
            v, r = divmod(rng.choice(cached[1]), self.kmax)
            end = self.ends[si]
            members = [i for i in self.at_vertex[v] if i < end and prods[i] % k == r]
        else:
            members = range(1, self.ends[si])
        path = self.walks[rng.choice(members)][1]
        if not path:
            return None
        return rng.choice(path)[0]

    def solve(self, rng):
        """Min-conflicts annealing over twist vectors; the budget is counted
        in moves, not wall time, so runs are reproducible."""
        for _ in range(DEFAULT_SEARCH_RESTARTS):
            twists = [rng.randrange(self.kmax) for _ in range(self.n0)]
            prods = self._products(twists)
            tables, totals = self._tables(prods)
            obj = self._objective(totals)
            temperature = 3.0
            for _ in range(DEFAULT_SEARCH_MOVES):
                if obj == 0:
                    return twists
                x = self._conflict_point(prods, tables, totals, rng)
                if x is None:
                    break
                old = twists[x]
                value = rng.randrange(self.kmax)
                if value == old:
                    continue
                self._change(twists, x, value, prods, tables, totals)
                new_obj = self._objective(totals)
                delta = new_obj - obj
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    obj = new_obj
                else:
                    self._undo(twists, x, old, prods, tables, totals)
                temperature = max(0.15, temperature * 0.99995)
            if obj == 0:
                return twists
        return None


def _lift(base, twists, k):
    """Degree-k cover of the level-0 cover: points x + c*n0 for copy labels
    c in the order-k dihedral group; the A-action acts blockwise and sigma
    right-multiplies the copy label by the twist of the base point."""
    n0 = base.n
    n = n0 * k
    a_perms = tuple(
        tuple(p[x % n0] + (x // n0) * n0 for x in range(n)) for p in base.a_perms
    )
    sigma = [0] * n
    for x in range(n):
        c = x // n0
        t = twists[x % n0] % k
        sigma[x] = base.sigma[x % n0] + _dihedral_mul(c, t, k) * n0
    return CoverGraph(group=base.group, n=n, a_perms=a_perms, sigma=tuple(sigma))


def check_projection(upper: CoverGraph, lower: CoverGraph):
    """Block-map certificate: reducing points mod lower.n commutes with both
    actions, so the upper cover factors through the lower one."""
    n = lower.n
    if upper.n % n != 0:
        raise ValueError("point counts do not nest")
    for pu, pl in zip(upper.a_perms, lower.a_perms):
        for x in range(upper.n):
            if pu[x] % n != pl[x % n]:
                raise ValueError("A-action does not project")
    for x in range(upper.n):
        if upper.sigma[x] % n != lower.sigma[x % n]:
            raise ValueError("sigma does not project")


def _layouts(group, mu, scale, seed, depth, errors):
    """Distinct level-0 layouts in the order build_tower tries them, as
    (chain_len, route_seed, base, walks, r0, copy orders): the walks are the
    non-backtracking walks of length up to r0 + depth; walks, r0 and the
    orders are None at depth 0.

    The scan goes over a few degree-2 chain lengths and route seeds; route
    failures are appended to errors.  A layout whose walk counts fit the
    default copy groups is yielded as soon as it is built: those give the
    smallest point counts per level.  Bumped layouts are held back until
    the scan is done, so nothing past the first layout that succeeds is
    built.

    Level depth has n0 * k_depth points, and k_depth is at least its
    default order and any vertex's walk count, so a layout whose level
    depth would pass DEFAULT_COSET_CAP is skipped before its walks are
    built or at the first vertex with too many; the skips are appended to
    errors after the scan."""
    seen = set()
    bumped_layouts, capped = [], []
    for chain_len in (12, 14, None, 8):
        for route_seed in range(4):
            try:
                base = _base_cover(
                    group, mu, scale, rng_seed=seed + route_seed, chain_len=chain_len
                )
            except ValueError as exc:
                errors.append(str(exc))
                continue
            key = (base.sigma, base.a_perms)
            if key in seen:
                continue
            seen.add(key)
            base.check_invariants()
            if depth == 0:
                yield chain_len, route_seed, base, None, None, None
                continue
            limit = DEFAULT_COSET_CAP // base.n  # the largest k_depth within the cap
            walks = orders = None
            if _default_order(depth) <= limit:
                r0 = injectivity_radius(base)
                walks = _walks_within(base, r0 + depth, limit)
            if walks is not None:
                orders, bumped = _copy_orders(walks, r0, depth)
            if orders is None or orders[-1] > limit:
                capped.append(
                    f"layout ({chain_len}, {route_seed}): level {depth} would pass "
                    f"coset cap {DEFAULT_COSET_CAP}"
                )
                continue
            layout = (chain_len, route_seed, base, walks, r0, orders)
            if bumped:
                bumped_layouts.append(layout)
            else:
                yield layout
    errors += capped
    yield from bumped_layouts


def build_tower(
    a_pres: Presentation, mu_target, depth: int, scale: int = DEFAULT_TOWER_SCALE, seed: int = 0
):
    """Nested covers with exactly constant fixed-vertex ratio mu and strictly
    increasing injectivity radius.

    All levels are lifts of one level-0 cover: level j has n0 * k_j points
    for the copy-group orders k_j of _copy_orders, and one twist vector
    drives every level, so the levels project onto each other by reducing
    labels mod k_j (check_projection certifies this).  The layout scan
    (_layouts) tries a few degree-2 chain lengths and route seeds lazily:
    each layout that fits the default copy groups is tried as soon as it is
    built, layouts needing bumped copy groups only after the whole scan.
    A tried layout must pass the feasibility screen, then is annealed for
    twists pinning the radii to r0, r0 + 1, ..., exactly; the first that
    succeeds is returned.  Raises BudgetError when no scanned layout admits
    strictly growing radii (small scales genuinely do not: a loop or a
    triple edge in the covering graph freezes the radius in every lift).
    """
    mu = Fraction(mu_target)
    if not 0 <= mu < 1:
        raise ValueError("mu must satisfy 0 <= mu < 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    group = finite_group_data(a_pres)
    scan_errors, layout_errors = [], []
    layouts = _layouts(group, mu, scale, seed, depth, scan_errors)
    for chain_len, route_seed, base, walks, r0, orders in layouts:
        if depth == 0:
            return [base]
        name = f"layout ({chain_len}, {route_seed})"
        search = _TwistSearch(base, walks, r0, depth, orders)
        ok, why = search.feasible()
        if not ok:
            layout_errors.append(f"{name}: {why}")
            continue
        rng = random.Random(f"{seed}:{chain_len}:{route_seed}")
        twists = search.solve(rng)
        if twists is None:
            layout_errors.append(f"{name}: search budget exhausted")
            continue
        levels = [base]
        radii = [r0]
        good = True
        for j, k in enumerate(orders, start=1):
            lifted = _lift(base, twists, k)
            r = injectivity_radius(lifted)
            if r <= radii[-1]:
                layout_errors.append(f"{name}: radius stalled at level {j}")
                good = False
                break
            try:
                lifted.check_invariants()
                check_projection(lifted, levels[-1])
            except ValueError as exc:
                layout_errors.append(f"{name}: {exc}")
                good = False
                break
            levels.append(lifted)
            radii.append(r)
        if good:
            return levels
    attempts = scan_errors + layout_errors
    raise BudgetError(
        f"no tower of depth {depth} with strictly increasing radius found for "
        f"mu={mu} at scale {scale}: " + "; ".join(attempts[-4:])
    )


# ---------------------------------------------------------------------------
# Predictions and verification
# ---------------------------------------------------------------------------


class Predictions(namedtuple("Predictions", "d beta1 b1p limit_d limit_b1p limit_beta1")):
    """Closed-form level stats of a cover and the three limiting gradients."""

    __slots__ = ()


def predict_stats(order, d_a, b1p_a, n, p, mu, primes=DEFAULT_PRIMES) -> Predictions:
    """Closed-form level stats for a cover with n points, p vertices and
    fixed-vertex fraction mu, plus the three limiting gradients."""
    mu = Fraction(mu)
    weight = mu + (1 - mu) * order
    if n != p * weight:
        raise ValueError(f"inconsistent triple: n={n}, p={p}, mu={mu} (p*weight={p * weight})")
    d = n - p + mu * p * d_a + 1
    beta1 = n - p + 1
    b1p = {q: n - p + mu * p * b1p_a.get(q, 0) + 1 for q in primes}
    return Predictions(
        d=d,
        beta1=Fraction(beta1),
        b1p=b1p,
        limit_d=1 + Fraction(mu * d_a - 1, 1) / weight,
        limit_b1p={q: 1 + (mu * b1p_a.get(q, 0) - 1) / weight for q in primes},
        limit_beta1=1 - 1 / weight,
    )


class LevelComparison(namedtuple(
    "LevelComparison",
    "n p mu radius predicted computed_index computed_rank computed_beta1 computed_b1p "
    "b1p_match beta1_formula",
)):
    """A cover's computed stats against its Predictions: ``computed_rank`` is
    (lower, upper), and ``beta1_formula`` names the closed form the computed
    beta1 matches."""

    __slots__ = ()


def verify_level(cover: CoverGraph, primes=DEFAULT_PRIMES) -> LevelComparison:
    """Computed statistics of a cover against the closed forms.  The rank
    interval is [best homology bound, Kurosh count]: the base-point
    stabilizer is F_{n-p+1} * A^{*f} for the f = mu * p one-point A-orbits
    (a graph of groups with trivial edge groups), so n - p + 1 + f times
    A's generator count elements generate it."""
    group = cover.group
    n = cover.n
    p = cover.num_vertices
    mu = cover.mu
    pred = predict_stats(group.order, group.rank, group.b1p, n, p, mu, primes)
    table = cover_table(cover)
    if table.index != n:
        raise AssertionError("cover table index disagrees with point count")
    report = subgroup_homology(table, primes)
    lower = report.rank_lower
    upper = n - p + 1 + int(mu * p) * group.pres.rank
    if lower > upper:
        raise AssertionError(f"rank bounds crossed: {lower} > {upper}")
    beta1 = report.beta1
    if beta1 == n - p + 1:
        formula = "n-p+1"
    elif beta1 == n - n * p + 1:
        formula = "n-np+1"
    else:
        formula = "neither"
    return LevelComparison(
        n=n,
        p=p,
        mu=mu,
        radius=injectivity_radius(cover),
        predicted=pred,
        computed_index=table.index,
        computed_rank=(lower, upper),
        computed_beta1=beta1,
        computed_b1p=dict(report.b1p),
        b1p_match=all(report.b1p[q] == pred.b1p[q] for q in primes),
        beta1_formula=formula,
    )


class TowerReport(namedtuple("TowerReport", "mu_target levels limit_d limit_b1p limit_beta1")):
    """One LevelComparison per tower level, with the deepest level's limits."""

    __slots__ = ()


def tower_report(covers, primes=DEFAULT_PRIMES) -> TowerReport:
    """Per-level comparisons plus the limit predictions of the deepest level."""
    comparisons = tuple(verify_level(c, primes) for c in covers)
    last = comparisons[-1].predicted
    return TowerReport(
        mu_target=covers[0].mu,
        levels=comparisons,
        limit_d=last.limit_d,
        limit_b1p=dict(last.limit_b1p),
        limit_beta1=last.limit_beta1,
    )


def cover_to_json_obj(cover: CoverGraph):
    return {
        "n": cover.n,
        "generators": {
            name: list(perm)
            for name, perm in zip(cover.group.pres.generators, cover.a_perms)
        },
        "sigma": list(cover.sigma),
    }


def tower_report_to_csv(report: TowerReport) -> str:
    """One row per level; exact rationals as p/q plus 6-place decimal
    columns marked _approx."""
    primes = sorted(report.limit_b1p)
    header = (
        ["level", "n", "p", "mu", "radius", "predicted_d", "predicted_beta1"]
        + [f"predicted_b1p_{q}" for q in primes]
        + ["computed_beta1"]
        + [f"computed_b1p_{q}" for q in primes]
        + ["rank_lower", "rank_upper", "b1p_match", "beta1_formula"]
        + ["gradient_d", "gradient_b1p_2", "gradient_beta1"]
        + ["gradient_d_approx", "gradient_b1p_2_approx", "gradient_beta1_approx"]
    )
    rows = []
    for i, lc in enumerate(report.levels):
        grads = (
            Fraction(lc.predicted.d - 1, lc.n),
            Fraction(lc.computed_b1p.get(2, lc.computed_beta1) - 1, lc.n),
            Fraction(lc.computed_beta1 - 1, lc.n),
        )
        rows.append(
            [i, lc.n, lc.p, frac_str(lc.mu), lc.radius, frac_str(lc.predicted.d), frac_str(lc.predicted.beta1)]
            + [frac_str(lc.predicted.b1p[q]) for q in primes]
            + [lc.computed_beta1]
            + [lc.computed_b1p[q] for q in primes]
            + [lc.computed_rank[0], lc.computed_rank[1], lc.b1p_match, lc.beta1_formula]
            + [frac_str(g) for g in grads]
            + [f"{float(g):.6f}" for g in grads]
        )
    rows.append([])
    rows.append(
        ["limit", "", "", "", "", frac_str(report.limit_d), frac_str(report.limit_beta1)]
        + [frac_str(report.limit_b1p[q]) for q in primes]
    )
    return csv_table(header, rows)


def tower_report_to_obj(report: TowerReport) -> dict:
    levels = []
    for lc in report.levels:
        levels.append(
            {
                "n": lc.n,
                "p": lc.p,
                "mu": frac_str(lc.mu),
                "radius": lc.radius,
                "predicted": {
                    "d": frac_str(lc.predicted.d),
                    "beta1": frac_str(lc.predicted.beta1),
                    "b1p": {str(q): frac_str(v) for q, v in sorted(lc.predicted.b1p.items())},
                },
                "computed": {
                    "index": lc.computed_index,
                    "rank_interval": list(lc.computed_rank),
                    "beta1": lc.computed_beta1,
                    "b1p": {str(q): v for q, v in sorted(lc.computed_b1p.items())},
                },
                "b1p_match": lc.b1p_match,
                "beta1_formula": lc.beta1_formula,
            }
        )
    return {
        "mu_target": frac_str(report.mu_target),
        "levels": levels,
        "limits": {
            "d": frac_str(report.limit_d),
            "b1p": {str(q): frac_str(v) for q, v in sorted(report.limit_b1p.items())},
            "beta1": frac_str(report.limit_beta1),
        },
    }
