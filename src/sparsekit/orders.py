"""Vertex orders, weak reachability, coloring numbers, treedepth.

A vertex u is weakly r-reachable from v under an order when u comes no later
than v and some path of length at most r joins them whose internal vertices
all come strictly after u.  Every vertex is weakly reachable from itself via
the empty path, so wreach sets are never empty.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import (GraphInputError, PreconditionError, raise_if_invalid,
                     require_at_least, require_at_most)
from .graph import (Graph, bfs_distances, foreign_vertices, iter_bits, mask_ball,
                    mask_components)


class VertexOrder:
    __slots__ = ("perm", "rank")

    def __init__(self, perm):
        perm = tuple(perm)
        n = len(perm)
        rank = [-1] * n
        for i, v in enumerate(perm):
            if not (type(v) is int and 0 <= v < n) or rank[v] != -1:
                raise GraphInputError(f"not a permutation of range({n}): {perm}")
            rank[v] = i
        self.perm = perm
        self.rank = tuple(rank)

    def __len__(self):
        return len(self.perm)

    def __eq__(self, other):
        return isinstance(other, VertexOrder) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"VertexOrder({list(self.perm)})"


def identity_order(n: int) -> VertexOrder:
    return VertexOrder(range(n))


def _check_order(g: Graph, order: VertexOrder) -> None:
    if len(order) != g.n:
        raise GraphInputError(f"order on {len(order)} vertices, graph has {g.n}")


def _stream_clusters(g: Graph, order: VertexOrder, r: int, sources=None):
    """The backward searches, from which every view of weak reachability is
    derived: cluster(u) = the vertices u is weakly r-reachable from (u
    included), each a fresh set.  A cluster is connected with radius <= r
    around u, since weak-reach paths stay inside it.

    Yield (u, cluster(u)) for each u of `sources` (every vertex, by id,
    when None), one backward search at a time, so a caller that folds each
    cluster in as it arrives never holds more than one.  The order and the
    radius are checked before `sources` is first read, so `sources` may be
    a generator that looks up ranks."""
    _check_order(g, order)
    require_at_least("r", r, 0)
    rank = order.rank
    for u in (range(g.n) if sources is None else sources):
        yield u, _reach_above(g, rank, u, r)


def wreach_sets(g: Graph, order: VertexOrder, r: int) -> dict:
    """Weak-r-reachability sets for every vertex: the sets of a fresh
    `WReachTable`, frozen."""
    return {v: frozenset(s) for v, s in WReachTable(g, order, r).sets.items()}


def wcol_of_order(g: Graph, order: VertexOrder, r: int) -> int:
    """The largest weak-reach set, counted as cluster memberships, each
    cluster as its search finishes."""
    counts = [0] * g.n
    for _, reach in _stream_clusters(g, order, r):
        for w in reach:
            counts[w] += 1
    return max(counts, default=0)


def _reach_above(g: Graph, rank, u: int, r: int) -> set:
    """The backward search from u: the vertices whose weak-r-reach set
    contains u (u included), found by a BFS of depth r that only moves
    through vertices ranked strictly above u."""
    ru = rank[u]
    seen = {u}
    frontier = [u]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for w in g.adj[x]:
                if w in seen or rank[w] <= ru:
                    continue
                seen.add(w)
                nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return seen


class WReachTable:
    """The weak-r-reach sets of G minus the deleted vertices, kept up to date
    as vertices are deleted instead of recomputed.

    `sets[v]` is WReach_r[v] (v included) for every alive v, taken in the
    subgraph induced on the alive vertices under the order restricted to
    them.  It is the one map kept: each backward search is folded into the
    sets as it ends.  Deleting u changes only the backward searches that
    reached u, the ones from the sources in WReach_r[u], and it only shrinks
    them: a search that never met u takes the same steps without it.
    `delete` runs each of those searches (at most wcol_r) once before and
    once after u's rank becomes -1, so no search enters u again, and drops
    the source from the sets of the vertices it no longer reaches.

    Each dropped membership (w, x) is journaled with u's rank, and
    `rollback` undoes every deletion since the table was built or last
    rolled back, last first, so one table serves any number of trial
    deletion runs at the cost of the vertices they touch.
    """
    __slots__ = ("g", "rank", "r", "sets", "_journal")

    def __init__(self, g: Graph, order: VertexOrder, r: int):
        self.g, self.rank, self.r = g, list(order.rank), r
        self.sets = sets = {v: set() for v in range(g.n)}
        for u, reach in _stream_clusters(g, order, r):
            for w in reach:
                sets[w].add(u)
        self._journal = []

    def wcol(self) -> int:
        """The largest set: wcol_r of the order on the alive vertices."""
        return max(map(len, self.sets.values()), default=0)

    def delete(self, u: int) -> None:
        g, rank, r, sets = self.g, self.rank, self.r, self.sets
        # the searches from the sources in WReach_r[u], while u is alive
        before = [(x, _reach_above(g, rank, x, r)) for x in sets.pop(u)]
        dropped = []
        self._journal.append((u, rank[u], dropped))
        rank[u] = -1
        for x, reach in before:
            # u's own search is gone: every vertex it reached loses u
            lost = reach if x == u else reach - _reach_above(g, rank, x, r)
            for w in lost:
                if w != u:
                    sets[w].discard(x)
                dropped.append((w, x))

    def rollback(self) -> None:
        """Undo the journaled deletions, last first.  A deleted u's set comes
        back from its dropped pairs (u, x): every search that reached u lost
        it."""
        sets = self.sets
        while self._journal:
            u, rank_u, dropped = self._journal.pop()
            self.rank[u] = rank_u
            sets[u] = set()
            for w, x in dropped:
                sets[w].add(x)


class OrderWitness:
    """An order claimed to reach wcol_r = value, kept as given, so that the
    validator measures its length before it parses it.  Whether an exact
    search found it (`optimal`) is not checked, and may be left out."""
    __slots__ = ("r", "value", "order", "optimal")
    kind = "order_witness"

    def __init__(self, r, value, order, optimal=None):
        self.r, self.value, self.order, self.optimal = r, value, order, optimal

    def to_json(self):
        d = {"r": self.r, "value": self.value, "order": list(self.order)}
        return d if self.optimal is None else {**d, "optimal": self.optimal}

    @classmethod
    def from_json(cls, d):
        return cls(d["r"], d["value"], d["order"], d.get("optimal"))


def validate_order_witness(g: Graph, cert: OrderWitness) -> list:
    """Independent check of the claimed wcol_r: a breadth-first search from
    each u through the vertices ranked above u reaches the v whose weak-reach
    set holds u, and those memberships are counted per v.  A search stops
    once it reaches nothing new, so a radius far above n costs no more than
    n.  Returns violations."""
    if len(cert.order) != g.n:
        return [f"order on {len(cert.order)} vertices, graph has {g.n}"]
    rank = VertexOrder(cert.order).rank
    r = cert.r
    if r < 0:
        raise GraphInputError(f"radius must be >= 0, got {r}")
    adj = g.adj
    counts = [1] * g.n  # each set holds its own vertex
    seen_by = list(range(g.n))  # seen_by[w] == u: u's search has reached w
    for u in range(g.n):
        ru = rank[u]
        frontier = [u]
        for _ in range(r):
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if seen_by[w] != u and rank[w] > ru:
                        seen_by[w] = u
                        counts[w] += 1
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
    got = max(counts, default=0)
    return [] if got == cert.value else [f"order achieves wcol_{r} = {got}, claimed {cert.value}"]


# ------------------------------------------------------------ greedy orders

def degeneracy_order(g: Graph) -> VertexOrder:
    """Repeatedly remove a minimum-degree vertex (ties by id); the removal
    sequence reversed is the order.  Its wcol_1 equals the coloring number.

    A heap of (degree, id) with lazy deletion: a lowered degree pushes a new
    entry.  Degrees only fall, so a vertex's current entry pops before its
    outdated ones, which are skipped once the vertex is removed."""
    deg = [g.degree(v) for v in range(g.n)]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    alive = [True] * g.n
    removed = []
    while heap:
        _, v = heapq.heappop(heap)
        if not alive[v]:
            continue
        alive[v] = False
        removed.append(v)
        for w in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return VertexOrder(reversed(removed))


def coloring_number(g: Graph) -> tuple[int, VertexOrder]:
    order = degeneracy_order(g)
    return wcol_of_order(g, order, 1), order


def greedy_wreach_order(g: Graph, r: int) -> VertexOrder:
    """Fill positions right to left; each step places the vertex that keeps
    the worst already-determined wreach size smallest (ties by id).

    Placing x below the current suffix finalizes exactly the pairs where x is
    weakly reached through suffix vertices, so the partial maximum is exact.
    Placed vertices have rank 1 and the others rank 0, so the backward search
    from an unplaced x moves only through the suffix.

    The score of an unplaced y, the largest count its search reaches plus
    one, is kept instead of rescanned.  Scores and the running maximum only
    grow, so the least (max(running maximum, score), id) is read off two lazy
    heaps: (score, id) for the scores above the maximum, and the ids whose
    score is at most the maximum.  Placing x changes only the searches that
    meet x's search R: a path from an unplaced y into R runs through placed
    vertices, so y is an unplaced neighbour of a placed vertex within r-1 of
    R.  Only those are searched again.
    """
    rank = [0] * g.n
    counts = [0] * g.n
    reach = [{y} for y in range(g.n)]  # nothing placed: each search finds itself
    score = [1] * g.n
    above = [(1, y) for y in range(g.n)]  # (score, id), scores above cur_max
    within = []  # ids whose score was at most cur_max when pushed
    placed = set()
    suffix = []  # placement sequence, last position first
    cur_max = 0
    while len(suffix) < g.n:
        while above and above[0][0] <= cur_max:
            s, y = heapq.heappop(above)
            if s == score[y] and not rank[y]:
                heapq.heappush(within, y)
        while within and (rank[within[0]] or score[within[0]] > cur_max):
            heapq.heappop(within)
        if within:
            x = heapq.heappop(within)
        else:
            s, x = heapq.heappop(above)
            while s != score[x] or rank[x]:
                s, x = heapq.heappop(above)
            cur_max = s
        reached = reach[x]
        for w in reached:
            counts[w] += 1
        rank[x] = 1
        placed.add(x)
        suffix.append(x)
        if r < 1:
            continue
        near = bfs_distances(g, reached, r - 1, placed)
        for y in {y for z in near for y in g.adj[z] if not rank[y]}:
            reach[y] = _reach_above(g, rank, y, r)
            s = max(counts[w] for w in reach[y]) + 1
            if s != score[y]:
                score[y] = s
                heapq.heappush(above, (s, y))
    return VertexOrder(reversed(suffix))


ORDER_NAMES = ("degeneracy", "greedy", "identity")


def build_order(g: Graph, name: str, r: int) -> VertexOrder:
    """The order named `name` (one of ORDER_NAMES); `r` is the radius the
    greedy order is tuned for."""
    if name == "degeneracy":
        return degeneracy_order(g)
    if name == "greedy":
        return greedy_wreach_order(g, r)
    if name == "identity":
        return identity_order(g.n)
    raise PreconditionError(f"unknown order strategy {name!r}")


# ------------------------------------------------------------- exact search

def _completion_floor(masks, counts, unplaced: int, enough=None) -> int:
    """A lower bound, for r >= 1, on the largest final wreach count among
    the `unplaced` vertices over every way of placing them after the prefix
    that left `counts` (for each unplaced w, the placed vertices already
    known to be in WReach_r[w]).

    Each unplaced neighbour placed before w is adjacent to w and ranked below
    it, so w ends with at least counts[w] + 1 + (its unplaced neighbours
    placed first).  Within any subset L of the unplaced vertices, the one
    placed last meets all its L-neighbours first, so some w in L ends with
    at least key_L(w) = counts[w] + 1 + |N(w) & L|, and the least key of L is
    a floor.  Removing the least-key vertex over and over (smallest last,
    weighted by the counts) and keeping the largest least key takes the best
    of these floors along the way.  Every w is the least at its own removal,
    so the floor is never below counts[w] + 1.  Given `enough`, the removals
    stop once the floor reaches it, and the value returned is then only some
    floor of at least `enough`: all a search that cuts there needs.  With all
    counts 0 a key is 1 + a degree in L, and the removals are the smallest-last
    peel, ties to the least id, so `_TreedepthSearch` reads degeneracy + 1 here."""
    floor = 0
    left = unplaced
    while left:
        least = None
        rest = left
        while rest:  # iter_bits inlined: this runs at nearly every search node
            low = rest & -rest
            w = low.bit_length() - 1
            key = counts[w] + 1 + (masks[w] & left).bit_count()
            if least is None or key < least:
                least, last = key, low
            rest ^= low
        if least > floor:
            floor = least
            if enough is not None and floor >= enough:
                break
        left ^= last
    return floor


def wcol_exact(g: Graph, r: int, cap: int = 10) -> tuple[int, VertexOrder]:
    """Minimum wcol_r over all orders, by branch and bound over prefixes.

    Placing u next fixes which vertices u is weakly reached by (everything
    still unplaced is ranked above u), so per-vertex wreach counts only grow
    along a branch and the running maximum prunes.  So does the completion
    floor (`_completion_floor`), a bound on the counts the unplaced vertices
    must still reach: a branch whose floor is at least the best value found
    is cut.  The floor is never below the largest unplaced count plus one,
    so it also cuts every branch where some unplaced vertex is already at
    the limit, and no child of a node whose floor is below the best value
    can start at the limit.  Once a child's improvement brings the best
    value down to the node's floor, the remaining siblings are skipped: none
    of them can end below the floor.

    How a branch can still end depends only on its state: the unplaced set
    and the wreach counts of the unplaced vertices (placed vertices' counts
    are final and enter only through the running maximum).  A transposition
    table, local to the call, keeps the smallest running maximum each state
    was entered with; entering it again with a running maximum no smaller
    prunes, since every completion is the same and cannot end lower.

    No prune changes the witness.  The search replaces the best order
    only on a strict improvement, so it returns the first order, in search
    order, to strictly improve on every order before it.  A branch cut while
    the best value is B holds no order below B, and the best value only
    falls afterwards, so no cut branch holds an order that would have
    replaced the best one: the search visits the same improvements, in the
    same order, as the search without any prune.  The heuristic start
    takes the better of the degeneracy and greedy orders (the degeneracy
    order on a tie); the greedy order is built only when the degeneracy
    order misses the coloring number, since no order beats the coloring
    number (wcol_r >= wcol_1 = col), and for the same reason the search runs
    only while the best order found is above col.  At r = 0 every order has
    value 1 <= col, so the search, whose floor needs r >= 1, never runs.
    """
    require_at_most("wcol_exact", g.n, cap, "vertices")
    best_order = degeneracy_order(g)
    best_val = wcol_of_order(g, best_order, r)
    col = wcol_of_order(g, best_order, 1)
    if best_val > col:
        order = greedy_wreach_order(g, r)
        val = wcol_of_order(g, order, r)
        if val < best_val:
            best_val, best_order = val, order
    n = g.n
    masks = g.adjacency_masks()
    counts = [0] * n
    # a state key packs each unplaced vertex's count (at most n) into a field
    # of n.bit_length() bits above the n bits of the unplaced mask
    width = n.bit_length()
    unit = [1 << (n + width * v) for v in range(n)]
    table = {}
    prefix = []

    def dfs(unplaced: int, packed: int, cur_max: int) -> None:
        nonlocal best_val, best_order
        if cur_max >= best_val:
            return
        if not unplaced:
            best_val = cur_max
            best_order = VertexOrder(tuple(prefix))
            return
        key = packed | unplaced
        seen = table.get(key)
        if seen is not None and seen <= cur_max:
            return
        table[key] = cur_max
        floor = _completion_floor(masks, counts, unplaced, best_val)
        if floor >= best_val:
            return
        for u in sorted(iter_bits(unplaced), key=lambda w: (-counts[w], w)):
            bit = 1 << u
            rest = unplaced ^ bit
            reached = mask_ball(masks, bit, rest, r)[0] ^ bit
            child = packed - counts[u] * unit[u]
            counts[u] += 1
            touched = list(iter_bits(reached))
            for w in touched:
                counts[w] += 1
                child += unit[w]
            prefix.append(u)
            dfs(rest, child, max(cur_max, counts[u]))
            prefix.pop()
            for w in touched:
                counts[w] -= 1
            counts[u] -= 1
            if best_val <= floor:
                return  # no sibling can end below the floor

    if best_val > col:
        dfs((1 << n) - 1, 0, 0)
    raise_if_invalid(validate_order_witness(g, OrderWitness(r, best_val, best_order.perm)),
                     "witness order invalid", r=r, claimed=best_val)
    return best_val, best_order


# ---------------------------------------------------------------- treedepth

@dataclass(frozen=True)
class EliminationForest:
    """Rooted forest on the graph's vertices; parent[v] == -1 at roots."""

    parent: tuple

    def to_json(self):
        return {"parent": list(self.parent)}

    @classmethod
    def from_json(cls, d):
        return cls(tuple(d["parent"]))


def _forest_tour(parent) -> tuple[list, list, list]:
    """One depth-first tour of a parent map down from its roots: each
    vertex's entry and exit times and its depth (a root has depth 1).  A
    vertex whose chain of parents runs into a cycle is never entered and
    keeps depth 0."""
    n = len(parent)
    children = [[] for _ in range(n)]
    stack = []  # the roots, then the tour: v on entry, ~v on exit
    for v, p in enumerate(parent):
        (stack if p == -1 else children[p]).append(v)
    enter, leave, depth = [0] * n, [0] * n, [0] * n
    for v in stack:
        depth[v] = 1
    clock = 0
    while stack:
        x = stack.pop()
        if x < 0:
            leave[~x] = clock
            continue
        enter[x] = clock
        clock += 1
        stack.append(~x)
        below = children[x]
        d = depth[x] + 1
        for c in below:
            depth[c] = d
        stack += below
    return enter, leave, depth


def validate_elimination_forest(g: Graph, forest: EliminationForest, claimed=None) -> list:
    """Independent checks: acyclic parent map, every edge within an
    ancestor chain, and (optionally) the claimed depth.  Returns violations.

    Linear, by one depth-first tour of the forest: a vertex the tour never
    enters has a chain that runs into a cycle, and u is an ancestor of v, or
    v itself, when v's entry time falls within u's span."""
    parent = forest.parent
    if len(parent) != g.n:
        return [f"forest covers {len(parent)} vertices, graph has {g.n}"]
    out = foreign_vertices(g, set(parent) - {-1})
    if out:
        return out
    enter, leave, depths = _forest_tour(parent)
    if 0 in depths:
        return [f"parent cycle reached from {depths.index(0)}"]
    for u, v in g.edges():
        eu, ev = enter[u], enter[v]
        if not (eu <= ev < leave[u] or ev <= eu < leave[v]):
            out.append(f"edge ({u},{v}) joins unrelated branches")
    depth = max(depths, default=0)
    if claimed is not None and depth != claimed:
        out.append(f"claimed depth {claimed}, forest depth {depth}")
    return out


class ForestCertificate:
    """An elimination forest claimed to have depth `value`."""
    __slots__ = ("value", "forest")
    kind = "elimination_forest"

    def __init__(self, value, forest: EliminationForest):
        self.value, self.forest = value, forest

    def to_json(self):
        return {"value": self.value, **self.forest.to_json()}

    @classmethod
    def from_json(cls, d):
        return cls(d["value"], EliminationForest.from_json(d))


def validate_forest_certificate(g: Graph, cert: ForestCertificate) -> list:
    return validate_elimination_forest(g, cert.forest, claimed=cert.value)


class _TreedepthSearch:
    """Memoized branch and bound for treedepth over vertex bitmasks.

    td of a connected graph is 1 + the least td over single-vertex
    deletions, and disconnected parts are independent.  `td(mask, ub)`
    returns the exact td of the induced subgraph when it is below `ub`, and
    otherwise a proven lower bound of at least `ub`.  Exact values go to
    `exact` with the root each connected mask keeps; lower bounds go to
    `lower`, which later calls start from.

    A connected node tries roots in `by_degree` order, most neighbours
    first, and keeps the first strict improvement.  Each child is searched
    with bound min(best, ub) - 1, so it comes back exact exactly when it is a
    strict improvement below `ub`; a child cut there cannot be one.  A node
    stops once its best reaches its lower bound, the largest of a shortest
    path's bound, degeneracy + 1 (td > treewidth >= degeneracy) and any
    bound known from an earlier cut.  So an exact entry, value and root, is
    the same for every `ub`, and the same as the uncut search keeps: the
    root is the first vertex in `by_degree` order whose deletion reaches the
    least td.  Components are searched largest first, and the first one to
    reach `ub` ends the node."""

    def __init__(self, g: Graph):
        self.masks = g.adjacency_masks()
        self.exact = {0: (0, None)}  # mask -> (td, root); root None when disconnected
        self.lower = {}  # mask -> a proven lower bound on td, from a cut search
        self.zeros = [0] * g.n  # no counts: `_completion_floor` is degeneracy + 1

    def td(self, mask: int, ub: int) -> int:
        got = self.exact.get(mask)
        if got is not None:
            return got[0]
        known = self.lower.get(mask, 0)
        if known >= ub:
            return known
        cs = mask_components(self.masks, mask)
        if len(cs) > 1:
            d = 0
            for c in sorted(cs, key=int.bit_count, reverse=True):
                got = self.td(c, ub)
                if got >= ub:
                    got = self.lower[mask] = max(known, got)
                    return got
                d = max(d, got)
            self.exact[mask] = (d, None)
            return d
        masks = self.masks
        k = mask.bit_count()
        low = mask & -mask
        if k == 1:
            self.exact[mask] = (1, low.bit_length() - 1)
            return 1
        # a shortest path is a path subgraph: td >= ceil(log2(length + 2))
        lb = max(known, math.ceil(math.log2(mask_ball(masks, low, mask)[1] + 2)))
        if lb < ub:
            peel = _completion_floor(masks, self.zeros, mask)
            if peel == k:  # a clique
                self.exact[mask] = (k, low.bit_length() - 1)
                return k
            lb = max(lb, peel)
        if lb >= ub:
            self.lower[mask] = lb
            return lb
        by_degree = sorted(iter_bits(mask), key=lambda v: (-(masks[v] & mask).bit_count(), v))
        best, best_root = k + 1, None
        bound = k + 1  # least 1 + child result; a lower bound when best stays above ub
        for v in by_degree:
            cut = min(best, ub) - 1
            got = self.td(mask ^ (1 << v), cut)
            if got < cut:
                best, best_root = 1 + got, v
                if best <= lb:
                    break
            else:
                bound = min(bound, 1 + got)
        if best < ub:
            self.exact[mask] = (best, best_root)
            return best
        self.lower[mask] = bound
        return bound


def treedepth_exact(g: Graph, cap: int = 15) -> tuple[int, EliminationForest]:
    """Exact treedepth and an elimination forest of that depth, by
    `_TreedepthSearch`; each node's root is the one the uncut search keeps."""
    require_at_most("treedepth_exact", g.n, cap, "vertices")
    search = _TreedepthSearch(g)
    full = (1 << g.n) - 1
    value = search.td(full, g.n + 1)
    parent = [-1] * g.n

    def build(mask: int, up: int) -> None:
        for comp in mask_components(search.masks, mask):
            search.td(comp, g.n + 1)
            root = search.exact[comp][1]
            parent[root] = up
            build(comp ^ (1 << root), root)

    build(full, -1)
    forest = EliminationForest(tuple(parent))
    raise_if_invalid(validate_elimination_forest(g, forest, value),
                     "witness forest invalid", claimed=value)
    return value, forest
