"""Independent reference implementations used to pin expected values.

Everything here favors obviousness over speed: plain path enumeration,
subset enumeration, and full recursion, so the main library can be checked
against code that shares none of its machinery.
"""

import itertools
from collections import deque
from functools import lru_cache

from sparsekit.errors import PreconditionError
from sparsekit.graph import (Graph, ball, bfs_distances, foreign_vertices,
                            induced_subgraph)
from sparsekit.logic import And, DistLe, Edge, Eq, Lit, Not, Or, Pred, Quant
from sparsekit.orders import VertexOrder, wreach_sets
from sparsekit.wideness import Cover, PartitionCover


def naive_wreach(g: Graph, order, r: int, v: int) -> frozenset:
    """Weakly r-reachable set of v by enumerating all simple paths from v."""
    rank = order.rank
    out = {v}
    stack = [(v, (v,))]
    while stack:
        last, path = stack.pop()
        if len(path) <= r:
            for w in g.adj[last]:
                if w not in path:
                    stack.append((w, path + (w,)))
        u = path[-1]
        if rank[u] <= rank[v] and all(rank[x] > rank[u] for x in path[1:-1]):
            out.add(u)
    return frozenset(out)


def naive_wreach_radii(g: Graph, order, v: int) -> dict:
    """u -> the least r with u in WReach_r[v], by enumerating every simple
    path from v, as `naive_wreach` does at r = n."""
    rank = order.rank
    out = {v: 0}
    stack = [(v, (v,))]
    while stack:
        last, path = stack.pop()
        for w in g.adj[last]:
            if w not in path:
                stack.append((w, path + (w,)))
        u = path[-1]
        if rank[u] <= rank[v] and all(rank[x] > rank[u] for x in path[1:-1]):
            out[u] = min(out.get(u, len(path)), len(path) - 1)
    return out


def greedy_wreach_order(g: Graph, r: int) -> VertexOrder:
    """The greedy order by full rescans: fill positions right to left, and
    at every step score every unplaced vertex x afresh, by the largest
    count among the vertices its search through the placed suffix reaches,
    plus one; place the least (max(running maximum, score), id)."""
    counts = [0] * g.n
    placed = set()
    suffix = []
    cur_max = 0
    while len(suffix) < g.n:
        best = None
        for x in range(g.n):
            if x in placed:
                continue
            reached = bfs_distances(g, (x,), r, placed | {x})
            new_max = max(cur_max, max(counts[w] for w in reached) + 1)
            if best is None or new_max < best[0]:
                best = (new_max, x, reached)
        cur_max, x, reached = best
        for w in reached:
            counts[w] += 1
        placed.add(x)
        suffix.append(x)
    return VertexOrder(reversed(suffix))


def check_separation(g: Graph, order, r: int, u: int, v: int) -> bool:
    """Path lemma: when the earlier endpoint is not weakly r-reachable from
    the later one, every u-v path of length <= r meets the intersection of
    their wreach_r sets.  Checked by enumerating all such paths; raises
    ValueError when the lemma does not apply."""
    if u == v:
        raise ValueError("endpoints must be distinct")
    if order.rank[u] > order.rank[v]:
        u, v = v, u
    reach_v = naive_wreach(g, order, r, v)
    if u in reach_v:
        raise ValueError(f"vertex {u} is weakly {r}-reachable from {v}")
    common = naive_wreach(g, order, r, u) & reach_v
    stack = [(u, [u])]
    while stack:
        x, path = stack.pop()
        if x == v:
            if not common.intersection(path):
                return False
            continue
        if len(path) > r:
            continue
        for w in g.adj[x]:
            if w not in path:
                stack.append((w, path + [w]))
    return True


def naive_wcol_of_order(g: Graph, order, r: int) -> int:
    return max((len(naive_wreach(g, order, r, v)) for v in range(g.n)), default=0)


def sets_wcol_of_order(g: Graph, order, r: int) -> int:
    """wcol_r of an order as the largest of all its weak-reach sets, built
    at once by `wreach_sets`."""
    return max(map(len, wreach_sets(g, order, r).values()), default=0)


def inverted_clusters(g: Graph, order, r: int) -> dict:
    """cluster(u) = the vertices whose weak-r-reach set, from `wreach_sets`,
    holds u."""
    clusters = {u: set() for u in range(g.n)}
    for v, reach in wreach_sets(g, order, r).items():
        for u in reach:
            clusters[u].add(v)
    return clusters


def ball_minimum_cover(g: Graph, r: int, order) -> Cover:
    """The neighborhood cover by its rule, without the self-check: each
    r-ball, found by `ball`, names its order-minimum as a center, and a
    center's cluster is its weak-2r-reach cluster."""
    clusters = inverted_clusters(g, order, 2 * r)
    centers = {min(ball(g, v, r), key=order.rank.__getitem__) for v in range(g.n)}
    chosen = {u: frozenset(clusters[u]) for u in sorted(centers)}
    degree = [0] * g.n
    for vs in chosen.values():
        for v in vs:
            degree[v] += 1
    return Cover(r, chosen, 2 * r, max(degree, default=0))


def sets_partition_cover(g: Graph, r: int, order) -> PartitionCover:
    """The partition cover by its rule, without the self-check: along the
    order, each v takes the least color that no other member of its
    weak-(4r+1)-reach set, from `wreach_sets`, has; a color's part is the
    union of its vertices' weak-2r-reach clusters."""
    sets = wreach_sets(g, order, 4 * r + 1)
    color = {}
    for v in order.perm:
        seen = {color[u] for u in sets[v] if u != v}
        color[v] = min(k for k in range(len(seen) + 1) if k not in seen)
    clusters = inverted_clusters(g, order, 2 * r)
    parts = [set() for _ in range(max(color.values(), default=-1) + 1)]
    for u in range(g.n):
        parts[color[u]] |= clusters[u]
    return PartitionCover(r, [frozenset(p) for p in parts])


def brute_wcol(g: Graph, r: int) -> int:
    """Minimum over every permutation; only sane for n <= 7."""
    from sparsekit.orders import VertexOrder
    best = g.n + 1
    for perm in itertools.permutations(range(g.n)):
        best = min(best, naive_wcol_of_order(g, VertexOrder(perm), r))
    return best


def brute_treedepth(g: Graph) -> int:
    """Componentwise recursion over all single-vertex deletions."""
    masks = g.adjacency_masks()

    def comps(mask):
        out = []
        rest = mask
        while rest:
            comp = rest & -rest
            while True:
                grown = comp
                m = comp
                while m:
                    low = m & -m
                    grown |= masks[low.bit_length() - 1] & mask
                    m &= ~low
                if grown == comp:
                    break
                comp = grown
            out.append(comp)
            rest &= ~comp
        return out

    @lru_cache(maxsize=None)
    def td(mask):
        if mask == 0:
            return 0
        parts = comps(mask)
        if len(parts) > 1:
            return max(td(p) for p in parts)
        if mask & (mask - 1) == 0:
            return 1
        best = g.n
        m = mask
        while m:
            low = m & -m
            best = min(best, 1 + td(mask & ~low))
            m &= ~low
        return best

    return td((1 << g.n) - 1)


def naive_forest_violations(g: Graph, parent, claimed=None) -> list:
    """The elimination-forest checks by walking every vertex's whole chain:
    the least v whose chain repeats a vertex, then each edge, in
    `g.edges()` order, whose ends are not on one chain, then the depth.
    Ids are assumed to be vertices or -1."""
    chains = []
    for v in range(g.n):
        chain = []
        x = v
        while x != -1:
            if x in chain:
                return [f"parent cycle reached from {v}"]
            chain.append(x)
            x = parent[x]
        chains.append(chain)
    out = [f"edge ({u},{v}) joins unrelated branches" for u, v in g.edges()
           if u not in chains[v] and v not in chains[u]]
    depth = max(map(len, chains), default=0)
    if claimed is not None and depth != claimed:
        out.append(f"claimed depth {claimed}, forest depth {depth}")
    return out


def dfs_preorder(g: Graph, root: int = 0):
    """DFS preorder over the whole graph, restarting at the smallest
    unvisited vertex; neighbors in increasing order."""
    from sparsekit.orders import VertexOrder
    seen = []
    seen_set = set()
    targets = [root] + [v for v in range(g.n) if v != root]
    for start in targets:
        if start in seen_set:
            continue
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen_set:
                continue
            seen_set.add(v)
            seen.append(v)
            for w in reversed(g.adj[v]):
                if w not in seen_set:
                    stack.append(w)
    return VertexOrder(seen)


# ------------------------------------------------------------ minor oracle

def _connected_low_radius_masks(g: Graph, r: int) -> list:
    """All nonempty vertex subsets that induce a connected subgraph of
    radius <= r, as bitmasks."""
    out = []
    for mask in range(1, 1 << g.n):
        vs = frozenset(i for i in range(g.n) if mask >> i & 1)
        ok = False
        for c in vs:
            dist = bfs_distances(g, (c,), r, vs)
            if len(dist) == len(vs):
                ok = True
                break
        if ok:
            out.append(mask)
    return out


def naive_has_minor(g: Graph, h: Graph, r: int) -> bool:
    """Depth-r minor test by enumerating tuples of qualifying branch sets.
    Exponential in g.n and meant for h.n <= 3, g.n <= 9."""
    if h.n == 0:
        return True
    if g.n == 0:
        return False
    qual = _connected_low_radius_masks(g, r)
    masks = g.adjacency_masks()

    def touches(a, b):
        m = a
        while m:
            low = m & -m
            if masks[low.bit_length() - 1] & b:
                return True
            m &= ~low
        return False

    hedges = list(h.edges())

    def place(i, used, chosen):
        if i == h.n:
            return True
        for cand in qual:
            if cand & used:
                continue
            ok = True
            for hu, hv in hedges:
                if hv == i and not touches(chosen[hu], cand):
                    ok = False
                    break
            if ok and place(i + 1, used | cand, chosen + [cand]):
                return True
        return False

    return place(0, 0, [])


# ----------------------------------------------------------- logic oracles

def brute_distance_independent(g: Graph, r: int, k: int, candidates):
    """The first k-combination of the sorted candidates that is pairwise at
    distance > r (so the lexicographically least such set), or None."""
    cands = sorted(candidates)
    for combo in itertools.combinations(cands, k):
        ok = True
        for i, u in enumerate(combo):
            dist = bfs_distances(g, (u,), r)
            if any(v in dist for v in combo[i + 1:]):
                ok = False
                break
        if ok:
            return frozenset(combo)
    return None


def brute_uqw(g: Graph, A, r: int, s_max: int):
    """(S, B) over every deletion set S of size <= s_max, B a largest subset
    of A - S pairwise at distance > r in G - S: the first S (by size, then
    in combination order) that reaches the largest |B|, and the
    lexicographically least such B.  Distances come from a fresh
    `induced_subgraph` on V - S, whose ids keep the order of the old ones."""
    best = None
    for size in range(s_max + 1):
        for S in itertools.combinations(range(g.n), size):
            h, old_ids = induced_subgraph(g, set(range(g.n)) - set(S))
            cands = [i for i, v in enumerate(old_ids) if v in A]
            k = len(best[1]) + 1 if best is not None else 0
            while True:
                B = brute_distance_independent(h, r, k, cands)
                if B is None:
                    break
                best = (frozenset(S), frozenset(old_ids[i] for i in B))
                k += 1
    return best


def pairwise_uqw_violations(g: Graph, cert) -> list:
    """`validate_uqw` as it was written first: each member of B is compared
    with every later member, |B|^2/2 checks, so the one-search-per-member
    validator can be held to the same violation list in the same order."""
    out = foreign_vertices(g, cert.A | cert.S | cert.B)
    if cert.S & cert.B:
        out.append(f"S and B overlap: {sorted(cert.S & cert.B)}")
    if not cert.B <= cert.A - cert.S:
        out.append("B is not contained in A minus S")
    active = frozenset(range(g.n)) - cert.S
    listed = sorted(cert.B)
    for i, b in enumerate(listed):
        dist = bfs_distances(g, (b,), cert.r, active)
        for other in listed[i + 1:]:
            if other in dist:
                out.append(f"{b} and {other} are only {dist[other]} apart in G-S")
    if cert.guarantee_applies:
        if len(cert.S) > cert.wcol_bound:
            out.append(f"|S| = {len(cert.S)} exceeds the bound {cert.wcol_bound}")
        if len(cert.B) < cert.m:
            out.append(f"|B| = {len(cert.B)} below the target {cert.m}")
    return out


def brute_dominating_number(g: Graph, r: int) -> int:
    verts = range(g.n)
    for size in range(g.n + 1):
        for combo in itertools.combinations(verts, size):
            covered = set()
            for v in combo:
                covered.update(bfs_distances(g, (v,), r))
            if len(covered) == g.n:
                return size
    return g.n


def dominating_formula(k: int, r: int = 1):
    """Sentence: some k vertices r-dominate the graph."""
    if k < 1 or r < 1:
        raise PreconditionError("need k >= 1 and r >= 1")
    xs = [f"x{i + 1}" for i in range(k)]
    parts = [Eq("y", x) for x in xs]
    if r == 1:
        parts += [Edge("y", x) for x in xs]
    else:
        parts += [DistLe("y", x, r) for x in xs]
    body = parts[0]
    for p in parts[1:]:
        body = Or(body, p)
    out = Quant("forall", "y", None, None, body)
    for x in reversed(xs):
        out = Quant("exists", x, None, None, out)
    return out


def naive_eval(g: Graph, f, env: dict, marked=frozenset()) -> bool:
    """First-order semantics by plain recursion over the formula nodes, with
    every pairwise distance found up front by a BFS from each vertex; a
    relativized quantifier ranges over the vertices within d of its anchor."""
    dist = []
    for s in range(g.n):
        seen = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in seen:
                    seen[w] = seen[u] + 1
                    queue.append(w)
        dist.append(seen)

    def near(a, b, d):
        return b in dist[a] and dist[a][b] <= d

    def ev(f, env):
        if isinstance(f, Lit):
            return f.value
        if isinstance(f, Eq):
            return env[f.a] == env[f.b]
        if isinstance(f, Edge):
            return env[f.b] in g.adj[env[f.a]]
        if isinstance(f, DistLe):
            return near(env[f.a], env[f.b], f.d)
        if isinstance(f, Pred):
            return env[f.a] in marked
        if isinstance(f, Not):
            return not ev(f.body, env)
        if isinstance(f, And):
            return ev(f.left, env) and ev(f.right, env)
        if isinstance(f, Or):
            return ev(f.left, env) or ev(f.right, env)
        if isinstance(f, Quant):
            values = [ev(f.body, {**env, f.var: v}) for v in range(g.n)
                      if f.anchor is None or near(env[f.anchor], v, f.d)]
            return any(values) if f.kind == "exists" else all(values)
        raise TypeError(f"not a formula node: {f!r}")

    return ev(f, env)


def local_satisfying_set(g: Graph, chi, var: str, r: int, marked=frozenset()) -> frozenset:
    """The vertices v at which chi holds on the subgraph induced by v's
    r-ball, with v and the marks carried to its ids: what r-locality means,
    evaluated by `naive_eval` on copies that hold nothing beyond the ball."""
    out = set()
    for v in range(g.n):
        sub, old_ids = induced_subgraph(g, ball(g, v, r))
        sub_marked = {i for i, o in enumerate(old_ids) if o in marked}
        if naive_eval(sub, chi, {var: old_ids.index(v)}, sub_marked):
            out.add(v)
    return frozenset(out)
