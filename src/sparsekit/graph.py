"""Immutable simple graphs with dense integer ids, plus BFS-level primitives.

Vertices are 0..n-1.  Adjacency is stored sorted, so any traversal that walks
neighbors in storage order is deterministic.  An induced subgraph is a fresh
graph with re-densified ids; the original ids survive in the label table.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import AlgorithmStallError, GraphInputError


class Graph:
    __slots__ = ("n", "adj", "labels", "_masks")

    def __init__(self, n: int, edges, labels=None):
        if n < 0:
            raise GraphInputError(f"vertex count must be >= 0, got {n}")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise GraphInputError(f"{len(labels)} labels for {n} vertices")
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphInputError(f"self-loop at vertex {u}")
            if v in nbrs[u]:
                raise GraphInputError(f"duplicate edge ({u},{v})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self.labels = labels
        self._masks = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks; cached, for subset-heavy searches."""
        if self._masks is None:
            masks = []
            for u in range(self.n):
                m = 0
                for v in self.adj[u]:
                    m |= 1 << v
                masks.append(m)
            self._masks = tuple(masks)
        return self._masks

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def iter_bits(mask: int):
    """Indices of the set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_ball(masks, seed: int, within: int, radius=None) -> tuple[int, int]:
    """Breadth-first search over bitmasks: the vertices of `within` reachable
    from the `seed` mask through `within` in at most `radius` steps (no cap
    when None), seed included, and the number of steps to the farthest.  The
    radius caps as in `bfs_distances`: 1.5 reaches what 1 does."""
    ball = frontier = seed
    depth = 0
    while radius is None or depth + 1 <= radius:
        nxt = 0
        f = frontier
        while f:  # iter_bits inlined: this loop is the exact searches' hot path
            low = f & -f
            nxt |= masks[low.bit_length() - 1]
            f ^= low
        frontier = nxt & within & ~ball
        if not frontier:
            break
        ball |= frontier
        depth += 1
    return ball, depth


def mask_components(masks, mask: int) -> list:
    """Connected components of the `mask` vertices as masks, by least vertex."""
    out = []
    rest = mask
    while rest:
        comp = mask_ball(masks, rest & -rest, mask)[0]
        out.append(comp)
        rest ^= comp
    return out


def least_independent(conflicts, cand: int, k: int):
    """The lexicographically least k members of the `cand` mask, no two of
    which conflict, as an increasing list; None when there are no such k.
    `conflicts[v]` is the mask of what v conflicts with, v excluded.

    `holds(c, need)` branches on the lowest member v of c: take v, else
    skip it.  Skips loop rather than recurse, so the recursion depth stays
    below k.  `failed` keeps, per mask, the least need shown out of reach,
    so no failed search runs twice."""
    failed = {}

    def holds(c, need):
        if need <= 0:
            return True
        chain = []  # masks that hold exactly when the current c holds
        while c.bit_count() >= need and failed.get(c, need + 1) > need:
            low = c & -c
            rest = c ^ low
            v = low.bit_length() - 1
            if holds(rest & ~conflicts[v], need - 1):
                return True
            chain.append(c)
            if not rest & conflicts[v]:
                break  # v conflicts with nothing left: skipping it frees nothing
            c = rest
        for m in chain:
            failed[m] = need
        return False

    if not holds(cand, k):
        return None
    chosen = []
    while len(chosen) < k and cand:
        low = cand & -cand
        v = low.bit_length() - 1
        rest = cand ^ low
        if holds(rest & ~conflicts[v], k - len(chosen) - 1):
            chosen.append(v)
            cand = rest & ~conflicts[v]
        else:
            cand = rest
    if len(chosen) != k:
        raise AlgorithmStallError(
            f"answer loop chose {len(chosen)} of {k} after feasibility held",
            state={"k": k, "chosen": chosen})
    return chosen


def bfs_distances(g: Graph, sources, radius=None, active=None) -> dict:
    """Hop distances from a set of sources, optionally capped and restricted
    to an `active` vertex set (sources outside it are ignored).  Level by
    level, so the keys come in the order a FIFO queue would reach them.  A
    radius need not be an integer: 1.5 reaches what 1 does."""
    if radius is not None and radius < 0:
        raise GraphInputError(f"radius must be >= 0, got {radius}")
    dist = {}
    frontier = []
    for s in sources:
        if s not in dist and (active is None or s in active):
            dist[s] = 0
            frontier.append(s)
    adj = g.adj
    d = 0
    while frontier and (radius is None or d + 1 <= radius):
        d += 1
        nxt = []
        if active is None:
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
        else:
            for u in frontier:
                for w in adj[u]:
                    if w not in dist and w in active:
                        dist[w] = d
                        nxt.append(w)
        frontier = nxt
    return dist


def ball(g: Graph, v: int, r: int) -> frozenset:
    """Closed r-neighborhood of v (always contains v)."""
    _check_vertex(g, v)
    return frozenset(bfs_distances(g, (v,), r))


def components(g: Graph, active=None) -> list[frozenset]:
    """Connected components, ordered by smallest member."""
    todo = sorted(active) if active is not None else range(g.n)
    seen = set()
    out = []
    for v in todo:
        if v not in seen:
            comp = frozenset(bfs_distances(g, (v,), None, active))
            seen |= comp
            out.append(comp)
    return out


def induced_subgraph(g: Graph, keep) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on `keep`, re-densified.  Returns (graph, old_ids) where
    old_ids[new_id] is the vertex's id in g; labels carry over."""
    old_ids = tuple(sorted(set(keep)))
    for v in old_ids:
        _check_vertex(g, v)
    new_id = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (new_id[u], new_id[v])
        for u in old_ids
        for v in g.adj[u]
        if u < v and v in new_id
    ]
    labels = tuple(g.label_of(v) for v in old_ids)
    return Graph(len(old_ids), edges, labels), old_ids


def set_radius(g: Graph, vs) -> int:
    """Radius of the subgraph induced on `vs` (distances measured inside the
    set); -1 if it is disconnected."""
    best = None
    for c in vs:
        dist = bfs_distances(g, (c,), None, vs)
        if len(dist) != len(vs):
            return -1
        ecc = max(dist.values())
        if best is None or ecc < best:
            best = ecc
    return best


def foreign_vertices(g: Graph, vs) -> list:
    """One violation per member of `vs` that is not a vertex id of g."""
    bad = [v for v in vs if not (type(v) is int and 0 <= v < g.n)]
    return [f"vertex {v} not in the graph" for v in sorted(bad, key=str)]


def _check_vertex(g: Graph, v: int) -> None:
    if not (type(v) is int and 0 <= v < g.n):
        raise GraphInputError(f"vertex {v!r} not in range(0, {g.n})")


class DistanceSet:
    """Vertices claimed pairwise more than r apart ("independent", with their
    number k, and for a basic-local sentence the sentence's JSON and the
    marked set it reads) or dominating within r ("dominating", with the mode
    that found them).  It lives here, not in `logic`, so that checking a set
    without a sentence loads only the graph."""
    __slots__ = ("problem", "r", "vertices", "k", "mode", "sentence", "marked")
    kind = "distance_set"

    def __init__(self, problem, r, vertices, k=None, mode=None, sentence=None,
                 marked=None):
        self.problem, self.r, self.vertices, self.k = problem, r, vertices, k
        self.mode, self.sentence, self.marked = mode, sentence, marked

    def to_json(self):  # the optional keys are left out when None
        d = {key: v for key in self.__slots__ if (v := getattr(self, key)) is not None}
        return {**d, "vertices": sorted(self.vertices)}

    @classmethod
    def from_json(cls, d):
        problem = d["problem"]
        k = d["k"] if problem == "independent" else d.get("k")
        return cls(problem, d["r"], d["vertices"], k, d.get("mode"), d.get("sentence"),
                   d.get("marked"))


def validate_distance_set(g: Graph, cert: DistanceSet) -> list:
    """Independent checks of the claim, plus, for a sentence, its k and 2r,
    and its local property at every member.  Returns violations."""
    vs = cert.vertices
    marked = cert.marked if cert.marked is not None else []
    out = foreign_vertices(g, vs) + foreign_vertices(g, marked)
    if out:
        return out
    if cert.problem == "independent":
        if len(set(vs)) != cert.k:
            out.append(f"{len(set(vs))} distinct vertices, claimed k = {cert.k}")
        for i, u in enumerate(vs):
            near = ball(g, u, cert.r)
            out += [f"{u} and {v} are within distance {cert.r}"
                    for v in vs[i + 1:] if v in near]
        if cert.sentence is not None:  # only a sentence needs `logic`
            from .logic import BasicLocalSentence, eval_naive, free_vars
            s = BasicLocalSentence.from_json(cert.sentence)
            if cert.k != s.k or cert.r != 2 * s.r:
                out.append(f"the sentence asks for {s.k} witnesses at distance > {2 * s.r}, "
                           f"the certificate claims k = {cert.k} at distance > {cert.r}")
            for v in vs:
                env = {s.var: v} if s.var in free_vars(s.chi) else {}
                if not eval_naive(g, s.chi, env, marked):
                    out.append(f"witness {v} does not satisfy the local property")
    elif cert.problem == "dominating":
        covered = set()
        for v in vs:
            covered |= ball(g, v, cert.r)
        missing = sorted(set(range(g.n)) - covered)
        if missing:
            out.append(f"vertices {missing} not dominated within {cert.r}")
    else:
        out.append(f"unknown distance-set problem {cert.problem!r}")
    return out
