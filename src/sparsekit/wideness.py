"""Quasi-wideness extraction, balanced neighborhood separators, and sparse
neighborhood covers.

Everything here returns a certificate object carrying the sets it claims.
Its validity is what the definition-level validators at the bottom of the
module return for it; they share no code with the constructions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import (AlgorithmStallError, CapabilityError, PreconditionError,
                     raise_if_invalid)
from .graph import (Graph, ball, bfs_distances, components, foreign_vertices,
                    least_independent, mask_ball, set_radius)
from .orders import VertexOrder, WReachTable, _stream_clusters

# Caps of the exhaustive uqw_brute: graph size, and size of the deletion sets.
UQW_BRUTE_N_CAP = 18
UQW_BRUTE_S_CAP = 3


# ------------------------------------------------------------ certificates

@dataclass
class UqwCertificate:
    r: int
    m: int
    A: frozenset
    S: frozenset
    B: frozenset
    wcol_bound: int           # c = wcol_of_order for the order used
    guarantee_applies: bool   # |A| >= 4*(2cm)^c held on input

    def to_json(self):
        return {
            "kind": "uqw",
            "r": self.r,
            "m": self.m,
            "A": sorted(self.A),
            "S": sorted(self.S),
            "B": sorted(self.B),
            "wcol_bound": self.wcol_bound,
            "guarantee_applies": self.guarantee_applies,
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["r"], d["m"], frozenset(d["A"]), frozenset(d["S"]),
                   frozenset(d["B"]), d["wcol_bound"], d["guarantee_applies"])


@dataclass
class SeparatorCertificate:
    r: int
    eps: float
    A: frozenset
    S: frozenset
    worst_ball_count: int
    iterations: int

    @property
    def worst_ball_fraction(self) -> float:
        return self.worst_ball_count / len(self.A) if self.A else 0.0

    def to_json(self):
        return {
            "kind": "separator",
            "r": self.r,
            "eps": self.eps,
            "A": sorted(self.A),
            "S": sorted(self.S),
            "worst_ball_count": self.worst_ball_count,
            "worst_ball_fraction": self.worst_ball_fraction,
            "iterations": self.iterations,
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["r"], d["eps"], frozenset(d["A"]), frozenset(d["S"]),
                   d["worst_ball_count"], d.get("iterations", 0))


@dataclass
class Cover:
    r: int
    clusters: dict            # center -> frozenset of vertices
    radius_bound: int
    max_degree: int

    def to_json(self):
        return {
            "kind": "cover",
            "r": self.r,
            "clusters": {str(c): sorted(vs) for c, vs in sorted(self.clusters.items())},
            "radius_bound": self.radius_bound,
            "max_degree": self.max_degree,
        }

    @classmethod
    def from_json(cls, d):
        clusters = {int(c): frozenset(vs) for c, vs in d["clusters"].items()}
        return cls(d["r"], clusters, d["radius_bound"], d["max_degree"])


@dataclass
class PartitionCover:
    r: int
    parts: list               # list of frozensets of vertices

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def to_json(self):
        return {
            "kind": "partition",
            "r": self.r,
            "parts": [sorted(p) for p in self.parts],
            "n_parts": self.n_parts,
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["r"], [frozenset(p) for p in d["parts"]])


# ----------------------------------------------------------- uqw extraction

def uqw_extract(g: Graph, A, r: int, m: int, pi: VertexOrder) -> UqwCertificate:
    """Delete few vertices so that many elements of A become pairwise far.

    Removal loop: while some vertex u is weakly r-reachable (under pi, in the
    current G-S) from more than |A|/(2m) current members of A (and from at
    least two, so a vertex never evicts A on its own account), delete the
    most frequent such u and shrink A to u's witnesses.  Each surviving
    member then weakly reaches every deleted vertex, so the loop fires fewer
    than c = wcol_of_order(g, pi, r) times and |S| < c always.

    B is then picked greedily from A-S with pairwise disjoint weak-r-reach
    sets in G-S, which forces pairwise distance > r there.  The greedy scans
    the surviving shrunken A first: at termination no vertex is weakly
    reachable from more than max(1, |A_final|/(2m)) survivors, so each pick
    blocks at most c times that many survivors and the prefix alone yields
    |B| >= 2m/c whenever |A_final| >= 2m; under the input guarantee
    |A| >= 4*(2cm)^c that is |B| >= m for c <= 2.  The rest of A-S can only
    add to B.

    The weak-reach sets are built once, as a `WReachTable` of G, and c is
    its largest set.  Deleting u is then an update, not a recomputation:
    only the backward searches from the sources in WReach_r[u] reached u,
    so only those (at most c of them) are run, once with u and once
    without, and each source leaves the sets its search no longer reaches.
    """
    A = frozenset(A)
    if not A:
        raise PreconditionError("A must be nonempty")
    if r < 1:
        raise PreconditionError("r must be >= 1")
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if bad := foreign_vertices(g, A):
        raise PreconditionError("; ".join(bad))
    table = WReachTable(g, pi, r)
    c = table.wcol()
    S, B = _extract(A, m, c, table)
    cert = UqwCertificate(r, m, A, S, B, c, len(A) >= 4 * (2 * c * m) ** c)
    raise_if_invalid(validate_uqw(g, cert),
                     "construction produced an invalid certificate", certificate=cert)
    return cert


def _extract(A: frozenset, m: int, c: int, table: WReachTable):
    """The quasi-wideness core: the removal loop and the greedy pick of
    `uqw_extract` on a weak-reach table whose largest set is c, changed in
    place (every change is a journaled deletion, so the caller may roll it
    back).  Returns (S, B); the caller builds and checks any certificate."""
    sets = table.sets
    S = []
    current = set(A)
    while True:
        freq = Counter(chain.from_iterable(sets[a] for a in current))
        cands = [u for u, f in freq.items()
                 if f > len(current) / (2 * m) and f >= 2]
        if not cands:
            break
        u = min(cands, key=lambda x: (-freq[x], x))
        S.append(u)
        current = {a for a in current if u in sets[a]} - {u}
        if len(S) > c:
            raise AlgorithmStallError(
                "removal loop exceeded its structural bound",
                state={"S": S, "wcol_bound": c, "A": sorted(A)})
        table.delete(u)

    B = set()
    used = set()
    for a in sorted(current) + sorted(A - set(S) - current):
        if not (sets[a] & used):
            B.add(a)
            used |= sets[a]
    return frozenset(S), frozenset(B)


def uqw_brute(g: Graph, A, r: int, m: int, s_max: int):
    """Exhaustive ground truth: try every deletion set S of size <= s_max,
    in order of size, and for each look for a larger distance-r independent
    subset of A - S in G - S than any earlier S gave, one size at a time,
    with `least_independent`.  The first S that reaches the largest size
    wins, with the lexicographically least such B.  Returns its certificate,
    or None when no S achieves |B| >= m."""
    from itertools import combinations

    A = frozenset(A)
    if r < 1:
        raise PreconditionError("r must be >= 1")
    if s_max < 0:
        raise PreconditionError(f"s_max must be >= 0, got {s_max}")
    if bad := foreign_vertices(g, A):
        raise PreconditionError("; ".join(bad))
    if g.n > UQW_BRUTE_N_CAP:
        raise CapabilityError(f"uqw_brute capped at {UQW_BRUTE_N_CAP} vertices, got {g.n}",
                              "uqw_brute_n", UQW_BRUTE_N_CAP)
    if s_max > UQW_BRUTE_S_CAP:
        raise CapabilityError(f"uqw_brute capped at deletion sets of {UQW_BRUTE_S_CAP}",
                              "uqw_brute_s", UQW_BRUTE_S_CAP)
    adj = g.adjacency_masks()
    best = (frozenset(), [])  # S = {} with the empty B, which any larger B replaces
    for size in range(s_max + 1):
        for S in combinations(range(g.n), size):
            active = frozenset(range(g.n)) - set(S)
            keep = sum(1 << v for v in active)
            pool = A & active
            cand = sum(1 << a for a in pool)
            # masks[a] = the members of A within distance r of a in G-S
            masks = {a: (mask_ball(adj, 1 << a, keep, r)[0] & cand) ^ (1 << a)
                     for a in pool}
            k = len(best[1]) + 1
            while (B := least_independent(masks, cand, k)) is not None:
                best = (frozenset(S), B)
                k += 1
    S, B = best
    if len(B) < m:
        return None
    cert = UqwCertificate(r, m, A, S, frozenset(B), -1, False)
    raise_if_invalid(validate_uqw(g, cert),
                     "oracle produced an invalid certificate", certificate=cert)
    return cert


# ------------------------------------------------------- balanced separator

def balanced_separator(g: Graph, A, r: int, eps: float,
                       pi: VertexOrder) -> SeparatorCertificate:
    """Exchange algorithm: maintain X such that every vertex outside X has a
    sparse r-ball (at most eps*|A| members of A in G-X).  Each step extracts
    a far-apart subset X' of X at radius 4r, keeps the part X'' whose
    2r-balls are already sparse in G-Y, and trades X'' for the deletion set
    Y.  Stops when a step no longer shrinks X; theory says that cannot
    happen while |X| exceeds 4*(2cm)^c, so a stall up there is an error.

    Every extraction runs on G at radius 4r, so the weak-reach table of G at
    that radius is built once: its largest set is c.  Each step takes a
    plain (S, B) from `_extract`, which deletes from the table, and rolls
    the table back (see `uqw_extract` for why a deletion only runs the
    searches from the sources in WReach_4r[u]), so a step costs what its
    fewer than c deletions touch and what they dropped.  No step builds or
    checks a certificate; only the separator returned is checked.

    No step counts balls either, since the invariant holds by a lemma: let
    X'' be a subset of X whose 2r-balls in G-Y are sparse, X' = (X-X'')|Y,
    and v outside X' (G-X' is a subgraph of G-Y).  If v is in X'', its
    r-ball in G-X' lies in its own 2r-ball in G-Y; if that ball meets some
    x in X'', it lies within 2r of x in G-Y; else it avoids X and Y, so it
    lies in v's old r-ball in G-X.  This uses only that X'' is a subset of
    X, so any start set that meets the invariant keeps it."""
    A = frozenset(A)
    if not A:
        raise PreconditionError("A must be nonempty")
    if not 0 < eps <= 1:
        raise PreconditionError("eps must be in (0, 1]")
    if 1 / eps == math.inf:
        raise PreconditionError(f"eps {eps!r} is too small: 1/eps overflows a float")
    if r < 1:
        raise PreconditionError("r must be >= 1")
    if bad := foreign_vertices(g, A):
        raise PreconditionError("; ".join(bad))

    table = WReachTable(g, pi, 4 * r)
    c = table.wcol()
    m = int(1 / eps) + c + 1
    n_theory = 4 * (2 * c * m) ** c
    budget = eps * len(A)

    X = frozenset(range(g.n))
    iterations = 0
    while X:
        Y, B = _extract(X, m, c, table)
        table.rollback()
        keep = frozenset(range(g.n)) - Y
        X2 = set()
        for v in sorted(B):
            hit = sum(1 for w in bfs_distances(g, (v,), 2 * r, keep) if w in A)
            if hit <= budget:
                X2.add(v)
        if len(X2) <= len(Y):
            if len(X) > n_theory:
                raise AlgorithmStallError(
                    "exchange step failed to shrink X above the theory bound",
                    state={"X": sorted(X), "Y": sorted(Y), "X2": sorted(X2),
                           "n_theory": n_theory, "iterations": iterations})
            break
        X = (X - X2) | Y
        iterations += 1

    outside = frozenset(range(g.n)) - X
    worst = max((sum(1 for w in bfs_distances(g, (v,), r, outside) if w in A)
                 for v in outside), default=0)
    cert = SeparatorCertificate(r, eps, A, X, worst, iterations)
    raise_if_invalid(validate_separator(g, cert),
                     "construction produced an invalid certificate", certificate=cert)
    return cert


# ------------------------------------------------------------------- covers

def neighborhood_cover(g: Graph, r: int, pi: VertexOrder) -> Cover:
    """Clusters are the weak-2r-reach clusters of the order-minimum m(v) of
    each r-ball; the ball around v then sits inside the cluster of m(v), and
    a vertex belongs to at most wcol_of_order(g, pi, 2r) clusters.  Only the
    centers are searched from."""
    clusters = {u: frozenset(c)
                for u, c in _stream_clusters(g, pi, 2 * r, _ball_minima(g, pi, r))}
    degree = [0] * g.n
    for vs in clusters.values():
        for v in vs:
            degree[v] += 1
    cover = Cover(r, clusters, 2 * r, max(degree) if degree else 0)
    raise_if_invalid(validate_cover(g, cover), "construction produced an invalid cover", r=r)
    return cover


def _ball_minima(g: Graph, pi: VertexOrder, r: int):
    """The order-minima of the r-balls, by id, each once.  After k rounds
    of every vertex taking the least rank among itself and its neighbours,
    low[v] is the least rank within distance k of v; a round that changes
    nothing ends them, as a ball stops growing.  A generator, so that
    nothing runs until `_stream_clusters` has checked the order."""
    adj = g.adj
    low = list(pi.rank)
    for _ in range(r):
        nxt = [min(low[w] for w in (v, *adj[v])) for v in range(g.n)]
        if nxt == low:
            break
        low = nxt
    yield from sorted({pi.perm[k] for k in low})


def partition_cover(g: Graph, r: int, pi: VertexOrder) -> PartitionCover:
    """Color vertices greedily along the order so that no vertex shares a
    color with anything in its weak-(4r+1)-reach set; collect the
    weak-2r-reach clusters of each color class into one part.  Same-colored
    clusters are disjoint and non-adjacent, so every component of a part is
    a single cluster of radius <= 2r, and every r-ball lands in the part
    colored like the ball's order-minimum.

    WReach[v] minus v is the set of earlier u whose (4r+1)-cluster holds v,
    so the coloring walks the order and, once u has its color, marks it in
    `taken[w]` for every w in u's cluster: each v finds the colors it must
    avoid already marked, and no weak-reach set is built."""
    taken = [0] * g.n  # taken[v], bit k: a vertex of WReach[v] before v has color k
    color = [0] * g.n
    for u, cluster in _stream_clusters(g, pi, 4 * r + 1, pi.perm):
        free = ~taken[u] & (taken[u] + 1)  # the lowest clear bit
        color[u] = free.bit_length() - 1
        for w in cluster:
            taken[w] |= free
    parts = [set() for _ in range(max(color, default=-1) + 1)]
    for u, cluster in _stream_clusters(g, pi, 2 * r):
        parts[color[u]] |= cluster
    pc = PartitionCover(r, [frozenset(p) for p in parts])
    raise_if_invalid(validate_partition(g, pc),
                     "construction produced an invalid partition cover", r=r)
    return pc


# --------------------------------------------------------------- validators

def validate_uqw(g: Graph, cert: UqwCertificate) -> list:
    """Definition-level check by plain BFS."""
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


def validate_separator(g: Graph, cert: SeparatorCertificate) -> list:
    out = foreign_vertices(g, cert.A | cert.S)
    keep = frozenset(range(g.n)) - cert.S
    worst = 0
    for v in keep:
        hit = sum(1 for w in bfs_distances(g, (v,), cert.r, keep) if w in cert.A)
        worst = max(worst, hit)
    if worst != cert.worst_ball_count:
        out.append(f"recorded worst ball {cert.worst_ball_count}, measured {worst}")
    if worst > cert.eps * len(cert.A):
        out.append(f"worst ball holds {worst} of {len(cert.A)}, above eps={cert.eps}")
    return out


def validate_cover(g: Graph, cover: Cover) -> list:
    """Definition-level check of a cover.

    Each cluster gets one BFS from its named center, inside the cluster.
    That BFS decides connectivity on its own, and the center's eccentricity
    bounds the cluster's radius from above, so an eccentricity within
    `radius_bound` passes the cluster with the verdict the exact radius
    would give.  Only a larger one falls back to `set_radius`, which
    measures the radius the violation reports.  A ball b around v fits in
    a cluster only if v is a member, so each ball is tested against v's
    own clusters alone."""
    out = foreign_vertices(g, set(cover.clusters).union(*cover.clusters.values()))
    if out:
        return out
    clusters_of = [[] for _ in range(g.n)]
    for u, vs in cover.clusters.items():
        for v in vs:
            clusters_of[v].append(vs)
        if u not in vs:
            out.append(f"center {u} outside its cluster")
            continue
        dist = bfs_distances(g, (u,), None, vs)
        if len(dist) != len(vs):
            out.append(f"cluster of {u} is disconnected")
        elif max(dist.values()) > cover.radius_bound:
            rad = set_radius(g, vs)
            if rad > cover.radius_bound:
                out.append(f"cluster of {u} has radius {rad} > {cover.radius_bound}")
    for v in range(g.n):
        b = ball(g, v, cover.r)
        if not any(b <= vs for vs in clusters_of[v]):
            out.append(f"ball of {v} fits in no cluster")
    measured = max(map(len, clusters_of)) if clusters_of else 0
    if measured != cover.max_degree:
        out.append(f"recorded degree {cover.max_degree}, measured {measured}")
    return out


def validate_partition(g: Graph, pc: PartitionCover) -> list:
    """Definition-level check of a partition cover.

    A component passes as soon as one member reaches every other member
    within 2r inside it, by a BFS capped at 2r; only when no member does is
    the component's exact radius measured, for the violation.  A ball
    around v fits in a part only if v is a member, so each ball is tested
    against v's own parts alone."""
    out = foreign_vertices(g, frozenset().union(*pc.parts))
    if out:
        return out
    parts_of = [[] for _ in range(g.n)]
    for p in pc.parts:
        for v in p:
            parts_of[v].append(p)
    for v in range(g.n):
        b = ball(g, v, pc.r)
        if not any(b <= p for p in parts_of[v]):
            out.append(f"ball of {v} fits in no part")
    bound = 2 * pc.r
    for i, p in enumerate(pc.parts):
        for comp in components(g, p):
            if not any(len(bfs_distances(g, (c,), bound, comp)) == len(comp) for c in comp):
                rad = set_radius(g, comp)
                out.append(f"part {i} has a component of radius {rad} > {bound}")
    return out
