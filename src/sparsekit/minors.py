"""Shallow (bounded-depth) minors.

A depth-r model of H in G assigns each H-vertex a branch set: the sets are
disjoint, each induces a connected subgraph of radius at most r, and every
H-edge has a witnessing G-edge between the two branch sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (AlgorithmStallError, CapabilityError, GraphInputError,
                     PreconditionError, raise_if_invalid)
from .graph import Graph, bfs_distances, foreign_vertices, set_radius
from .graphio import graph_from_json, to_jsonable
from .rng import Rng


@dataclass(frozen=True)
class MinorModel:
    depth: int
    branch_sets: dict  # h vertex -> frozenset of g vertices
    edge_witness: dict  # (hu, hv) with hu < hv -> (gu, gv), gu in branch(hu)

    def to_json(self):
        return {
            "depth": self.depth,
            "branch_sets": {str(h): sorted(s) for h, s in self.branch_sets.items()},
            "edge_witness": {
                f"{hu},{hv}": list(w) for (hu, hv), w in sorted(self.edge_witness.items())
            },
        }

    @classmethod
    def from_json(cls, d):
        branch = {int(h): frozenset(s) for h, s in d["branch_sets"].items()}
        witness = {}
        for key, w in d["edge_witness"].items():
            hu, hv = (int(t) for t in key.split(","))
            witness[(hu, hv)] = tuple(w)
        return cls(d["depth"], branch, witness)


def verify_minor_model(g: Graph, h: Graph, model: MinorModel) -> list:
    """Independent validator; returns human-readable violations (empty = ok)."""
    if set(model.branch_sets) != set(range(h.n)):
        return [f"branch sets keyed by {sorted(model.branch_sets)}, want range({h.n})"]
    out = [f"branch set of {hv}: {v}" for hv, vs in sorted(model.branch_sets.items())
           for v in foreign_vertices(g, vs)]
    out += [f"witness of h-edge {e}: {v}" for e, w in sorted(model.edge_witness.items())
            for v in foreign_vertices(g, w)]
    if out:
        return out
    seen = {}
    for hv, vs in sorted(model.branch_sets.items()):
        if not vs:
            out.append(f"branch set of {hv} is empty")
            continue
        for v in vs:
            if v in seen:
                out.append(f"vertex {v} in branch sets of both {seen[v]} and {hv}")
            seen[v] = hv
        rad = set_radius(g, vs)
        if rad < 0:
            out.append(f"branch set of {hv} is disconnected")
        elif rad > model.depth:
            out.append(f"branch set of {hv} has radius {rad} > depth {model.depth}")
    for hu, hv in h.edges():
        w = model.edge_witness.get((hu, hv))
        if w is None:
            out.append(f"missing witness for h-edge ({hu},{hv})")
            continue
        a, b = w
        if a not in model.branch_sets.get(hu, ()) or b not in model.branch_sets.get(hv, ()):
            out.append(f"witness {w} for ({hu},{hv}) not in the right branch sets")
        elif not g.has_edge(a, b):
            out.append(f"witness {w} for ({hu},{hv}) is not an edge of g")
    return out


class MinorCertificate:
    """A model claimed to be a depth-`model.depth` minor model of `h`."""
    __slots__ = ("h", "model")
    kind = "minor_model"

    def __init__(self, h: Graph, model: MinorModel):
        self.h, self.model = h, model

    def to_json(self):
        return {"h": to_jsonable(self.h), **self.model.to_json()}

    @classmethod
    def from_json(cls, d):
        return cls(graph_from_json(d["h"]), MinorModel.from_json(d))


def validate_minor_certificate(g: Graph, cert: MinorCertificate) -> list:
    return verify_minor_model(g, cert.h, cert.model)


def find_depth_r_minor(
    g: Graph, h: Graph, r: int, max_h: int = 5, max_g: int = 20
) -> MinorModel | None:
    """Exhaustive search for a depth-r model of h in g.

    Enumerates injective root choices (pruned by pairwise distance), then
    satisfies h-edges one at a time by growing both branch sets along paths of
    length <= r from their roots.  Any model shrinks to a union of such root
    paths, so the search is complete within the caps.
    """
    if h.n > max_h:
        raise CapabilityError(f"pattern capped at {max_h} vertices", "max_h", max_h)
    if g.n > max_g:
        raise CapabilityError(f"host capped at {max_g} vertices", "max_g", max_g)
    if r < 0:
        raise GraphInputError(f"depth must be >= 0, got {r}")
    if h.n == 0:
        return MinorModel(r, {}, {})
    if h.n > g.n:
        return None

    dist = [bfs_distances(g, (v,)) for v in range(g.n)]
    # the vertices within r of each vertex, nearest first, ties by id: the
    # order in which an edge's endpoint is tried around a root
    near = [sorted((w for w, d in dv.items() if d <= r), key=lambda w, dv=dv: (dv[w], w))
            for dv in dist]
    within = [frozenset(vs) for vs in near]
    h_edges = sorted(h.edges())
    # roots of adjacent pattern vertices must lie within 2r+1 of each other
    limit = 2 * r + 1
    h_is_clique = all(
        h.has_edge(i, j) for i in range(h.n) for j in range(i + 1, h.n)
    )
    # choose roots for high-degree pattern vertices first
    h_order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    # per position of h_order, the pattern neighbours whose roots come earlier
    placed_nbrs = [[p for p in h_order[:i] if h.has_edge(hv, p)]
                   for i, hv in enumerate(h_order)]
    owner = [-1] * g.n
    roots = {}

    def paths_from(root: int, target: int, hv: int):
        """Ways to pull `target` into the branch set of hv: each is the free
        part of a simple root->target path of length <= r through vertices
        that are free or already owned by hv."""
        if owner[target] == hv:
            yield []  # already in the set, and within radius by construction
            return
        stack = [(root, [root])]
        while stack:
            x, path = stack.pop()
            if x == target:
                yield [v for v in path if owner[v] == -1]
                continue
            if len(path) > r:
                continue
            for w in g.adj[x]:
                if w not in path and owner[w] in (-1, hv):
                    stack.append((w, path + [w]))

    def satisfy(edge_idx: int, witness: dict) -> bool:
        if edge_idx == len(h_edges):
            return True
        hu, hv = h_edges[edge_idx]
        reach_b = within[roots[hv]]
        for a in near[roots[hu]]:
            if owner[a] not in (-1, hu):
                continue
            for b in g.adj[a]:
                if owner[b] not in (-1, hv) or b not in reach_b:
                    continue
                for claim_a in paths_from(roots[hu], a, hu):
                    for v in claim_a:
                        owner[v] = hu
                    for claim_b in paths_from(roots[hv], b, hv):
                        for v in claim_b:
                            owner[v] = hv
                        witness[(hu, hv)] = (a, b)
                        if satisfy(edge_idx + 1, witness):
                            return True
                        del witness[(hu, hv)]
                        for v in claim_b:
                            owner[v] = -1
                    for v in claim_a:
                        owner[v] = -1
        return False

    def choose_roots(idx: int) -> MinorModel | None:
        if idx == h.n:
            witness = {}
            if satisfy(0, witness):
                branch = {hv: frozenset(v for v in range(g.n) if owner[v] == hv)
                          for hv in range(h.n)}
                return MinorModel(r, branch, dict(witness))
            return None
        hv = h_order[idx]
        for c in range(g.n):
            if owner[c] != -1:
                continue
            if h_is_clique and idx > 0 and c < roots[h_order[idx - 1]]:
                continue  # interchangeable branch sets: force increasing roots
            if any(dist[c].get(roots[p], g.n + 1) > limit for p in placed_nbrs[idx]):
                continue
            owner[c] = hv
            roots[hv] = c
            got = choose_roots(idx + 1)
            if got is not None:
                return got
            owner[c] = -1
            del roots[hv]
        return None

    model = choose_roots(0)
    if model is not None:
        raise_if_invalid(verify_minor_model(g, h, model),
                         "search produced an invalid model", model=model)
    return model


# ------------------------------------------------------------ density report

@dataclass(frozen=True)
class DensityReport:
    """Best edge density |E(H)|/|V(H)| over the depth-r minors the search
    visited.  This is a lower bound on the true maximum, nothing more."""

    depth: int
    density: float
    minor_n: int
    minor_m: int
    model: MinorModel
    attempts: int
    lower_bound: bool = field(default=True)

    def to_json(self):
        return {
            "depth": self.depth,
            "density": self.density,
            "minor_n": self.minor_n,
            "minor_m": self.minor_m,
            "attempts": self.attempts,
            "lower_bound": self.lower_bound,
            "model": self.model.to_json(),
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["depth"], d["density"], d["minor_n"], d["minor_m"],
                   MinorModel.from_json(d["model"]), d.get("attempts"),
                   d.get("lower_bound", True))


class DensityCertificate:
    """A density report and the minor `h` its model claims to contract to."""
    __slots__ = ("h", "report")
    kind = "density"

    def __init__(self, h: Graph, report: DensityReport):
        self.h, self.report = h, report

    def to_json(self):
        return {"h": to_jsonable(self.h), **self.report.to_json()}

    @classmethod
    def from_json(cls, d):
        return cls(graph_from_json(d["h"]), DensityReport.from_json(d))


def validate_density_certificate(g: Graph, cert: DensityCertificate) -> list:
    """The model is one of h; h has the claimed size and density (an empty h
    has none); the report's depth is its model's.  Returns violations."""
    h, rep = cert.h, cert.report
    out = verify_minor_model(g, h, rep.model)
    if h.n != rep.minor_n or h.m != rep.minor_m:
        out.append(f"model is on {h.n} vertices / {h.m} edges, "
                   f"report says {rep.minor_n} / {rep.minor_m}")
    if not h.n:
        out.append(f"density {rep.density} claimed for an empty model")
    elif abs(rep.density - h.m / h.n) > 1e-12:
        out.append(f"density {rep.density} != {h.m}/{h.n}")
    if rep.depth != rep.model.depth:
        out.append(f"report depth {rep.depth}, model depth {rep.model.depth}")
    return out


def _claim(g: Graph, centers: list, r: int):
    """Claim each vertex for its nearest center within distance r (ties to
    the earliest center), level by level.  Returns each vertex's cell index
    (-1 when unclaimed) and the claimed vertices in claim order."""
    owner = [-1] * g.n
    for i, c in enumerate(centers):
        owner[c] = i
    claimed, frontier = list(centers), centers
    for _ in range(r):
        nxt = []
        for u in frontier:
            i = owner[u]
            for w in g.adj[u]:
                if owner[w] < 0:
                    owner[w] = i
                    nxt.append(w)
        if not nxt:
            break
        claimed += nxt
        frontier = nxt
    return owner, claimed


def _voronoi_quotient(g: Graph, centers: list, r: int):
    """The cells of `_claim` and one witness edge per pair of adjacent cells;
    BFS-tree paths stay inside a cell, so every cell has radius <= r around
    its center."""
    owner, claimed = _claim(g, centers, r)
    cells = {}
    for v in claimed:
        cells.setdefault(owner[v], set()).add(v)
    quotient_edges = {}
    for u, v in g.edges():
        ou, ov = owner[u], owner[v]
        if ou >= 0 and ov >= 0 and ou != ov:
            quotient_edges.setdefault((min(ou, ov), max(ou, ov)), (u, v) if ou < ov else (v, u))
    return cells, quotient_edges


def _quotient_edge_count(g: Graph, centers: list, r: int) -> int:
    """The number of quotient edges `_voronoi_quotient` finds, without
    building its cells or witnesses: each pair of adjacent cells i < j is
    counted once, as the int i*k + j."""
    owner, claimed = _claim(g, centers, r)
    k, adj = len(centers), g.adj
    return len({owner[u] * k + owner[w]
                for u in claimed for w in adj[u] if owner[w] > owner[u]})


def _prefix_quotient_edge_counts(g: Graph, seq, r: int) -> list:
    """`_quotient_edge_count(g, sorted(seq[:k]), r)` for k = 1..len(seq), of
    distinct vertices `seq`, in one pass that adds one center at a time.

    `_claim` gives each vertex within r of the centers its nearest center,
    ties to the least id, since its frontiers stay sorted by owner.  So
    adding center c re-owns exactly the vertices c now wins, comparing
    (distance, center id) pairs, and they are closed under a BFS from c: the
    vertex before a won one on a shortest path from c is won too.  Each step
    runs that BFS through won vertices only and moves the edges at the
    re-owned vertices between the counts of edges per pair of cells; a pair
    of cells is adjacent while its count is positive.

    Nested prefixes make this pay: each step touches only what the new
    center wins.  On unrelated center sets, such as `density_report`'s
    random ones, building them center by center costs far more than one
    `_quotient_edge_count`, which is why both exist."""
    n, adj = g.n, g.adj
    dist = [r + 1] * n  # distance to the owner, r + 1 while unclaimed
    owner = [-1] * n
    pairs = {}  # a * n + b for centers a < b -> edges between their cells
    adjacent = 0
    out = []
    for c in seq:
        won = {c: 0}
        frontier = [c]
        for d in range(1, r + 1):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in won and (d < dist[w] or d == dist[w] and c < owner[w]):
                        won[w] = d
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        for v in won:
            ov = owner[v]
            for w in adj[v]:
                inside = w in won
                if inside and w < v:
                    continue  # an edge inside the region is taken once
                ow = owner[w]
                if ov >= 0 and ow >= 0 and ov != ow:
                    key = ov * n + ow if ov < ow else ow * n + ov
                    left = pairs[key] - 1
                    if left:
                        pairs[key] = left
                    else:
                        del pairs[key]
                        adjacent -= 1
                if not inside and ow >= 0:
                    key = c * n + ow if c < ow else ow * n + c
                    got = pairs.get(key, 0)
                    pairs[key] = got + 1
                    if not got:
                        adjacent += 1
        for v, d in won.items():
            owner[v], dist[v] = c, d
        out.append(adjacent)
    return out


def density_report(g: Graph, r: int, budget: int = 200, seed: int = 0) -> DensityReport:
    """Randomized greedy search over center sets: contract the radius-r
    Voronoi cells of a candidate center set and keep whatever maximizes edge
    density.  Deterministic for a fixed seed.

    Each candidate is scored by counting its quotient edges; the nested
    degree-order prefixes are scored in one incremental pass
    (`_prefix_quotient_edge_counts`).  Only the winner's cells and witnesses
    are built, once, at the end, and its score is checked against them."""
    if g.n == 0:
        raise GraphInputError("density undefined for the empty graph")
    if r < 0:
        raise PreconditionError(f"r must be >= 0, got {r}")
    if budget < 0:
        raise PreconditionError(f"budget must be >= 0, got {budget}")
    rng = Rng(seed)
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    attempts = 0
    best = None  # (density, centers)

    def consider(centers: list):
        nonlocal best, attempts
        centers = sorted(set(centers))
        if not centers:
            return
        attempts += 1
        dens = _quotient_edge_count(g, centers, r) / len(centers)
        if best is None or dens > best[0]:
            best = (dens, centers)

    consider(list(range(g.n)))
    for k, edges in enumerate(_prefix_quotient_edge_counts(g, by_degree, r), 1):
        attempts += 1
        if edges / k > best[0]:
            best = (edges / k, sorted(by_degree[:k]))
    for _ in range(budget):
        k = 1 + rng.randint(g.n)
        pool = list(range(g.n))
        rng.shuffle(pool)
        consider(pool[:k])
        if best is not None and len(best[1]) > 1:
            # local move: drop one random center from the incumbent
            drop = rng.choice(best[1])
            consider([c for c in best[1] if c != drop])

    dens, centers = best
    cells, qedges = _voronoi_quotient(g, centers, r)
    if len(qedges) / len(cells) != dens:
        raise AlgorithmStallError(
            f"quotient density {len(qedges)}/{len(cells)} disagrees with its score {dens}",
            state={"centers": centers, "scored": dens,
                   "cells": len(cells), "edges": len(qedges)})
    idx = {cell_id: i for i, cell_id in enumerate(sorted(cells))}
    branch = {idx[cid]: frozenset(vs) for cid, vs in cells.items()}
    witness = {
        (idx[a], idx[b]): w for (a, b), w in qedges.items()
    }
    model = MinorModel(r, branch, witness)
    minor = Graph(len(branch), list(witness))
    raise_if_invalid(verify_minor_model(g, minor, model),
                     "density search produced an invalid model", model=model)
    return DensityReport(r, dens, minor.n, minor.m, model, attempts)
