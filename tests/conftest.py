"""Shared test corpora, all deterministic.

`atlas_graphs`: every connected graph on 1..7 vertices (from the networkx
atlas).  `corpus_small`: those plus 200 seeded random graphs on <= 8
vertices.  `corpus40`: 100 mixed graphs on <= 40 vertices for strategy and
cover sweeps.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sparsekit.graph import Graph
from sparsekit.graphio import (complete_graph, cycle_graph, grid_graph,
                               path_graph, random_tree, star_graph, subdivide)
from sparsekit.rng import Rng


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    rng = Rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.next_float() < p]
    return Graph(n, edges)


@pytest.fixture(scope="session")
def atlas_graphs():
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g
    out = []
    for G in graph_atlas_g():
        if G.number_of_nodes() == 0 or not nx.is_connected(G):
            continue
        relabel = {v: i for i, v in enumerate(sorted(G.nodes()))}
        out.append(Graph(G.number_of_nodes(),
                         [(relabel[u], relabel[v]) for u, v in G.edges()]))
    assert len(out) == 996
    return out


@pytest.fixture(scope="session")
def corpus_small(atlas_graphs):
    out = list(atlas_graphs)
    for i in range(200):
        n = 4 + i % 5  # 4..8
        out.append(gnp_graph(n, 0.35, seed=9000 + i))
    return out


@pytest.fixture(scope="session")
def corpus40():
    out = [
        path_graph(40), path_graph(17), cycle_graph(36), cycle_graph(23),
        star_graph(39), star_graph(12), complete_graph(8),
        grid_graph(5, 8), grid_graph(3, 13), grid_graph(6, 6),
        subdivide(complete_graph(5), 1), subdivide(complete_graph(6), 1),
        subdivide(complete_graph(4), 2), subdivide(cycle_graph(9), 3),
        subdivide(star_graph(12), 1), subdivide(grid_graph(3, 4), 1),
    ]
    for i in range(42):
        out.append(random_tree(10 + (7 * i) % 31, seed=100 + i))
    for i in range(42):
        n = 12 + (5 * i) % 29
        out.append(gnp_graph(n, 2.5 / n, seed=500 + i))
    assert len(out) == 100
    assert all(g.n <= 40 for g in out)
    return out
