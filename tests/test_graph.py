import pytest

from sparsekit.errors import GraphInputError
from sparsekit.graph import (Graph, ball, bfs_distances, components,
                             induced_subgraph, iter_bits, mask_ball,
                             mask_components, set_radius)
from sparsekit.graphio import cycle_graph, grid_graph, path_graph


def test_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 4 and g.m == 3
    assert g.adj[1] == (0, 2)
    assert g.has_edge(2, 0) and not g.has_edge(0, 3)
    assert g.degree(3) == 0
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    same = Graph(4, [(2, 1), (0, 2), (1, 0)])
    assert g == same and hash(g) == hash(same) and repr(g) == "Graph(n=4, m=3)"


def test_construction_rejects_bad_input():
    with pytest.raises(GraphInputError):
        Graph(-1, [])
    with pytest.raises(GraphInputError):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphInputError):
        Graph(2, [(1, 1)])
    with pytest.raises(GraphInputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphInputError):
        Graph(2, [(0, 1)], labels=["a"])


def test_bfs_distances_and_restriction():
    p = path_graph(6)
    d = bfs_distances(p, (0,))
    assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}
    assert bfs_distances(p, (0,), 2) == {0: 0, 1: 1, 2: 2}
    # removing vertex 2 from the active set cuts the path
    d = bfs_distances(p, (0,), None, frozenset({0, 1, 3, 4, 5}))
    assert d == {0: 0, 1: 1}
    # sources outside the active set are ignored
    assert bfs_distances(p, (2,), None, frozenset({0, 1})) == {}
    # multiple sources
    assert bfs_distances(p, (0, 5), 1) == {0: 0, 1: 1, 5: 0, 4: 1}


def test_bfs_radius_caps_at_every_value():
    # the cap once stopped only at a level equal to the radius, so a
    # fractional radius searched the whole graph
    p = path_graph(6)
    assert bfs_distances(p, (0,), 1.5) == {0: 0, 1: 1}
    assert bfs_distances(p, (0,), 0.5) == bfs_distances(p, (0,), 0) == {0: 0}
    with pytest.raises(GraphInputError, match="radius must be >= 0, got -1"):
        bfs_distances(p, (0,), -1)
    with pytest.raises(TypeError):
        bfs_distances(p, (0,), "x")


def test_balls():
    c = cycle_graph(8)
    assert ball(c, 0, 0) == {0}
    assert ball(c, 0, 1) == {7, 0, 1}
    assert ball(c, 0, 4) == frozenset(range(8))
    with pytest.raises(GraphInputError):
        ball(c, 0, -1)
    with pytest.raises(GraphInputError):
        ball(c, 9, 1)


def test_components_and_connectivity():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    comps = components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3, 4], [5]]
    assert components(path_graph(4)) == [frozenset(range(4))]
    assert components(Graph(0, [])) == []
    assert components(g, active=frozenset({2, 4})) == [frozenset({2}), frozenset({4})]


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(1)) == [0]
    assert list(iter_bits(0b101100)) == [2, 3, 5]
    assert list(iter_bits(1 << 70 | 1 << 3)) == [3, 70]


def _mask(vs):
    return sum(1 << v for v in vs)


def test_mask_ball_matches_bfs_distances(corpus_small):
    # on the whole graph and on a proper subset (every third vertex removed,
    # the seed kept): the ball is the key set, the depth the largest distance
    for g in corpus_small:
        masks = g.adjacency_masks()
        for v in range(g.n):
            for active in (set(range(g.n)),
                           {w for w in range(g.n) if w % 3 != 2 or w == v}):
                for radius in (None, 0, 0.5, 1, 1.5, 2):
                    dist = bfs_distances(g, (v,), radius, active)
                    got = mask_ball(masks, 1 << v, _mask(active), radius)
                    assert got == (_mask(dist), max(dist.values())), (g, v, radius)


def test_mask_components_match_components(corpus_small):
    # on the whole graph and with every third vertex removed
    for g in corpus_small:
        masks = g.adjacency_masks()
        for active in (set(range(g.n)), {w for w in range(g.n) if w % 3 != 2}):
            got = mask_components(masks, _mask(active))
            assert got == [_mask(c) for c in components(g, active)], (g, active)


def test_mask_ball_from_a_seed_set():
    p = path_graph(7)
    masks = p.adjacency_masks()
    full = _mask(range(7))
    assert mask_ball(masks, _mask({0, 6}), full, 1) == (_mask({0, 1, 5, 6}), 1)
    assert mask_ball(masks, _mask({0, 6}), full) == (full, 3)
    # the seed is in the ball even when it lies outside `within`
    assert mask_ball(masks, 1 << 3, _mask({2, 1}), None) == (_mask({1, 2, 3}), 2)


def test_induced_subgraph_and_deletion():
    c = cycle_graph(6)
    sub, old = induced_subgraph(c, {1, 2, 3})
    assert old == (1, 2, 3)
    assert sorted(sub.edges()) == [(0, 1), (1, 2)]
    h, old = induced_subgraph(c, range(1, 6))
    assert h.n == 5 and h.m == 4 and old == (1, 2, 3, 4, 5)
    # labels carry through
    g = Graph(3, [(0, 1)], labels=["a", "b", "c"])
    sub, old = induced_subgraph(g, {0, 2})
    assert sub.labels == ("a", "c")


def test_set_radius():
    p = path_graph(7)
    assert set_radius(p, {0, 1, 2}) == 1
    assert set_radius(p, {0, 1, 2, 3, 4}) == 2
    assert set_radius(p, {0, 2}) == -1  # disconnected inside the set
    assert set_radius(p, {3}) == 0
    g = grid_graph(3, 3)
    assert set_radius(g, range(9)) == 2
