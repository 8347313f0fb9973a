import pytest

from oracles import naive_has_minor
from sparsekit.errors import CapabilityError
from sparsekit.graph import Graph
from sparsekit.graphio import (complete_graph, cycle_graph, grid_graph,
                               path_graph, star_graph, subdivide)
from sparsekit.minors import (MinorModel, density_report, find_depth_r_minor,
                              verify_minor_model)

K3 = complete_graph(3)


def test_find_matches_naive_on_fixed_cases():
    cases = [
        (cycle_graph(9), K3, 1, True),
        (cycle_graph(9), K3, 2, True),
        (path_graph(9), K3, 1, False),
        (path_graph(9), K3, 2, False),
        (grid_graph(3, 3), K3, 1, True),
        (star_graph(8), K3, 2, False),
        (cycle_graph(9), complete_graph(2), 0, True),
        (Graph(3, []), complete_graph(2), 2, False),
    ]
    for g, h, r, want in cases:
        model = find_depth_r_minor(g, h, r)
        assert (model is not None) == want
        assert naive_has_minor(g, h, r) == want
        if model is not None:
            assert verify_minor_model(g, h, model) == []


def test_every_returned_model_verifies(atlas_graphs):
    hs = [complete_graph(2), path_graph(3), K3]
    for g in [g for g in atlas_graphs if g.n <= 6][::11]:
        for h in hs:
            for r in (0, 1):
                model = find_depth_r_minor(g, h, r)
                if model is not None:
                    assert model.depth == r
                    assert verify_minor_model(g, h, model) == []


def test_depth_zero_is_subgraph_containment():
    # K3 at depth 0 means an actual triangle
    assert find_depth_r_minor(cycle_graph(9), K3, 0) is None
    assert find_depth_r_minor(cycle_graph(3), K3, 0) is not None


def test_subdivision_law_small():
    # an r-subdivision of K_m yields K_m back at depth ceil(r/2)
    for m in (3, 4):
        for r in (1, 2):
            g = subdivide(complete_graph(m), r)
            model = find_depth_r_minor(g, complete_graph(m), (r + 1) // 2,
                                       max_g=40)
            assert model is not None
            assert verify_minor_model(g, complete_graph(m), model) == []
            # half subdivision stays clique-free at smaller depth when r >= 2
            if r >= 2:
                assert find_depth_r_minor(g, complete_graph(m), (r + 1) // 2 - 1,
                                          max_g=40) is None


def test_verify_minor_model_catches_defects():
    g = cycle_graph(6)
    ok = MinorModel(1, {0: frozenset({0, 1}), 1: frozenset({2, 3}),
                        2: frozenset({4, 5})},
                    {(0, 1): (1, 2), (1, 2): (3, 4), (0, 2): (0, 5)})
    assert verify_minor_model(g, K3, ok) == []
    # overlapping branch sets
    bad = MinorModel(1, {0: frozenset({0, 1}), 1: frozenset({1, 3}),
                         2: frozenset({4, 5})},
                     {(0, 1): (1, 3), (1, 2): (3, 4), (0, 2): (0, 5)})
    assert any("both" in v for v in verify_minor_model(g, K3, bad))
    # disconnected branch set (0 and 2 are not adjacent in C6)
    split = MinorModel(1, {0: frozenset({0, 2}), 1: frozenset({3, 4}),
                           2: frozenset({5})},
                       {(0, 1): (2, 3), (1, 2): (4, 5), (0, 2): (0, 5)})
    assert any("disconnected" in v for v in verify_minor_model(g, K3, split))
    # radius violation
    deep = MinorModel(0, {0: frozenset({0, 1}), 1: frozenset({2, 3}),
                          2: frozenset({4, 5})},
                      {(0, 1): (1, 2), (1, 2): (3, 4), (0, 2): (0, 5)})
    assert any("radius" in v for v in verify_minor_model(g, K3, deep))
    # missing witness / non-edge witness
    noedge = MinorModel(1, {0: frozenset({0, 1}), 1: frozenset({2, 3}),
                            2: frozenset({4, 5})},
                        {(0, 1): (0, 2), (1, 2): (3, 4), (0, 2): (0, 5)})
    assert any("not an edge" in v for v in verify_minor_model(g, K3, noedge))
    missing = MinorModel(1, {0: frozenset({0, 1}), 1: frozenset({2, 3}),
                             2: frozenset({4, 5})},
                         {(0, 1): (1, 2), (1, 2): (3, 4)})
    assert any("missing witness" in v for v in verify_minor_model(g, K3, missing))


def test_minor_model_json_round_trip():
    g = cycle_graph(6)
    model = find_depth_r_minor(g, K3, 1)
    back = MinorModel.from_json(model.to_json())
    assert back == model


def test_caps():
    with pytest.raises(CapabilityError):
        find_depth_r_minor(path_graph(30), K3, 1)
    with pytest.raises(CapabilityError):
        find_depth_r_minor(path_graph(5), complete_graph(6), 1)


def test_has_shallow_clique():
    k4 = complete_graph(4)
    assert find_depth_r_minor(subdivide(k4, 1), k4, 1) is not None
    assert find_depth_r_minor(path_graph(8), K3, 1) is None


def test_density_report_is_deterministic_and_verified():
    g = subdivide(complete_graph(6), 1)
    a = density_report(g, 1, seed=3)
    b = density_report(g, 1, seed=3)
    assert a.density == b.density and a.model.branch_sets == b.model.branch_sets
    h = Graph(len(a.model.branch_sets), list(a.model.edge_witness))
    assert verify_minor_model(g, h, a.model) == []
    assert a.density == h.m / h.n


def test_density_lower_bound_model():
    # a 1-subdivision of K_n quotients back to density (n-1)/2 at depth 1
    for n, want in ((6, 2.5), (10, 4.5)):
        rep = density_report(subdivide(complete_graph(n), 1), 1, seed=0)
        assert rep.density == want
        assert rep.lower_bound
