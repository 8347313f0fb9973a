import hashlib

import pytest

from oracles import naive_has_minor
from sparsekit.errors import AlgorithmStallError, CapabilityError
from sparsekit.graph import Graph
from sparsekit.graphio import (complete_graph, cycle_graph, emit_json,
                               gnd_graph, grid_graph, path_graph, random_tree,
                               star_graph, subdivide)
from sparsekit.minors import (MinorModel, _prefix_quotient_edge_counts,
                              _quotient_edge_count, density_report,
                              find_depth_r_minor, verify_minor_model)

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


# sha256 of emit_json(density_report(g, r, budget=20, seed=seed).to_json()),
# as the search that built every candidate's quotient returned it.
PINNED_DENSITY_REPORTS = {
    ("gnd500", 1, 0): "32ffc38a1bcc0767532974182cdf15fb07d97632186f64f35b5c3501c21fcb3d",
    ("gnd500", 1, 7): "e780544b338043eb67557d178a7b06d5fb360f3fece294a93f379c69e85074da",
    ("gnd500", 2, 0): "1932710f5d871298fc344051dd336343e8eb31da926256d0ef03c49ad9e8d43c",
    ("gnd500", 2, 7): "f531a2b3b08ff035d38e53e3553e2489206a9cc3118be9058831a499161a898a",
    ("grid12", 1, 0): "0c23a3ec477a65fb4454cd5d9996d9cc59e8ec952a90403078cede297ee72f85",
    ("grid12", 1, 7): "9a3192971d10fbf49e6cab61bcaba60cb477585bcf705ce24d2ae116f0960379",
    ("grid12", 2, 0): "e9f761ce1f8e0c84ac0982a4327af511d72729651ae7d0a0682741fb35ca5e26",
    ("grid12", 2, 7): "158a65db54a9e3d24c42a9d0f85f6016d12220355b2dd5bb091a38e3ccf71dcc",
    ("tree300", 1, 0): "35121da039b64a97da2b6aae750088ae4c195b185d7b39183cc1a376f0b978e3",
    ("tree300", 1, 7): "35121da039b64a97da2b6aae750088ae4c195b185d7b39183cc1a376f0b978e3",
    ("tree300", 2, 0): "fe06f65c5c77eec20721cda92c23a13f5b77b303525b47d22f55708e86b4f688",
    ("tree300", 2, 7): "fe06f65c5c77eec20721cda92c23a13f5b77b303525b47d22f55708e86b4f688",
}


def test_density_reports_pinned():
    graphs = {"gnd500": gnd_graph(500, 3.0, seed=1), "grid12": grid_graph(12, 12),
              "tree300": random_tree(300, seed=1)}
    for (name, r, seed), want in PINNED_DENSITY_REPORTS.items():
        rep = density_report(graphs[name], r, budget=20, seed=seed)
        got = hashlib.sha256(emit_json(rep.to_json()).encode()).hexdigest()
        assert got == want, (name, r, seed)


def test_density_report_builds_one_quotient(monkeypatch):
    # candidates are scored without building their quotients; only the
    # winner's cells and witnesses are materialized
    import sparsekit.minors as minors
    calls = []

    def counting(*args):
        calls.append(1)
        return quotient(*args)

    quotient = minors._voronoi_quotient
    monkeypatch.setattr(minors, "_voronoi_quotient", counting)
    rep = density_report(grid_graph(6, 6), 1, budget=10, seed=1)
    assert rep.attempts > 1 and len(calls) == 1


def test_density_report_rechecks_the_winning_score(monkeypatch):
    # the built quotient must have the density its candidate was scored at;
    # a mismatch is a raise, not an assert, so it survives python -O
    import sparsekit.minors as minors
    count = minors._quotient_edge_count
    monkeypatch.setattr(minors, "_quotient_edge_count", lambda *a: count(*a) + 1)
    with pytest.raises(AlgorithmStallError) as e:
        density_report(grid_graph(4, 4), 1, budget=2, seed=0)
    assert e.value.state["scored"] == (e.value.state["edges"] + 1) / e.value.state["cells"]
    # a degree-order prefix scored one edge too high wins and is caught the
    # same way, although its score never came from `_quotient_edge_count`
    monkeypatch.setattr(minors, "_quotient_edge_count", count)
    prefixes = minors._prefix_quotient_edge_counts
    monkeypatch.setattr(minors, "_prefix_quotient_edge_counts",
                        lambda *a: [k + 1 for k in prefixes(*a)])
    with pytest.raises(AlgorithmStallError) as e:
        density_report(grid_graph(4, 4), 1, budget=2, seed=0)
    assert e.value.state["scored"] == (e.value.state["edges"] + 1) / e.value.state["cells"]


def test_prefix_scores_match_one_shot_scores(corpus_small):
    # the incremental prefix scores equal scoring every prefix from scratch,
    # on the degree order density_report uses and on a shuffled order
    import random
    rng = random.Random(16)
    graphs = corpus_small[::9] + [gnd_graph(500, 3.0, seed=1), grid_graph(12, 12),
                                  random_tree(300, seed=1)]
    for g in graphs:
        by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        shuffled = rng.sample(range(g.n), g.n)
        for seq in (by_degree, shuffled):
            for r in (0, 1, 2):
                want = [_quotient_edge_count(g, sorted(seq[:k]), r)
                        for k in range(1, g.n + 1)]
                assert _prefix_quotient_edge_counts(g, seq, r) == want, (g, r)


# sha256 of the emit_json of find_depth_r_minor's model ("null" when there is
# none) over corpus_small, one line per graph, per (pattern, r).  Taken before
# the search precomputed its candidate lists; the models must not change.
PINNED_MINOR_PATTERNS = {"K3": complete_graph(3), "K4": complete_graph(4), "C4": cycle_graph(4)}
PINNED_MINOR_MODELS = {
    ("K3", 0): "6393ed25ae0147965716585a1b3a6b8bfbaa3799e4edc6954fc0d2e441d3e717",
    ("K3", 1): "d0661a41bb9fada6d34cf6839372d59ef299d5bffeb89460ce830a6c35dc6c85",
    ("K3", 2): "da29413bbd7808ea54d1b02df34540c4c4b8df32682fcafcd07e3440b2509cfd",
    ("K4", 0): "43944afc4dbe03f4bf9721f9cfade61fc73d198c310ed2cfbc20b45415f2779a",
    ("K4", 1): "e95d758a9d97b434890070320d5939154e45a1cf3bda14a3c989a30e781a93c3",
    ("K4", 2): "bd47d2fca6c1444a787ce3e39b90f9d81eb64c04441bf7ce3866be035335c3b4",
    ("C4", 0): "d26d54b48a33f81f90a2676c733149f2430c0c159e8cafaf8f72ebd8eae3d0f5",
    ("C4", 1): "831bbe71ff41a16061cb3020837c2987d9791c56c4e1e144261c37680ed9004f",
    ("C4", 2): "517066b6c8528104ad45457c375b915d6b41e2e3b9884433681e34493806e563",
}


@pytest.mark.parametrize("key", sorted(PINNED_MINOR_MODELS), ids=lambda k: f"{k[0]}-r{k[1]}")
def test_minor_models_pinned(key, corpus_small):
    h = PINNED_MINOR_PATTERNS[key[0]]
    lines = []
    for g in corpus_small:
        model = find_depth_r_minor(g, h, key[1])
        lines.append(emit_json(model.to_json()) if model is not None else "null")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_MINOR_MODELS[key]
