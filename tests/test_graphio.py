import json

import pytest

from sparsekit.errors import CapabilityError, EdgeListParseError, GraphInputError
from sparsekit.graphio import (MAX_PAIRS, MAX_VERTICES, apex_graph,
                               complete_graph, cycle_graph, emit_json,
                               generate, gnd_graph,
                               graph_from_json, grid_graph, parse_edge_list,
                               path_graph, random_tree, read_dimacs,
                               star_graph, subdivide, to_jsonable,
                               write_edge_list)


def test_numeric_edge_list_keeps_ids():
    g = parse_edge_list("0 4\n0 5\n1 4\n")
    assert g.n == 6 and g.labels is None
    assert sorted(g.edges()) == [(0, 4), (0, 5), (1, 4)]
    # gaps become isolated vertices
    assert parse_edge_list("0 2\n").n == 3


def test_labeled_edge_list_first_appearance():
    g = parse_edge_list("alice bob\nbob carol\n# comment\n\n")
    assert g.labels == ("alice", "bob", "carol")
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_edge_list_round_trip():
    for g in (path_graph(5), subdivide(complete_graph(4), 1), star_graph(8)):
        back = parse_edge_list(write_edge_list(g))
        assert back.n == g.n and sorted(back.edges()) == sorted(g.edges())


def test_edge_list_errors():
    with pytest.raises(EdgeListParseError) as e:
        parse_edge_list("0 1 2\n")
    assert e.value.line_no == 1
    with pytest.raises(EdgeListParseError):
        parse_edge_list("3 3\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 1\n1 0\n")


def test_dimacs():
    text = "c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = read_dimacs(text)
    assert g.n == 4 and sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.labels == ("1", "2", "3", "4")
    with pytest.raises(EdgeListParseError):
        read_dimacs("e 1 2\n")
    with pytest.raises(EdgeListParseError):
        read_dimacs("p edge 2 5\ne 1 2\n")


@pytest.mark.parametrize("text,message", [
    ("p edge 2 0\np edge 2 0\n", "line 2: second 'p' header"),
    ("p col 2 0\n", "line 1: bad header 'p col 2 0'"),
    ("p edge 2 1\ne 1\n", "line 2: bad edge line 'e 1'"),
    ("p edge 2 1\ne 1 3\n", "line 2: vertex out of range in 'e 1 3'"),
    ("p edge 2 1\ne 2 2\n", "line 2: self-loop in 'e 2 2'"),
    ("p edge 2 2\ne 1 2\ne 2 1\n", "line 3: duplicate edge in 'e 2 1'"),
    ("p edge 2 0\nx 1 2\n", "line 2: unknown line type 'x 1 2'"),
    ("c only a comment\n", "line 1: missing 'p edge n m' header"),
], ids=["second-header", "bad-header", "bad-edge", "out-of-range", "self-loop",
        "duplicate", "unknown-line", "no-header"])
def test_dimacs_refusals(text, message):
    with pytest.raises(EdgeListParseError) as e:
        read_dimacs(text)
    assert str(e.value) == message


@pytest.mark.parametrize("build,message", [
    (lambda: cycle_graph(2), "cycle needs n >= 3, got 2"),
    (lambda: grid_graph(0, 3), "grid needs rows, cols >= 1"),
    (lambda: star_graph(0), "star needs n >= 1, got 0"),
    (lambda: random_tree(0, seed=1), "random_tree needs n >= 1, got 0"),
    (lambda: gnd_graph(-1, 1.0, seed=1), "gnd needs n >= 0, got -1"),
    (lambda: subdivide(path_graph(3), -1), "subdivision depth must be >= 0, got -1"),
], ids=["cycle", "grid", "star", "random_tree", "gnd", "subdivide"])
def test_generator_parameter_refusals(build, message):
    # generator parameters are graph data, so they stay graph input errors
    with pytest.raises(GraphInputError) as e:
        build()
    assert str(e.value) == message


def test_basic_generators():
    assert path_graph(1).m == 0
    assert (path_graph(6).n, path_graph(6).m) == (6, 5)
    assert (cycle_graph(5).n, cycle_graph(5).m) == (5, 5)
    assert (complete_graph(5).n, complete_graph(5).m) == (5, 10)
    s = star_graph(7)
    assert (s.n, s.m) == (7, 6) and s.degree(0) == 6
    g = grid_graph(3, 4)
    assert (g.n, g.m) == (12, 2 * 3 * 4 - 3 - 4)


def test_subdivide_and_apex():
    base = complete_graph(4)
    one = subdivide(base, 1)
    assert one.n == base.n + base.m and one.m == 2 * base.m
    assert max(one.degree(v) for v in range(one.n)) == 3
    zero = subdivide(base, 0)
    assert zero.n == base.n and sorted(zero.edges()) == sorted(base.edges())
    a = apex_graph(path_graph(4))
    assert a.n == 5 and a.degree(4) == 4
    # a labelled graph keeps its labels, and the new vertices get their own
    named = parse_edge_list("a b\nb c\n")
    assert subdivide(named, 1).labels == ("a", "b", "c", "s0-1.0", "s1-2.0")
    assert subdivide(named, 0).labels == ("a", "b", "c")
    assert apex_graph(named).labels == ("a", "b", "c", "apex")


def test_random_generators_are_seeded():
    t1, t2 = random_tree(20, seed=5), random_tree(20, seed=5)
    assert sorted(t1.edges()) == sorted(t2.edges())
    assert sorted(t1.edges()) != sorted(random_tree(20, seed=6).edges())
    assert t1.m == 19
    assert (random_tree(1, seed=5).n, random_tree(1, seed=5).m) == (1, 0)
    assert list(random_tree(2, seed=5).edges()) == [(0, 1)]
    g1, g2 = gnd_graph(30, 2.0, seed=1), gnd_graph(30, 2.0, seed=1)
    assert sorted(g1.edges()) == sorted(g2.edges())


def test_generate_specs():
    g = generate({"family": "subdivision", "base": {"family": "complete", "n": 4}, "r": 1})
    assert g.n == 10
    with pytest.raises(GraphInputError):
        generate({"family": "random_tree", "n": 5})  # seed missing
    with pytest.raises(GraphInputError):
        generate({"family": "mystery", "n": 5})
    with pytest.raises(GraphInputError):
        generate({"family": "path"})  # parameter missing


@pytest.mark.parametrize("spec", [
    {"family": "path", "n": "5"},
    {"family": "path", "n": True},
    {"family": "grid", "rows": 2.5, "cols": 2},
    {"family": "gnd", "n": 20, "d": True, "seed": 1},
    {"family": "gnd", "n": 20, "d": "3", "seed": 1},
    {"family": "random_tree", "n": 5, "seed": None},
    {"family": "subdivision", "base": {"family": "path", "n": 3}, "r": 1.0},
    {"family": "apex", "base": {"family": "star", "n": [4]}},
    {"family": ["path"], "n": 3},
])
def test_generate_rejects_mistyped_parameters(spec):
    with pytest.raises(GraphInputError):
        generate(spec)


def test_generate_takes_an_int_density():
    spec = {"family": "gnd", "n": 40, "d": 3, "seed": 2}
    assert generate(spec) == generate(dict(spec, d=3.0)) == gnd_graph(40, 3.0, seed=2)


def test_json_canonicalization():
    g = path_graph(3)
    doc = to_jsonable({"g": g, "s": frozenset({3, 1, 2}), "t": (1, 2)})
    assert doc == {"g": {"n": 3, "edges": [[0, 1], [1, 2]]}, "s": [1, 2, 3], "t": [1, 2]}
    text = emit_json(doc)
    assert text == emit_json(doc)
    assert text.endswith("\n")
    back = graph_from_json(json.loads(text)["g"])
    assert back.n == 3 and sorted(back.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_vertex_count_cap():
    # checked before any per-vertex allocation, so none of these allocates
    assert MAX_VERTICES == 1_000_000
    too_many = [
        lambda: parse_edge_list(f"0 {MAX_VERTICES}\n"),
        lambda: parse_edge_list("0 99999999999\n"),
        lambda: read_dimacs(f"p edge {MAX_VERTICES + 1} 0\n"),
        lambda: generate({"family": "path", "n": 10 ** 12}),
        lambda: generate({"family": "grid", "rows": 1001, "cols": 1000}),
        lambda: generate({"family": "subdivision", "r": 1000,
                          "base": {"family": "star", "n": 1001}}),
    ]
    for build in too_many:
        with pytest.raises(CapabilityError) as e:
            build()
        assert e.value.cap_name == "max_vertices" and e.value.cap_value == MAX_VERTICES
    # two negative sides multiply to a large count, but stay an input error
    with pytest.raises(GraphInputError, match="grid needs rows, cols >= 1"):
        generate({"family": "grid", "rows": -2000, "cols": -1000})


def test_pair_count_cap():
    # the families that scan every vertex pair are checked before they build
    assert MAX_PAIRS == 10_000_000
    too_many = [
        {"family": "complete", "n": 4473},  # 10001628 pairs
        {"family": "gnd", "n": 10 ** 6, "d": 3.0, "seed": 1},
        {"family": "subdivision", "r": 1, "base": {"family": "complete", "n": 5000}},
    ]
    for spec in too_many:
        with pytest.raises(CapabilityError) as e:
            generate(spec)
        assert e.value.cap_name == "max_pairs" and e.value.cap_value == MAX_PAIRS
    # a star is linear, however many pairs its vertices make
    assert generate({"family": "star", "n": 5000}).m == 4999
    with pytest.raises(GraphInputError, match="gnd needs n >= 0"):
        generate({"family": "gnd", "n": -5000, "d": 1.0, "seed": 1})


def test_overlong_vertex_id_is_a_parse_error():
    # int() refuses more than 4300 digits; that was a ValueError traceback
    with pytest.raises(EdgeListParseError, match="line 2: vertex id too long"):
        parse_edge_list("0 1\n0 " + "9" * 5000 + "\n")
