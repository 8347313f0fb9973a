import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

import sparsekit.cli as cli
from sparsekit.errors import AlgorithmStallError

PATH3 = '{"family":"path","n":3}'
PATH5 = '{"family":"path","n":5}'
PATH8 = '{"family":"path","n":8}'
CYCLE7 = '{"family":"cycle","n":7}'
K5 = '{"family":"complete","n":5}'
STAR10 = '{"family":"star","n":10}'


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "sparsekit.cli", *argv],
                          capture_output=True, text=True)
    doc = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, doc, proc.stderr


def test_envelope_shape():
    code, doc, err = run_cli("wcol", PATH5, "--r", "2", "--mode", "exact")
    assert code == 0
    assert sorted(doc) == ["certificate", "command", "error", "input", "params",
                           "result", "seed", "version", "wall_time_s"]
    assert doc["command"] == "wcol"
    assert doc["error"] is None
    assert doc["input"]["n"] == 5 and doc["input"]["m"] == 4
    assert doc["input"]["digest"].startswith("sha256:")
    assert doc["result"]["value"] == 3
    assert doc["certificate"]["kind"] == "order_witness"
    assert sorted(doc["certificate"]["order"]) == [0, 1, 2, 3, 4]
    assert "sparsekit wcol" in err


def test_byte_determinism():
    argv = [sys.executable, "-m", "sparsekit.cli", "cover", CYCLE7, "--r", "1"]
    a = subprocess.run(argv, capture_output=True, text=True).stdout
    b = subprocess.run(argv, capture_output=True, text=True).stdout
    strip = lambda s: [ln for ln in s.splitlines() if "wall_time_s" not in ln]
    assert strip(a) == strip(b) and len(a.splitlines()) - len(strip(a)) == 1


def test_game_on_k5():
    code, doc, _ = run_cli("game", K5, "--kind", "splitter", "--r", "1",
                           "--splitter", "wcol", "--connector", "greedy")
    assert code == 0
    assert doc["result"]["winner"] == "splitter"
    assert doc["result"]["rounds"] <= 5
    assert doc["certificate"]["kind"] == "transcript"


# per certificate kind, one key its validator cannot do without
REQUIRED_KEY = {
    "order_witness": "order", "elimination_forest": "parent", "minor_model": "h",
    "density": "h", "transcript": "rounds", "uqw": "B", "separator": "S",
    "cover": "clusters", "partition": "parts", "distance_set": "vertices",
}


@pytest.mark.parametrize("argv,graph", [
    (("wcol", PATH8, "--r", "2", "--mode", "exact", "--cap", "10"), PATH8),
    (("col", CYCLE7), CYCLE7),
    (("treedepth", PATH8), PATH8),
    (("minor", CYCLE7, "--pattern", '{"family":"complete","n":3}', "--r", "1"),
     CYCLE7),
    (("density", K5, "--r", "1", "--seed", "3"), K5),
    (("game", PATH8, "--kind", "treedepth", "--splitter", "exhaustive",
      "--connector", "exhaustive", "--rounds", "8"), PATH8),
    (("uqw", PATH8, "--r", "2", "--m", "2"), PATH8),
    (("separator", STAR10, "--r", "1", "--eps", "0.5"), STAR10),
    (("cover", PATH8, "--r", "1"), PATH8),
    (("partition", PATH8, "--r", "1"), PATH8),
    (("solve", PATH8, "--problem", "independent", "--r", "2", "--k", "3"), PATH8),
    (("solve", PATH8, "--problem", "dominating", "--r", "1"), PATH8),
    (("eval", CYCLE7, "--sentence", '{"k":2,"r":1,"chi":"true"}'), CYCLE7),
    # a radius far above n: writing and checking stop once nothing new is reached
    (("wcol", CYCLE7, "--r", "1000000000"), CYCLE7),
])
def test_certificates_survive_verify(tmp_path, argv, graph):
    code, doc, _ = run_cli(*argv)
    assert code == 0
    assert doc["certificate"] is not None
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc["certificate"]))
    code, vdoc, _ = run_cli("verify", str(cert), "--graph", graph)
    assert code == 0, vdoc["result"]["violations"]
    assert vdoc["result"]["ok"] is True
    # a certificate missing a key its validator reads is a usage error
    kind = doc["certificate"]["kind"]
    del doc["certificate"][REQUIRED_KEY[kind]]
    cert.write_text(json.dumps(doc["certificate"]))
    code, vdoc, _ = run_cli("verify", str(cert), "--graph", graph)
    assert code == 2 and vdoc["error"]["code"] == "precondition"


@pytest.mark.parametrize("cert,violation", [
    ({"kind": "uqw", "r": 1, "m": 1, "A": [0, 9], "S": [], "B": [9],
      "wcol_bound": 2, "guarantee_applies": False}, "vertex 9 not in the graph"),
    ({"kind": "cover", "r": 1, "clusters": {"0": [0, 9]}, "radius_bound": 2,
      "max_degree": 1}, "vertex 9 not in the graph"),
    ({"kind": "partition", "r": 1, "parts": [[0, 1, 2, 9]]},
     "vertex 9 not in the graph"),
    ({"kind": "elimination_forest", "value": 2, "parent": [5, -1, 0]},
     "vertex 5 not in the graph"),
    # a digit string is quoted: the message once read "vertex 1 not in the graph"
    ({"kind": "elimination_forest", "value": 2, "parent": [1, -1, "1"]},
     "vertex '1' not in the graph"),
])
def test_verify_reports_vertices_outside_the_graph(tmp_path, cert, violation):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, vdoc, _ = run_cli("verify", str(path), "--graph", '{"family":"path","n":3}')
    assert code == 1 and vdoc["result"]["violations"] == [violation]


@pytest.mark.parametrize("command,kind,violation", [
    ("col", "order_witness", "order on 7 vertices, graph has 8"),
    ("treedepth", "elimination_forest", "forest covers 7 vertices, graph has 8"),
])
def test_verify_against_a_graph_of_another_size_fails(tmp_path, command, kind, violation):
    # an order witness of the wrong size once exited 2 (graph_input)
    out = tmp_path / "cert.json"
    code, _, _ = run_cli(command, CYCLE7, "--out", str(out))
    assert code == 0
    code, vdoc, _ = run_cli("verify", str(out), "--graph", PATH8)
    assert code == 1 and vdoc["error"] is None
    assert vdoc["result"] == {"kind": kind, "ok": False, "violations": [violation]}


_TRANSCRIPT_P3 = {
    "kind": "transcript", "winner": "splitter", "connector_tag": "exhaustive",
    "splitter_tag": "exhaustive", "residual_sizes": [2, 0],
    "config": {"kind": "treedepth", "radius": 0, "batch_limit": 1, "round_cap": 3},
    "rounds": [{"center": "ID", "connector": [0, 1, 2], "splitter": [1], "residual": [0, 2]},
               {"center": 0, "connector": [0], "splitter": [0], "residual": []}],
}


@pytest.mark.parametrize("cert,replay", [
    ({"kind": "distance_set", "problem": "independent", "r": 1, "k": 1,
      "vertices": ["ID"]}, False),
    ({"kind": "order_witness", "r": 1, "value": 2, "optimal": False,
      "order": [0, "ID", 2]}, False),
    ({"kind": "uqw", "r": 1, "m": 1, "A": [0, "ID"], "S": [], "B": ["ID"],
      "wcol_bound": 2, "guarantee_applies": False}, False),
    ({"kind": "minor_model", "depth": 0, "h": {"n": 2, "edges": [[0, 1]]},
      "branch_sets": {"0": [0], "1": ["ID"]}, "edge_witness": {"0,1": [0, "ID"]}}, False),
    (_TRANSCRIPT_P3, False),
    (_TRANSCRIPT_P3, True),
], ids=["distance-set", "order-witness", "uqw", "minor-model", "transcript",
        "transcript-replay"])
def test_booleans_are_not_vertex_ids(tmp_path, cert, replay):
    # true once passed as vertex 1: every certificate here verified clean
    outcomes = []
    for vertex in (9, True):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert).replace('"ID"', json.dumps(vertex)))
        argv = (("game", PATH3, "--kind", "treedepth", "--replay", str(path)) if replay
                else ("verify", str(path), "--graph", PATH3))
        code, doc, _ = run_cli(*argv)
        outcomes.append((code, doc["error"] and doc["error"]["code"]))
    assert outcomes[0][0] in (1, 2) and outcomes[1] == outcomes[0]


@pytest.mark.parametrize("kind", ["minor_model", "density"])
@pytest.mark.parametrize("h", [{"n": True, "edges": []}, {"n": 2, "edges": [[0, True]]}],
                         ids=["count", "endpoint"])
def test_booleans_are_not_pattern_graph_vertices(tmp_path, kind, h):
    # h.n = true once built a one-vertex h, and the endpoint true was vertex
    # 1: with a model matching that reading, both verified clean
    n = 1 if h["n"] is True else h["n"]
    model = {"depth": 0, "branch_sets": {str(v): [v] for v in range(n)},
             "edge_witness": {"0,1": [0, 1]} if h["edges"] else {}}
    if kind == "density":
        m = len(h["edges"])
        model = {"depth": 0, "density": m / n, "minor_n": n, "minor_m": m, "model": model}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"kind": kind, "h": h, **model}))
    code, doc, _ = run_cli("verify", str(path), "--graph", PATH8)
    assert code == 2 and doc["error"]["code"] == "graph_input"


def test_independent_search_depth_stays_below_k():
    # the search once recursed once per skipped candidate: on a star of 3000
    # vertices that was a RecursionError and exit 4
    code, doc, _ = run_cli("solve", '{"family":"star","n":3000}', "--problem",
                           "independent", "--r", "2", "--k", "2")
    assert code == 0 and doc["result"]["found"] is False


@pytest.mark.parametrize("cert,graph,violation", [
    # a fractional radius once left the BFS without a cap
    ({"kind": "distance_set", "problem": "dominating", "r": 1.5, "vertices": [0]}, PATH8,
     "vertices [2, 3, 4, 5, 6, 7] not dominated within 1.5"),
    # the report's depth must be its model's
    ({"kind": "density", "h": {"n": 1, "edges": []}, "depth": 0,
      "model": {"depth": 1, "branch_sets": {"0": [0, 1]}, "edge_witness": {}},
      "minor_n": 1, "minor_m": 0, "density": 0.0}, PATH8, "report depth 0, model depth 1"),
    # an empty model has no density
    ({"kind": "density", "h": {"n": 0, "edges": []}, "depth": 0,
      "model": {"depth": 0, "branch_sets": {}, "edge_witness": {}},
      "minor_n": 0, "minor_m": 0, "density": 9.0}, PATH8,
     "density 9.0 claimed for an empty model"),
    # one witness for a sentence that asks for five
    ({"kind": "distance_set", "problem": "independent", "r": 1, "k": 1, "vertices": [3],
      "sentence": {"k": 5, "r": 1, "chi": "true"}}, PATH8,
     "the sentence asks for 5 witnesses at distance > 2, "
     "the certificate claims k = 1 at distance > 1"),
])
def test_verify_refuses_forgeries_it_once_passed(tmp_path, cert, graph, violation):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc, _ = run_cli("verify", str(path), "--graph", graph)
    assert code == 1 and doc["result"]["violations"] == [violation]


@pytest.mark.parametrize("cert", [
    {"kind": "distance_set", "problem": "independent", "r": "x", "k": 1, "vertices": [0]},
    {"kind": [], "vertices": [0]},
])
def test_verify_refuses_a_malformed_radius_or_kind(tmp_path, cert):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc, err = run_cli("verify", str(path), "--graph", PATH8)
    assert code == 2 and doc["error"]["code"] == "precondition"
    assert "Traceback" not in err


def test_verify_accepts_full_out_document(tmp_path):
    out = tmp_path / "run.json"
    code, _, _ = run_cli("cover", PATH8, "--r", "1", "--out", str(out))
    assert code == 0
    code, vdoc, _ = run_cli("verify", str(out), "--graph", PATH8)
    assert code == 0
    assert vdoc["result"]["ok"] is True


def test_verify_rejects_tampering(tmp_path):
    code, doc, _ = run_cli("uqw", PATH8, "--r", "2", "--m", "2")
    assert code == 0
    cert = doc["certificate"]
    cert["B"] = [0, 1]  # adjacent, so not far apart
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, vdoc, _ = run_cli("verify", str(path), "--graph", PATH8)
    assert code == 1
    assert vdoc["result"]["violations"]


def test_expect_flags():
    # trees have no triangle
    code, doc, _ = run_cli("minor", PATH8, "--pattern",
                           '{"family":"complete","n":3}', "--r", "2", "--expect")
    assert code == 1 and doc["result"]["found"] is False
    code, doc, _ = run_cli("solve", K5, "--problem", "independent",
                           "--r", "1", "--k", "2", "--expect")
    assert code == 1 and doc["result"]["found"] is False
    # without --expect the same answer is a clean exit
    code, _, _ = run_cli("solve", K5, "--problem", "independent",
                         "--r", "1", "--k", "2")
    assert code == 0


def test_usage_errors_exit_2():
    code, doc, _ = run_cli("game", PATH5, "--connector", "random")
    assert code == 2 and doc["error"]["code"] == "precondition"
    code, doc, _ = run_cli("eval", PATH5, "--formula", "exists . true")
    assert code == 2 and doc["error"]["code"] == "formula_parse"
    code, doc, _ = run_cli("eval", PATH5, "--formula", "E(x,y)", "--env", "x=0")
    assert code == 2 and doc["error"]["code"] == "formula_scope"
    code, doc, _ = run_cli("eval", PATH5)
    assert code == 2 and doc["error"]["code"] == "precondition"
    code, doc, _ = run_cli("wcol", "no_such_file.el", "--r", "1")
    assert code == 2 and doc["error"]["code"] == "graph_input"
    # an argument the parser rejects gets the envelope too, naming the
    # subcommand when argv names one
    for argv, command, message in [
        (("density", K5, "--r", "1"), "density",
         "the following arguments are required: --seed"),
        (("treedepth", PATH8, "--mode", "exact"), "treedepth",
         "unrecognized arguments: --mode exact"),
        (("wcol", PATH5, "--r", "x"), "wcol", "argument --r: invalid int value: 'x'"),
        (("nosuch", PATH5), None, None),
        ((), None, "the following arguments are required: command"),
    ]:
        code, doc, err = run_cli(*argv)
        assert code == 2 and doc["command"] == command, argv
        assert doc["error"]["code"] == "precondition"
        assert message is None or doc["error"]["message"] == message
        assert doc["input"] is None and doc["result"] is None and doc["params"] == {}
        assert "usage:" in err
    # --help still prints the help and exits 0
    proc = subprocess.run([sys.executable, "-m", "sparsekit.cli", "wcol", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: sparsekit wcol")


@pytest.mark.parametrize("m", ["0", "-2"])
def test_uqw_rejects_a_target_below_one(m):
    code, doc, _ = run_cli("uqw", PATH3, "--r", "1", "--m", m)
    assert code == 2 and doc["error"]["code"] == "precondition"
    assert doc["error"]["message"] == f"m must be >= 1, got {m}"


def test_a_failed_command_reports_no_input():
    # the graph is read before the handler runs; its failure still names none
    code, doc, _ = run_cli("uqw", PATH3, "--r", "1", "--m", "0")
    assert code == 2 and doc["input"] is None and doc["result"] is None


def test_solve_rejects_a_negative_k():
    code, doc, _ = run_cli("solve", PATH3, "--problem", "independent",
                           "--r", "1", "--k", "-1")
    assert code == 2 and doc["error"]["code"] == "precondition"
    code, doc, _ = run_cli("solve", PATH3, "--problem", "independent",
                           "--r", "1", "--k", "0")
    assert code == 0 and doc["result"]["vertices"] == []


@pytest.mark.parametrize("argv,message", [
    (("density", PATH3, "--r=-1", "--seed", "1"), "r must be >= 0, got -1"),
    (("solve", PATH3, "--problem", "independent", "--r=-1", "--k", "1"),
     "r must be >= 0, got -1"),
    (("uqw", PATH3, "--mode", "brute", "--r=-1", "--m", "1"), "r must be >= 1, got -1"),
    (("uqw", PATH3, "--mode", "brute", "--r=0", "--m", "1"), "r must be >= 1, got 0"),
    (("cover", PATH3, "--r=-1"), "r must be >= 0, got -1"),
    (("partition", PATH3, "--r=-1"), "r must be >= 0, got -1"),
    (("wcol", PATH3, "--r=-1"), "r must be >= 0, got -1"),
    (("wcol", PATH3, "--r=-1", "--mode", "exact"), "r must be >= 0, got -1"),
    (("minor", PATH3, "--pattern", PATH3, "--r=-1"), "r must be >= 0, got -1"),
], ids=["density", "solve-independent", "uqw-brute-r-1", "uqw-brute-r0", "cover", "partition",
        "wcol", "wcol-exact", "minor"])
def test_radius_below_the_minimum_is_a_precondition_error(argv, message):
    code, doc, _ = run_cli(*argv)
    assert code == 2 and doc["error"]["code"] == "precondition"
    assert doc["error"]["message"] == message


def test_an_eps_whose_reciprocal_overflows_is_a_precondition_error():
    # m = int(1 / eps) once raised OverflowError here: exit 4, "runtime"
    for eps in ("5e-324", "1e-309"):
        code, doc, _ = run_cli("separator", PATH5, "--r", "1", "--eps", eps)
        assert code == 2 and doc["error"]["code"] == "precondition", eps
        assert doc["error"]["message"] == \
            f"eps {float(eps)!r} is too small: 1/eps overflows a float"
    # a tiny eps with a finite reciprocal still separates
    code, doc, _ = run_cli("separator", PATH5, "--r", "1", "--eps", "1e-300")
    assert code == 0 and doc["result"]["eps"] == 1e-300


def test_separator_of_a_grid_with_no_heavy_ball_is_empty():
    # every radius-1 ball of the 6x6 grid holds at most 5 of 36 vertices,
    # within the budget of 7.2; the exchange from S = V once reported all 36
    code, doc, _ = run_cli("separator", '{"family":"grid","rows":6,"cols":6}',
                           "--r", "1", "--eps", "0.2")
    assert code == 0
    assert doc["result"] == {"r": 1, "eps": 0.2, "separator_size": 0,
                             "worst_ball_fraction": 5 / 36, "heavy": 0,
                             "iterations": 0, "put_back": 0}
    assert doc["certificate"]["S"] == []


def test_cap_exit_3():
    code, doc, _ = run_cli("treedepth", '{"family":"grid","rows":5,"cols":5}')
    assert code == 3
    assert doc["error"]["code"] == "capability"
    assert doc["result"] is None


def test_vertex_cap_exit_3(tmp_path):
    # an id of 10^11 once allocated one adjacency set per id: a MemoryError
    # traceback and exit 1
    path = tmp_path / "huge.el"
    path.write_text("0 99999999999\n")
    for source in (str(path), '{"family":"path","n":1000000000000}'):
        code, doc, err = run_cli("col", source)
        assert code == 3 and doc["error"]["code"] == "capability", source
        assert doc["result"] is None and "1000000 vertices" in doc["error"]["message"]
        assert "Traceback" not in err


@pytest.mark.parametrize("cert", [
    {"kind": "minor_model", "depth": 0, "h": {"n": 1_000_001, "edges": []},
     "branch_sets": {}, "edge_witness": {}},
    {"kind": "density", "h": {"n": 1_000_001, "edges": []}, "depth": 0,
     "model": {"depth": 0, "branch_sets": {}, "edge_witness": {}},
     "minor_n": 0, "minor_m": 0, "density": 0.0},
], ids=["minor_model", "density"])
def test_certificate_graph_vertex_cap_exit_3(tmp_path, cert):
    # the graph h inside the certificate was once built past the cap: a
    # million adjacency sets, then exit 1
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc, err = run_cli("verify", str(path), "--graph", PATH8)
    assert code == 3 and doc["error"]["code"] == "capability"
    assert "1000000 vertices" in doc["error"]["message"]
    assert "Traceback" not in err


def test_independent_k_cap_exit_3():
    # k = 1000 once recursed past the interpreter's limit: exit 4
    path = '{"family":"path","n":2000}'
    code, doc, err = run_cli("solve", path, "--problem", "independent",
                             "--r", "1", "--k", "1000")
    assert code == 3 and doc["error"]["code"] == "capability"
    assert doc["error"]["message"] == "independent_k: capped at 500 chosen vertices, got 1000"
    assert "Traceback" not in err
    code, doc, _ = run_cli("solve", path, "--problem", "independent",
                           "--r", "1", "--k", "500")
    assert code == 0 and doc["result"]["found"] is True


@pytest.mark.parametrize("spec,pairs", [
    ('{"family":"complete","n":1000000}', 499999500000),
    ('{"family":"gnd","n":1000000,"d":3.0,"seed":1}', 499999500000),
], ids=["complete", "gnd"])
def test_generator_pair_cap_exit_3(spec, pairs):
    # both once passed the vertex cap and went on to scan every pair
    code, doc, err = run_cli("col", spec)
    assert code == 3 and doc["error"]["code"] == "capability"
    assert doc["error"]["message"] == f"max_pairs: capped at 10000000 vertex pairs, got {pairs}"
    assert "Traceback" not in err


def test_stall_exit_4(monkeypatch, capsys):
    def boom(*a, **k):
        raise AlgorithmStallError("exchange step failed to shrink X",
                                  state={"n_theory": 1})

    monkeypatch.setattr("sparsekit.wideness.balanced_separator", boom)
    code = cli.run(["separator", PATH5, "--r", "1", "--eps", "0.5"])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "stall"


def test_gen_writes_file_with_matching_digest(tmp_path):
    out = tmp_path / "g.el"
    code, doc, _ = run_cli("gen", CYCLE7, "--to", str(out))
    assert code == 0
    assert doc["result"]["n"] == 7 and doc["result"]["m"] == 7
    spec_digest = doc["input"]["digest"]
    code, doc2, _ = run_cli("col", str(out))
    assert code == 0
    assert doc2["input"]["digest"] == spec_digest


def test_digest_tells_apart_graphs_that_differ_in_isolated_vertices(tmp_path):
    # vertex 7 of this graph is isolated; the file without its lone line
    # names only 0..6, a different graph with the same edges
    spec = '{"family":"gnd","n":8,"d":1.0,"seed":2}'
    out = tmp_path / "g.el"
    code, doc, _ = run_cli("gen", spec, "--to", str(out))
    assert code == 0
    assert out.read_text().splitlines()[-1] == "7"
    edges_only = tmp_path / "edges.el"
    edges_only.write_text("".join(line + "\n" for line in out.read_text().splitlines()
                                  if len(line.split()) == 2))
    code, from_spec, _ = run_cli("col", spec)
    code2, from_file, _ = run_cli("col", str(out))
    code3, from_edges, _ = run_cli("col", str(edges_only))
    assert code == code2 == code3 == 0
    assert [d["input"]["n"] for d in (from_spec, from_file, from_edges)] == [8, 8, 7]
    assert from_spec["input"]["m"] == from_edges["input"]["m"]
    assert from_spec["input"]["digest"] == doc["input"]["digest"] == from_file["input"]["digest"]
    assert from_spec["input"]["digest"] != from_edges["input"]["digest"]


def test_out_flag_duplicates_stdout(tmp_path):
    out = tmp_path / "doc.json"
    proc = subprocess.run([sys.executable, "-m", "sparsekit.cli",
                           "col", PATH5, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.read_text() == proc.stdout


def test_eval_formula_env():
    code, doc, _ = run_cli("eval", PATH5, "--formula", "E(x,y)", "--env", "x=0,y=1")
    assert code == 0 and doc["result"]["value"] is True
    code, doc, _ = run_cli("eval", PATH5, "--formula", "dist(x,y) <= 2",
                           "--env", "x=0,y=4")
    assert code == 0 and doc["result"]["value"] is False
    code, doc, _ = run_cli("eval", PATH5, "--formula",
                           "exists x . P(x)", "--marked", "3")
    assert code == 0 and doc["result"]["value"] is True


def test_eval_env_rejects_a_repeated_variable():
    code, doc, err = run_cli("eval", PATH5, "--formula", "E(x,x)", "--env", "x=1,x=2")
    assert code == 2 and "Traceback" not in err
    assert doc["error"] == {"code": "precondition",
                            "message": "variable 'x' is assigned twice in --env"}


def test_eval_sentence_inline():
    code, doc, _ = run_cli("eval", CYCLE7, "--sentence",
                           '{"k":2,"r":1,"chi":"true"}')
    assert code == 0
    assert doc["result"]["value"] is True
    assert doc["result"]["witnesses"] == [0, 3]
    assert doc["certificate"]["sentence"] == {"k": 2, "r": 1, "chi": "true"}
    code, doc, _ = run_cli("eval", K5, "--sentence",
                           '{"k":2,"r":1,"chi":"true"}', "--expect")
    assert code == 1 and doc["result"]["value"] is False


def test_solve_dominating_modes():
    code, doc, _ = run_cli("solve", STAR10, "--problem", "dominating", "--r", "1")
    assert code == 0 and doc["result"]["vertices"] == [0]
    code, doc, _ = run_cli("solve", '{"family":"path","n":40}', "--problem",
                           "dominating", "--r", "1", "--mode", "greedy")
    assert code == 0 and doc["result"]["size"] >= 14


def test_game_replay(tmp_path):
    code, doc, _ = run_cli("game", K5, "--kind", "treedepth",
                           "--splitter", "exhaustive", "--connector", "exhaustive")
    assert code == 0
    cert = doc["certificate"]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(cert))
    code, doc, _ = run_cli("game", K5, "--replay", str(path))
    assert code == 0 and doc["result"]["violations"] == []
    cert["winner"] = "connector"
    path.write_text(json.dumps(cert))
    code, doc, _ = run_cli("game", K5, "--replay", str(path))
    assert code == 1 and doc["result"]["violations"]


def test_game_replay_accepts_full_out_document(tmp_path):
    out = tmp_path / "run.json"
    code, _, _ = run_cli("game", K5, "--kind", "treedepth", "--splitter",
                         "exhaustive", "--connector", "exhaustive",
                         "--out", str(out))
    assert code == 0
    code, doc, _ = run_cli("game", K5, "--replay", str(out))
    assert code == 0 and doc["result"]["violations"] == []
    # structurally wrong JSON is a usage error, not a crash
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a transcript"}))
    code, doc, _ = run_cli("game", K5, "--replay", str(bad))
    assert code == 2 and doc["error"]["code"] == "precondition"
    # so is JSON that is not an object at all
    for text in ("7", "null", "[1]"):
        bad.write_text(text)
        code, doc, _ = run_cli("game", K5, "--replay", str(bad))
        assert code == 2 and doc["error"]["code"] == "precondition"


def test_sweep(tmp_path):
    config = {
        "families": [
            {"name": "p6", "spec": {"family": "path", "n": 6}},
            {"name": "c5", "spec": {"family": "cycle", "n": 5}},
            {"name": "broken", "spec": {"family": "nope"}},
        ],
        "r": [1],
        "operations": ["wcol", "cover", "density"],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, doc, _ = run_cli("sweep", str(path))
    assert code == 0
    rows = doc["result"]["rows"]
    # 2 families x 1 radius x 3 ops, plus one family-level error row
    assert len(rows) == 7
    assert any(r.get("family") == "broken" and "error" in r for r in rows)
    # density rows fail per-row without a top-level seed, others carry values
    for r in rows:
        if r.get("op") == "density":
            assert "seed" in r["error"]
        elif "op" in r:
            assert isinstance(r["value"], int)
    config["seed"] = 11
    path.write_text(json.dumps(config))
    code, doc, _ = run_cli("sweep", str(path))
    assert code == 0
    assert all("error" not in r for r in doc["result"]["rows"] if r.get("op"))


def test_dimacs_input(tmp_path):
    path = tmp_path / "g.col"
    path.write_text("c tiny\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    code, doc, _ = run_cli("col", str(path))
    assert code == 0
    assert doc["input"]["n"] == 4 and doc["input"]["m"] == 3
    assert doc["result"]["value"] == 2


def test_superscript_digits_are_labels(tmp_path):
    # "\u00b2".isdigit() holds but int() rejects it, so it is a name, not an id
    path = tmp_path / "g.el"
    path.write_text("\u00b2 1\n", encoding="utf-8")
    code, doc, _ = run_cli("col", str(path))
    assert code == 0
    assert doc["input"]["n"] == 2 and doc["input"]["m"] == 1


@pytest.mark.parametrize("text,line", [
    ("p edge x 1\n", "line 1: non-integer field in 'p edge x 1'"),
    ("p edge 3 1\ne 1 q\n", "line 2: non-integer field in 'e 1 q'"),
], ids=["header", "edge"])
def test_dimacs_non_integer_field_is_a_parse_error(tmp_path, text, line):
    path = tmp_path / "g.col"
    path.write_text(text)
    code, doc, _ = run_cli("col", str(path))
    assert code == 2 and doc["error"]["code"] == "graph_input"
    assert doc["error"]["message"] == line


@pytest.mark.parametrize("order,value", [
    ("degeneracy", 7), ("greedy", 5), ("identity", 7),
])
def test_wcol_heuristic_every_order(tmp_path, order, value):
    grid = '{"family":"grid","rows":3,"cols":4}'
    out = tmp_path / "wcol.json"
    code, doc, _ = run_cli("wcol", grid, "--r", "2", "--order", order,
                           "--out", str(out))
    assert code == 0 and doc["error"] is None
    assert doc["result"]["value"] == value
    if order == "identity":
        assert doc["certificate"]["order"] == list(range(12))
    code, vdoc, _ = run_cli("verify", str(out), "--graph", grid)
    assert code == 0 and vdoc["result"]["ok"] is True


def test_sweep_wcol_every_order(tmp_path):
    path = tmp_path / "sweep.json"
    for order, value in (("degeneracy", 7), ("greedy", 5), ("identity", 7)):
        path.write_text(json.dumps({
            "families": [{"name": "g34", "spec": {"family": "grid", "rows": 3,
                                                  "cols": 4}}],
            "r": [2], "operations": ["wcol"], "order": order}))
        code, doc, _ = run_cli("sweep", str(path))
        assert code == 0
        assert doc["result"]["rows"] == [{"family": "g34", "n": 12, "m": 17,
                                          "r": 2, "op": "wcol", "value": value}]


@pytest.mark.parametrize("argv", [
    ("wcol", PATH5, "--r", "1"), ("game", PATH5), ("uqw", PATH5, "--r", "1", "--m", "1"),
    ("separator", PATH5, "--r", "1", "--eps", "0.5"), ("cover", PATH5, "--r", "1"),
    ("partition", PATH5, "--r", "1"),
    # these build no order, and still check the name
    ("wcol", PATH5, "--r", "1", "--mode", "exact"),
    ("uqw", PATH5, "--r", "1", "--m", "1", "--mode", "brute"),
    ("game", PATH5, "--splitter", "uqw"), ("game", PATH5, "--splitter", "exhaustive"),
], ids=["wcol", "game", "uqw", "separator", "cover", "partition",
        "wcol-exact", "uqw-brute", "game-uqw", "game-exhaustive"])
def test_unknown_order_name_is_a_precondition_error(argv):
    # build_order owns the name rule, so a bad name gets the JSON envelope
    code, doc, err = run_cli(*argv, "--order", "bogus")
    assert code == 2 and "Traceback" not in err
    assert doc["error"] == {"code": "precondition",
                            "message": "unknown order strategy 'bogus'"}


@pytest.mark.parametrize("extra", [{"r": [True]}, {"r": [1], "seed": True}],
                         ids=["radius", "seed"])
def test_sweep_rejects_boolean_integers(tmp_path, extra):
    # JSON true is not the integer 1, as in generator specs
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"families": [{"name": "p5", "spec": {"family": "path", "n": 5}}],
                                "operations": ["wcol", "density"], **extra}))
    code, doc, err = run_cli("sweep", str(path))
    assert code == 2 and "Traceback" not in err
    assert doc["error"] == {"code": "precondition", "message":
                            "malformed sweep config: TypeError: expected an integer, got True"}


def test_sweep_unknown_order_name_is_a_row_error(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"families": [{"name": "p5", "spec": {"family": "path", "n": 5}}],
                                "operations": ["wcol", "cover"], "order": "bogus"}))
    code, doc, _ = run_cli("sweep", str(path))
    assert code == 0 and doc["error"] is None
    assert doc["result"]["rows"] == [
        {"family": "p5", "n": 5, "m": 4, "r": 1, "op": op,
         "error": "unknown order strategy 'bogus'"} for op in ("wcol", "cover")]


def test_one_parser_per_process():
    # run() and the sweep rows parse with the same parser, built once
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("text", ["null", "[1, 2]", "7"])
def test_verify_rejects_non_object_certificate(tmp_path, text):
    doc = tmp_path / "doc.json"
    # a failed command's --out document stores "certificate": null
    doc.write_text('{"command": "wcol", "certificate": %s}' % text)
    code, vdoc, _ = run_cli("verify", str(doc), "--graph", PATH5)
    assert code == 2 and vdoc["error"]["code"] == "precondition"
    doc.write_text(text)
    code, vdoc, _ = run_cli("verify", str(doc), "--graph", PATH5)
    assert code == 2 and vdoc["error"]["code"] == "precondition"


@pytest.mark.parametrize("argv,message", [
    (("col", '{"family":"path","n":"5"}'),
     "generator parameter 'n' for 'path' must be an integer, got '5'"),
    (("cover", '{"family":"gnd","n":200,"d":3,"seed":"a"}', "--r", "1"),
     "generator parameter 'seed' for 'gnd' must be an integer, got 'a'"),
    (("col", '{"family":"grid","rows":2.5,"cols":2}'),
     "generator parameter 'rows' for 'grid' must be an integer, got 2.5"),
], ids=["path-n-string", "gnd-seed-string", "grid-rows-float"])
def test_mistyped_spec_parameters_are_input_errors(argv, message):
    code, doc, err = run_cli(*argv)
    assert code == 2 and doc["error"]["code"] == "graph_input"
    assert doc["error"]["message"] == message
    assert "Traceback" not in err


def test_non_utf8_graph_file_is_an_input_error(tmp_path):
    path = tmp_path / "g.el"
    path.write_bytes(b"\xff 1\n")
    code, doc, err = run_cli("col", str(path))
    assert code == 2 and doc["error"]["code"] == "graph_input"
    assert doc["error"]["message"].startswith(f"cannot read graph {str(path)!r}: ")
    assert "Traceback" not in err


def test_non_utf8_certificate_is_an_input_error(tmp_path):
    out = tmp_path / "col.json"
    code, _, _ = run_cli("col", PATH5, "--out", str(out))
    assert code == 0
    out.write_bytes(out.read_bytes() + b"\xff")
    code, doc, err = run_cli("verify", str(out), "--graph", PATH5)
    assert code == 2 and doc["error"]["code"] == "graph_input"
    assert doc["error"]["message"].startswith(f"cannot read {str(out)!r}: ")
    assert "Traceback" not in err


def test_eval_certificate_keeps_its_marked_set(tmp_path):
    # the certificate once dropped the marked set, so verify recomputed the
    # satisfying set without it and rejected every witness
    out = tmp_path / "c.json"
    code, doc, _ = run_cli("eval", PATH8, "--sentence", '{"k":2,"r":1,"chi":"P(x)"}',
                           "--marked", "1,6", "--out", str(out))
    assert code == 0 and doc["certificate"]["marked"] == [1, 6]
    code, vdoc, _ = run_cli("verify", str(out), "--graph", PATH8)
    assert code == 0 and vdoc["result"]["ok"] is True
    cert = doc["certificate"]
    for marked, violation in (([1], "witness 6 does not satisfy the local property"),
                              ([1, 6, 99], "vertex 99 not in the graph")):
        out.write_text(json.dumps({**cert, "marked": marked}))
        code, vdoc, _ = run_cli("verify", str(out), "--graph", PATH8)
        assert code == 1 and vdoc["result"]["violations"] == [violation]


_SWEEP_FAMILY = {"spec": {"family": "path", "n": 4}}
_NOT_JSON = "{bad"


@pytest.mark.parametrize("argv,config", [
    (("eval", PATH8, "--sentence", _NOT_JSON), None),
    (("eval", PATH8, "--sentence", '{"k":1}'), None),
    (("eval", PATH8, "--sentence", '{"k":"a","r":1,"chi":"true"}'), None),
    (("eval", PATH8, "--sentence", '{"k":1,"r":1,"chi":7}'), None),
    (("eval", PATH8, "--sentence", '{"k":1.5,"r":1,"chi":"true"}'), None),
    (("eval", PATH8, "--sentence", '{"k":1,"r":1.5,"chi":"true"}'), None),
    (("eval", PATH8, "--sentence", '{"k":true,"r":1,"chi":"true"}'), None),
    (("solve", PATH5, "--problem", "dominating", "--r=-1"), None),
    (("sweep",), {"families": 5}),
    (("sweep",), [1]),
    (("sweep",), {"families": [{"name": "p"}], "operations": ["wcol"]}),
    (("sweep",), {"families": [_SWEEP_FAMILY], "r": ["x"], "operations": ["wcol"]}),
    (("sweep",), {"families": [_SWEEP_FAMILY], "operations": ["density"], "seed": "a"}),
    (("uqw", PATH5, "--mode", "brute", "--r", "1", "--m", "1", "--smax=-1"), None),
    (("density", PATH5, "--r", "1", "--seed", "1", "--budget=-5"), None),
], ids=["sentence-not-json", "sentence-no-r", "sentence-k-string", "sentence-chi-int",
        "sentence-k-float", "sentence-r-float", "sentence-k-bool", "dominating-r-negative",
        "sweep-families-int", "sweep-list", "sweep-family-no-spec", "sweep-r-string",
        "sweep-seed-string", "uqw-smax-negative", "density-budget-negative"])
def test_malformed_inputs_exit_2(tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        argv = (*argv, str(path))
    code, doc, err = run_cli(*argv)
    # text that is not JSON cannot be read; JSON of the wrong shape is malformed
    want = "graph_input" if _NOT_JSON in argv else "precondition"
    assert code == 2 and doc["error"]["code"] == want
    assert "Traceback" not in err


def test_stray_exception_exit_4(monkeypatch, capsys):
    def boom(args, g, meta):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_col", boom)
    code = cli.run(["col", PATH5])
    assert code == 4
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["error"] == {"code": "runtime", "message": "RuntimeError: boom"}
    assert doc["command"] == "col" and doc["result"] is None
    assert "RuntimeError: boom" in captured.err


def run_in_process(*argv):
    """Like run_cli, in this process: an inline argument 200,000 characters
    long is past what the operating system passes to a new process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, json.loads(out.getvalue()), err.getvalue()


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("where", ["spec", "sentence", "certificate", "replay", "sweep"])
def test_json_nested_too_deep_is_an_input_error(tmp_path, where):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    argv = {"spec": ("col", '{"family": %s}' % _DEEP),
            "sentence": ("eval", PATH8, "--sentence", '{"k": 1, "r": 1, "chi": %s}' % _DEEP),
            "certificate": ("verify", str(path), "--graph", PATH8),
            "replay": ("game", PATH8, "--replay", str(path)),
            "sweep": ("sweep", str(path))}[where]
    code, doc, err = run_in_process(*argv)
    assert code == 2 and doc["error"]["code"] == "graph_input"
    assert "Traceback" not in err


_FORMULAS = {"3000-negations": "!" * 3000 + "true",
             "3000-parentheses": "(" * 3000 + "true" + ")" * 3000,
             "3000-conjuncts": " & ".join(["true"] * 3000),
             "superscript-bound": "exists y . dist(x,y) <= ²",
             "5000-digit-bound": "exists y . dist(x,y) <= " + "9" * 5000,
             "5000-letter-trailing-name": "true " + "a" * 5000}


@pytest.mark.parametrize("via", ["formula", "chi"])
@pytest.mark.parametrize("name", sorted(_FORMULAS))
def test_formula_past_what_the_parser_reads_is_a_parse_error(name, via):
    text = _FORMULAS[name]
    if via == "formula":
        argv = ("eval", PATH8, "--formula", text, "--env", "x=0")
    else:
        argv = ("eval", PATH8, "--sentence", json.dumps({"k": 1, "r": 1, "chi": text}))
    code, doc, err = run_in_process(*argv)
    assert code == 2 and doc["error"]["code"] == "formula_parse"
    assert "Traceback" not in err
    # the message quotes a bounded prefix of an overlong token, and its length
    assert len(doc["error"]["message"]) < 200
    if name.startswith("5000"):
        assert "(5000 characters)" in doc["error"]["message"]


def test_scope_error_quotes_a_bounded_name():
    sentence = {"k": 1, "r": 1, "chi": "E(x," + "b" * 5000 + ")"}
    code, doc, err = run_in_process("eval", PATH8, "--sentence", json.dumps(sentence))
    assert code == 2 and doc["error"]["code"] == "formula_scope"
    assert doc["error"]["message"] == (
        "chi has several free variables: ['" + "b" * 32 + "'... (5000 characters), 'x']")


@pytest.mark.parametrize("argv", [("col", PATH5, "--out"), ("gen", PATH5, "--to")],
                         ids=["out", "gen-to"])
def test_unwritable_output_path_is_a_precondition_error(tmp_path, argv):
    code, doc, err = run_cli(*argv, str(tmp_path / "missing" / "file"))
    assert code == 2 and doc["error"]["code"] == "precondition"
    assert doc["error"]["message"].startswith("cannot write ")
    assert doc["result"] is None and "Traceback" not in err


def test_out_path_may_be_the_certificate_it_verifies(tmp_path):
    # the --out check must not empty the file before the command reads it
    cert = tmp_path / "cert.json"
    assert run_cli("col", PATH5, "--out", str(cert))[0] == 0
    code, doc, _ = run_cli("verify", str(cert), "--graph", PATH5, "--out", str(cert))
    assert code == 0 and doc["result"]["ok"] is True
    assert json.loads(cert.read_text())["command"] == "verify"


def test_sweep_digest_is_of_the_file_bytes(tmp_path):
    path = tmp_path / "sweep.json"
    data = json.dumps({"families": [_SWEEP_FAMILY], "operations": ["wcol"]},
                      indent=1).replace("\n", "\r\n").encode()
    path.write_bytes(data)
    code, doc, _ = run_cli("sweep", str(path))
    assert code == 0 and len(doc["result"]["rows"]) == 1
    assert doc["input"]["digest"] == "sha256:" + hashlib.sha256(data).hexdigest()


def test_game_uqw_splitter_sizes_its_own_batches():
    # with no --batch, the uqw splitter gets room for round_cap*(r+1)
    code, doc, _ = run_cli("game", PATH8, "--kind", "splitter", "--r", "1",
                           "--splitter", "uqw")
    assert code == 0 and doc["result"]["winner"] == "splitter"
    assert doc["certificate"]["config"]["batch_limit"] == 64 * 2
    assert doc["certificate"]["splitter_tag"] == "uqw_paths"


def test_game_random_connector_needs_a_seed():
    argv = ("game", PATH8, "--kind", "splitter", "--r", "1", "--connector", "random")
    first, second = run_cli(*argv, "--seed", "3"), run_cli(*argv, "--seed", "3")
    assert first[0] == 0 and first[1]["certificate"]["connector_tag"] == "random(seed=3)"
    assert first[1]["certificate"] == second[1]["certificate"]
    code, doc, _ = run_cli(*argv)
    assert code == 2 and doc["error"] == {"code": "precondition",
                                          "message": "--connector random requires --seed"}


def test_uqw_brute_that_finds_no_set():
    # no deletion set leaves three vertices of K5 pairwise at distance > 1
    argv = ("uqw", K5, "--r", "1", "--m", "3", "--mode", "brute", "--smax", "1")
    code, doc, _ = run_cli(*argv)
    assert code == 0 and doc["certificate"] is None
    assert doc["result"] == {"found": False, "r": 1, "m": 3, "s_max": 1}
    assert run_cli(*argv, "--expect")[0] == 1


@pytest.mark.parametrize("argv,message", [
    (("solve", PATH8, "--problem", "independent", "--r", "1"),
     "--problem independent requires --k"),
    (("eval", PATH8, "--formula", "E(x,y)", "--env", "x0,y=1"),
     "expected var=vertex, got 'x0'"),
    (("eval", PATH8, "--formula", "E(x,y)", "--env", "x=0,y=a"),
     "vertex id in 'y=a' is not an integer"),
    (("solve", PATH8, "--problem", "independent", "--r", "1", "--k", "1",
      "--candidates", "1,a"), "expected comma-separated vertex ids, got '1,a'"),
], ids=["solve-no-k", "env-no-equals", "env-not-an-id", "candidates-not-ids"])
def test_missing_or_malformed_option_is_a_precondition_error(argv, message):
    code, doc, _ = run_cli(*argv)
    assert code == 2 and doc["error"] == {"code": "precondition", "message": message}


def test_game_replay_of_another_certificate_kind(tmp_path):
    out = tmp_path / "col.json"
    assert run_cli("col", K5, "--out", str(out))[0] == 0
    code, doc, _ = run_cli("game", K5, "--replay", str(out))
    assert code == 2 and doc["error"] == {
        "code": "precondition", "message": "not a game transcript: a order_witness certificate"}


def test_sweep_unknown_operation_is_a_row_error(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"families": [_SWEEP_FAMILY], "operations": ["nope", "wcol"]}))
    code, doc, _ = run_cli("sweep", str(path))
    assert code == 0
    nope, wcol = doc["result"]["rows"]
    assert nope["error"] == "unknown sweep operation 'nope'" and "value" not in nope
    assert wcol["value"] == 2
