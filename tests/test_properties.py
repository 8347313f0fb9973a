"""Property tests (Hypothesis): text and JSON forms round-trip, and any input
bytes given to the CLI end in a JSON envelope with exit 0-4, never a
traceback.  Every test is derandomized with a bounded number of examples,
so the suite stays deterministic and quick; the CLI cases run in process
through `cli.run`."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsekit.cli as cli
from sparsekit.errors import SparsekitError
from sparsekit.games import ConnectorMove, GameConfig, GameRound, GameTranscript
from sparsekit.graph import Graph
from sparsekit.graphio import emit_json, parse_edge_list, read_dimacs, write_edge_list
from sparsekit.logic import (And, BasicLocalSentence, DistLe, Edge, Eq, Lit, Not,
                             Or, Pred, Quant, _tokens, parse_formula, to_text)
from sparsekit.minors import DensityReport, MinorModel
from sparsekit.orders import EliminationForest
from sparsekit.wideness import Cover, PartitionCover, SeparatorCertificate, UqwCertificate


def bounded(n: int):
    # no deadline and no too-slow check: a loaded host must not fail a test
    return settings(max_examples=n, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------- round trips

NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,2}", fullmatch=True).filter(
    lambda s: s not in {"exists", "forall", "within", "of", "dist", "true", "false"})


@st.composite
def formulas(draw, scope=(), depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if not scope:
            return Lit(draw(st.booleans()))
        a, b = draw(st.sampled_from(scope)), draw(st.sampled_from(scope))
        return draw(st.sampled_from([Lit(True), Lit(False), Eq(a, b), Edge(a, b),
                                     DistLe(a, b, draw(st.integers(0, 9))), Pred(a)]))
    kind = draw(st.sampled_from(["not", "and", "or", "quant"]))
    if kind == "not":
        return Not(draw(formulas(scope, depth - 1)))
    if kind in ("and", "or"):
        node = And if kind == "and" else Or
        return node(draw(formulas(scope, depth - 1)), draw(formulas(scope, depth - 1)))
    var = draw(NAMES)
    anchor = draw(st.none() | st.sampled_from(scope)) if scope else None
    d = None if anchor is None else draw(st.integers(1, 9))
    body = draw(formulas(tuple(sorted({*scope, var})), depth - 1))
    return Quant(draw(st.sampled_from(["exists", "forall"])), var, anchor, d, body)


@bounded(60)
@given(formulas(scope=("x", "y")))
def test_formula_text_round_trip(f):
    assert parse_formula(to_text(f), free=None) == f


@st.composite
def formula_texts(draw):
    """Text that parses: a drawn formula written with the brackets operator
    precedence needs, others (around a quantifier too) at random, and a
    negated distance atom either way.  A quantifier left bare may swallow
    what follows it, so the text need not parse back to that formula."""
    def text(f):
        def sub(child, needed):
            s = text(child)
            return f"({s})" if needed or draw(st.booleans()) else s

        if isinstance(f, Not):
            if isinstance(f.body, DistLe) and draw(st.booleans()):
                return to_text(f)
            return "!" + sub(f.body, isinstance(f.body, (And, Or)))
        if isinstance(f, And):
            return (f"{sub(f.left, isinstance(f.left, Or))} & "
                    f"{sub(f.right, isinstance(f.right, (Or, And)))}")
        if isinstance(f, Or):
            return f"{sub(f.left, False)} | {sub(f.right, isinstance(f.right, Or))}"
        if isinstance(f, Quant):
            rel = f" within {f.d} of {f.anchor}" if f.anchor is not None else ""
            return f"{f.kind} {f.var}{rel} . {sub(f.body, False)}"
        return to_text(f)

    return text(draw(formulas(scope=("x", "y"))))


@bounded(100)
@given(formula_texts())
def test_canonical_formula_text_is_shortest(text):
    # a quantifier nothing followed was once bracketed, so canonical text
    # could be longer than its source and pass the token bound
    canon = to_text(parse_formula(text, free=None))
    assert len(_tokens(canon)) <= len(_tokens(text))
    assert to_text(parse_formula(canon, free=None)) == canon


# formula text from pieces of the grammar, odd characters, long digit runs
# and nesting far past the token bound, or from any characters at all
FORMULA_PIECES = st.sampled_from(
    ["exists x", "forall y", "within", "of", ".", "dist(x,y)", "<=", ">", "E(x,y)", "P(x)",
     "x = y", "true", "&", "|", "!", "(", ")", ",", "2", "²", "٣", "½", "#", "9" * 5000,
     "!" * 300, "(" * 300, "true & " * 150])
FORMULA_TEXTS = st.lists(FORMULA_PIECES, max_size=10).map(" ".join) | st.text(max_size=30)


@bounded(200)
@given(FORMULA_TEXTS)
def test_any_formula_text_parses_or_raises_a_sparsekit_error(text):
    try:
        parse_formula(text, free=None)
    except SparsekitError:
        pass


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, draw(st.permutations(edges)))


@bounded(50)
@given(graphs())
def test_edge_list_round_trip(g):
    # an isolated vertex is written as a lone line, so nothing is lost
    back = parse_edge_list(write_edge_list(g))
    assert back == g


@bounded(50)
@given(graphs())
def test_dimacs_round_trip(g):
    text = "\n".join([f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()])
    assert read_dimacs(text) == g


IDS = st.frozensets(st.integers(0, 30))


def certificates():
    uqw = st.builds(UqwCertificate, st.integers(1, 5), st.integers(1, 5), IDS, IDS, IDS,
                    st.integers(-1, 9), st.booleans())
    sep = st.builds(SeparatorCertificate, st.integers(1, 5),
                    st.floats(0, 1, exclude_min=True), IDS, IDS,
                    st.integers(0, 30), st.integers(0, 9))
    cover = st.builds(Cover, st.integers(1, 5), st.dictionaries(st.integers(0, 30), IDS),
                      st.integers(0, 10), st.integers(0, 10))
    part = st.builds(PartitionCover, st.integers(1, 5), st.lists(IDS))
    return uqw | sep | cover | part


def json_round_trip(cert, extra=None):
    """cert through emit_json, json.loads (plus `extra` keys) and from_json:
    the same object, and the same canonical text."""
    doc = json.loads(emit_json(cert.to_json()))
    doc.update(extra or {})
    back = type(cert).from_json(doc)
    assert back == cert
    assert emit_json(back.to_json()) == emit_json(cert.to_json())


@bounded(100)
@given(certificates(), st.booleans())
def test_wideness_certificate_json_round_trip(cert, old_key):
    # files written while certificates carried a verdict still load
    json_round_trip(cert, {"verified": True} if old_key else None)


VERTEX = st.integers(0, 30)
FORESTS = st.lists(st.integers(-1, 30), max_size=12).map(lambda ps: EliminationForest(tuple(ps)))
MODELS = st.builds(MinorModel, st.integers(0, 5),
                   st.dictionaries(st.integers(0, 12), IDS),
                   st.dictionaries(st.tuples(VERTEX, VERTEX), st.tuples(VERTEX, VERTEX)))
REPORTS = st.builds(DensityReport, st.integers(0, 5),
                    st.floats(0, 30, allow_nan=False, allow_infinity=False),
                    st.integers(0, 30), st.integers(0, 60), MODELS, st.integers(0, 99),
                    st.booleans())
CONFIGS = (st.builds(GameConfig, st.just("treedepth"), st.just(0), st.integers(1, 64),
                     st.integers(1, 4))
           | st.builds(GameConfig, st.just("splitter"), st.integers(1, 5), st.integers(1, 64),
                       st.integers(1, 4)))
ROUNDS = st.builds(GameRound, st.builds(ConnectorMove, VERTEX, IDS), IDS, IDS)
TRANSCRIPTS = st.builds(GameTranscript, CONFIGS, st.lists(ROUNDS, max_size=4),
                        st.sampled_from(["splitter", "connector"]),
                        st.text(max_size=6), st.text(max_size=6))


@bounded(100)
@given(FORESTS | MODELS | REPORTS | TRANSCRIPTS)
def test_certificate_json_round_trip(cert):
    json_round_trip(cert)


@st.composite
def local_formulas(draw, r, depths, height=3):
    """Formulas that are r-local around x: `depths` maps each variable in
    scope to how far from x it may lie, and every quantifier and distance
    atom stays inside the r-ball."""
    scope = sorted(depths)
    if height == 0 or draw(st.integers(0, 3)) == 0:
        a, b = draw(st.sampled_from(scope)), draw(st.sampled_from(scope))
        room = r - min(depths[a], depths[b])
        return draw(st.sampled_from([Lit(True), Lit(False), Eq(a, b), Edge(a, b), Pred(a),
                                     DistLe(a, b, draw(st.integers(0, room)))]))
    kind = draw(st.sampled_from(["not", "and", "or", "quant"]))
    if kind == "not":
        return Not(draw(local_formulas(r, depths, height - 1)))
    if kind in ("and", "or"):
        node = And if kind == "and" else Or
        return node(draw(local_formulas(r, depths, height - 1)),
                    draw(local_formulas(r, depths, height - 1)))
    near = [v for v in scope if depths[v] < r]
    if not near:
        return Not(draw(local_formulas(r, depths, height - 1)))
    anchor = draw(st.sampled_from(near))
    d = draw(st.integers(1, r - depths[anchor]))
    var = draw(NAMES)
    body = draw(local_formulas(r, {**depths, var: depths[anchor] + d}, height - 1))
    return Quant(draw(st.sampled_from(["exists", "forall"])), var, anchor, d, body)


SENTENCES = st.integers(1, 4).flatmap(lambda r: st.builds(
    BasicLocalSentence, st.integers(1, 6), st.just(r), local_formulas(r, {"x": 0}),
    st.just("x")))


@bounded(100)
@given(SENTENCES)
def test_sentence_json_round_trip(s):
    # the `--sentence` document of `eval` and the `sentence` key of the
    # certificate it writes
    json_round_trip(s)


# ------------------------------------------------------------ CLI envelopes

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_in_process(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    assert 0 <= code <= 4 and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    doc = json.loads(out.getvalue())
    assert doc["command"] == argv[0] and (code < 2) == (doc["error"] is None)
    return code, doc


SMALL = st.integers(-2, 12)
GRAPH_LINES = st.lists(st.one_of(
    st.tuples(SMALL, SMALL).map(lambda e: f"{e[0]} {e[1]}"),
    st.tuples(SMALL, SMALL).map(lambda e: f"e {e[0]} {e[1]}"),
    st.tuples(SMALL, SMALL).map(lambda e: f"p edge {e[0]} {e[1]}"),
    st.sampled_from(["a b", "b c", "# note", "", "1", "c comment", "p", "x y z"]),
), max_size=8).map(lambda lines: "\n".join(lines).encode())
GRAPH_FILES = st.binary(max_size=48) | GRAPH_LINES


@bounded(100)
@given(GRAPH_FILES, st.sampled_from(["col", "treedepth", "cover"]))
def test_any_graph_file_gives_an_envelope(workdir, data, command):
    path = workdir / "graph.txt"
    path.write_bytes(data)
    extra = ["--r", "1"] if command == "cover" else []
    run_in_process(command, str(path), *extra)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-2, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12)
CERT_KEYS = ["r", "m", "A", "S", "B", "value", "order", "parent", "clusters", "parts",
             "vertices", "problem", "k", "eps", "h", "depth", "branch_sets", "edge_witness",
             "config", "rounds", "winner", "model", "radius_bound", "max_degree"]
CERT_DOCS = st.builds(
    lambda kind, fields: json.dumps({"kind": kind, **fields}).encode(),
    st.sampled_from(sorted(cli.CERTIFICATES)) | st.text(max_size=3),
    st.dictionaries(st.sampled_from(CERT_KEYS), JSON, max_size=6))


@bounded(100)
@given(st.binary(max_size=48) | CERT_DOCS)
def test_any_certificate_gives_an_envelope(workdir, data):
    path = workdir / "cert.json"
    path.write_bytes(data)
    run_in_process("verify", str(path), "--graph", '{"family":"grid","rows":2,"cols":3}')


SPECS = st.fixed_dictionaries({"family": st.sampled_from(["path", "cycle", "star", "nope"]),
                               "n": st.integers(-1, 8) | JSON})
SWEEP_DOCS = st.builds(
    lambda fields: json.dumps(fields).encode(),
    st.fixed_dictionaries({}, optional={
        "families": st.lists(st.fixed_dictionaries({"spec": SPECS},
                                                   optional={"name": JSON}), max_size=2) | JSON,
        "r": st.lists(st.integers(-1, 3) | JSON, max_size=2) | JSON,
        "operations": st.lists(st.sampled_from(["wcol", "cover", "partition", "density"])
                               | JSON, max_size=3) | JSON,
        "seed": st.integers(0, 9) | JSON,
        "order": st.sampled_from(["degeneracy", "greedy", "bogus"]) | JSON}))


@bounded(80)
@given(st.binary(max_size=48) | SWEEP_DOCS)
def test_any_sweep_config_gives_an_envelope(workdir, data):
    path = workdir / "sweep.json"
    path.write_bytes(data)
    run_in_process("sweep", str(path))
