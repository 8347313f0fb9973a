"""Batch front end: one subcommand per library operation, one JSON document
per invocation on standard output, certificates re-checkable with `verify`.

Exit codes: 0 success; 1 a false answer (absent, false, or a failed
verification), except from a command with an --expect flag left unset;
2 usage or input error; 3 an exact computation exceeded its cap; 4 a runtime
failure: a broken algorithmic contract (stalled exchange loop, buggy
strategy) or any other exception.

The graph argument is a file path (edge list, or DIMACS when the file has a
`p` line) or an inline JSON generator spec such as '{"family":"path","n":5}'.
Randomized operations insist on an explicit seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import operator
import sys
import time
from contextlib import contextmanager
from importlib import import_module

# Start-up is most of a small command: library modules past graphio are
# imported by the handlers and validators that call them.
from . import __version__
from .errors import (AlgorithmStallError, CapabilityError, FormulaParseError,
                     FormulaScopeError, GraphInputError, LocalityError,
                     PreconditionError, SparsekitError, StrategyBugError)
from .graph import DistanceSet, Graph, foreign_vertices
from .graphio import (emit_json, generate, parse_edge_list, read_dimacs, to_jsonable,
                      write_edge_list)

# ----------------------------------------------------------------- loading

def _input_meta(src: str, g: Graph) -> dict:
    # the edge list names no isolated vertex past the largest endpoint, so the
    # vertex count goes in too
    text = f"n {g.n}\n" + write_edge_list(g)
    digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return {"source": src, "digest": digest, "n": g.n, "m": g.m}


def _read(path: str, label: str = "") -> str:
    """The file's bytes as UTF-8 text; one that cannot be read or decoded is an input error."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise GraphInputError(f"cannot read {label}{path!r}: {e}")


def _json(text: str, what: str):
    """The one JSON decoder; text it cannot decode is an input error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise GraphInputError(f"{what} is not valid JSON: {e}")


def _write(path: str, text: str, mode: str = "w") -> None:
    """Mode "a" with no text only checks that `path` can be written."""
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as e:
        raise PreconditionError(f"cannot write {path!r}: {e}")


def load_graph(src: str):
    """Path or inline generator spec -> (graph, input metadata)."""
    if src.lstrip().startswith("{"):
        g = generate(_json(src, "generator spec"))
    else:
        text = _read(src, "graph ")
        if any(line.split() and line.split()[0] == "p" for line in text.splitlines()):
            g = read_dimacs(text)
        else:
            g = parse_edge_list(text)
    return g, _input_meta(src, g)


@contextmanager
def _malformed(what: str):
    """A lookup or type error while reading `what` is a usage error (exit 2)."""
    try:
        yield
    except SparsekitError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise PreconditionError(f"malformed {what}: {type(e).__name__}: {e}")


def _vertex_list(text, g: Graph):
    if text is None:
        return frozenset(range(g.n))
    try:
        out = frozenset(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise PreconditionError(f"expected comma-separated vertex ids, got {text!r}")
    bad = foreign_vertices(g, out)
    if bad:
        raise PreconditionError("; ".join(bad))
    return out


# ---------------------------------------------------------------- handlers
# Each takes the parsed arguments, the input graph and its metadata (None and
# {} for `gen` and `sweep`, which read their own input), and may add to the
# metadata.  It returns (result, certificate object or None, summary line,
# ok); `run` owns the exit code and writes the certificate's document.

def cmd_wcol(args, g, meta):
    from .orders import OrderWitness, build_order, wcol_exact, wcol_of_order
    if args.mode == "exact":
        value, order = wcol_exact(g, args.r, cap=args.cap)
    else:
        order = build_order(g, args.order, args.r)
        value = wcol_of_order(g, order, args.r)
    result = {"r": args.r, "mode": args.mode, "value": value}
    cert = OrderWitness(args.r, value, order.perm, args.mode == "exact")
    return result, cert, f"wcol_{args.r} = {value} ({args.mode})", True


def cmd_col(args, g, meta):
    from .orders import OrderWitness, coloring_number
    value, order = coloring_number(g)
    return {"value": value}, OrderWitness(1, value, order.perm, True), f"col = {value}", True


def cmd_treedepth(args, g, meta):
    from .orders import ForestCertificate, treedepth_exact
    value, forest = treedepth_exact(g, cap=args.cap)
    return {"value": value}, ForestCertificate(value, forest), f"treedepth = {value}", True


def cmd_minor(args, g, meta):
    from .minors import MinorCertificate, find_depth_r_minor
    h, meta["pattern"] = load_graph(args.pattern)
    model = find_depth_r_minor(g, h, args.r, max_h=args.max_h, max_g=args.max_g)
    found = model is not None
    cert = MinorCertificate(h, model) if found else None
    word = "found" if found else "absent"
    return {"r": args.r, "found": found}, cert, f"depth-{args.r} minor {word}", found


def cmd_density(args, g, meta):
    from .minors import DensityCertificate, density_report
    rep = density_report(g, args.r, budget=args.budget, seed=args.seed)
    h = Graph(len(rep.model.branch_sets), list(rep.model.edge_witness))
    result = {k: v for k, v in rep.to_json().items() if k != "model"}
    return (result, DensityCertificate(h, rep),
            f"depth-{args.r} density >= {rep.density:.3f}", True)


def cmd_game(args, g, meta):
    from .games import GameTranscript
    if args.replay:
        kind, doc = _read_certificate(args.replay, "transcript")
        if kind != "transcript":
            raise PreconditionError(f"not a game transcript: a {kind} certificate")
        violations = _check_certificate(g, kind, doc)
        t = GameTranscript.from_json(doc)
        result = {"replay": True, "winner": t.winner,
                  "rounds": len(t.rounds), "violations": violations}
        word = "clean" if not violations else f"{len(violations)} violations"
        summary, ok = f"replay {word}", not violations
    else:
        t = _play(args, g)
        result = {"winner": t.winner, "rounds": len(t.rounds),
                  "residual_sizes": t.residual_sizes}
        summary, ok = f"{t.winner} wins after {len(t.rounds)} rounds", True
    return result, t, summary, ok


def _play(args, g: Graph):
    from . import games
    from .orders import build_order
    radius = args.r if args.kind == "splitter" else 0
    batch = args.batch
    if batch is None:
        batch = args.rounds * (radius + 1) if args.splitter == "uqw" else 1
    cfg = games.GameConfig(kind=args.kind, radius=radius,
                           round_cap=args.rounds, batch_limit=batch)
    if args.splitter == "wcol":
        pi = build_order(g, args.order, 2 * max(radius, 1))
        sp = games.wcol_splitter_strategy(pi, radius)
    elif args.splitter == "uqw":
        sp = games.UqwBatchSplitter(radius)
    else:
        sp = games.ExhaustiveSplitter()
    if args.connector == "greedy":
        co = games.GreedyBallConnector()
    elif args.connector == "random":
        if args.seed is None:
            raise PreconditionError("--connector random requires --seed")
        co = games.RandomConnector(args.seed)
    else:
        co = games.ExhaustiveConnector()
    return games.play(g, cfg, sp, co)


def cmd_uqw(args, g, meta):
    from .orders import build_order
    from .wideness import uqw_brute, uqw_extract
    A = _vertex_list(args.a, g)
    if args.mode == "extract":
        pi = build_order(g, args.order, args.r)
        cert_obj = uqw_extract(g, A, args.r, args.m, pi)
    else:
        cert_obj = uqw_brute(g, A, args.r, args.m, s_max=args.smax)
        if cert_obj is None:
            result = {"found": False, "r": args.r, "m": args.m, "s_max": args.smax}
            return result, None, "no qualifying far-apart set", False
    result = {"found": True, "r": args.r, "m": args.m,
              "s_size": len(cert_obj.S), "b_size": len(cert_obj.B),
              "guarantee_applies": cert_obj.guarantee_applies}
    s = f"|S| = {len(cert_obj.S)}, |B| = {len(cert_obj.B)} at distance > {args.r}"
    return result, cert_obj, s, True


def cmd_separator(args, g, meta):
    from .orders import build_order
    from .wideness import balanced_separator
    A = _vertex_list(args.a, g)
    pi = build_order(g, args.order, 4 * args.r)
    cert_obj = balanced_separator(g, A, args.r, args.eps, pi)
    result = {"r": args.r, "eps": args.eps,
              "separator_size": len(cert_obj.S),
              "worst_ball_fraction": cert_obj.worst_ball_fraction,
              "heavy": cert_obj.heavy, "iterations": cert_obj.iterations,
              "put_back": cert_obj.put_back}
    s = (f"|S| = {len(cert_obj.S)}, worst ball fraction "
         f"{cert_obj.worst_ball_fraction:.3f} <= {args.eps}")
    return result, cert_obj, s, True


def cmd_cover(args, g, meta):
    from .orders import build_order
    from .wideness import neighborhood_cover
    pi = build_order(g, args.order, 2 * args.r)
    cov = neighborhood_cover(g, args.r, pi)
    result = {"r": args.r, "clusters": len(cov.clusters),
              "radius_bound": cov.radius_bound, "max_degree": cov.max_degree}
    s = f"{len(cov.clusters)} clusters, degree {cov.max_degree}, radius <= {cov.radius_bound}"
    return result, cov, s, True


def cmd_partition(args, g, meta):
    from .orders import build_order
    from .wideness import partition_cover
    pi = build_order(g, args.order, 4 * args.r + 1)
    pc = partition_cover(g, args.r, pi)
    return {"r": args.r, "n_parts": pc.n_parts}, pc, f"{pc.n_parts} parts", True


def _parse_env(text) -> dict:
    env = {}
    if not text:
        return env
    for item in text.split(","):
        if "=" not in item:
            raise PreconditionError(f"expected var=vertex, got {item!r}")
        k, v = item.split("=", 1)
        k = k.strip()
        if k in env:
            raise PreconditionError(f"variable {k!r} is assigned twice in --env")
        try:
            env[k] = int(v)
        except ValueError:
            raise PreconditionError(f"vertex id in {item!r} is not an integer")
    return env


def cmd_eval(args, g, meta):
    from .logic import BasicLocalSentence, eval_basic_local, eval_naive, parse_formula
    marked = _vertex_list(args.marked, g) if args.marked is not None else frozenset()
    if (args.formula is None) == (args.sentence is None):
        raise PreconditionError("exactly one of --formula / --sentence is required")
    if args.formula is not None:
        env = _parse_env(args.env)
        f = parse_formula(args.formula, free=tuple(env))
        value = eval_naive(g, f, env, marked)
        return {"value": value}, None, f"value = {value}", value
    text = args.sentence  # inline JSON or a path, as the graph argument
    inline = text.lstrip().startswith("{")
    doc = _json(text if inline else _read(text), "sentence" if inline else repr(text))
    with _malformed("sentence"):
        s = BasicLocalSentence.from_json(doc)
    value, witnesses = eval_basic_local(g, s, marked)
    result = {"value": value,
              "witnesses": list(witnesses) if witnesses is not None else None}
    cert = None
    if value:
        cert = DistanceSet("independent", 2 * s.r, witnesses, k=s.k, sentence=s.to_json(),
                           marked=sorted(marked) if args.marked is not None else None)
    return result, cert, f"value = {value}", value


def cmd_solve(args, g, meta):
    from .logic import distance_dominating_set, distance_independent_set
    if args.problem == "independent":
        if args.k is None:
            raise PreconditionError("--problem independent requires --k")
        cands = _vertex_list(args.candidates, g)
        sol = distance_independent_set(g, args.r, args.k, cands)
        found = sol is not None
        result = {"problem": "independent", "r": args.r, "k": args.k, "found": found,
                  "vertices": sorted(sol) if found else None}
        cert = DistanceSet("independent", args.r, sol, k=args.k) if found else None
        word = "found" if found else "absent"
        return result, cert, f"distance-{args.r} independent {args.k}-set {word}", found
    sol = distance_dominating_set(g, args.r, mode=args.mode, cap=args.cap)
    result = {"problem": "dominating", "r": args.r, "mode": args.mode,
              "size": len(sol), "vertices": sorted(sol)}
    cert = DistanceSet("dominating", args.r, sol, mode=args.mode)
    return result, cert, f"distance-{args.r} dominating set of size {len(sol)}", True


def cmd_gen(args, g, meta):
    g = generate(_json(args.spec, "generator spec"))
    meta.update(_input_meta(args.spec, g))
    if args.to:
        _write(args.to, write_edge_list(g))
    result = {"n": g.n, "m": g.m, "graph": to_jsonable(g)}
    return result, None, f"generated n={g.n} m={g.m}", True


def _validator(module: str, cls: str, validate: str):
    """The check validate(graph, cls.from_json(certificate)), with both names
    taken from the library module `module` when the check first runs."""
    def check(g: Graph, doc: dict) -> list:
        lib = import_module(f"{__package__}.{module}")
        return getattr(lib, validate)(g, getattr(lib, cls).from_json(doc))
    return check


# certificate kind -> validator(graph, certificate document) -> violations
CERTIFICATES = {
    "order_witness": _validator("orders", "OrderWitness", "validate_order_witness"),
    "elimination_forest": _validator("orders", "ForestCertificate",
                                     "validate_forest_certificate"),
    "minor_model": _validator("minors", "MinorCertificate", "validate_minor_certificate"),
    "density": _validator("minors", "DensityCertificate", "validate_density_certificate"),
    "transcript": _validator("games", "GameTranscript", "validate_transcript"),
    "uqw": _validator("wideness", "UqwCertificate", "validate_uqw"),
    "separator": _validator("wideness", "SeparatorCertificate", "validate_separator"),
    "cover": _validator("wideness", "Cover", "validate_cover"),
    "partition": _validator("wideness", "PartitionCover", "validate_partition"),
    "distance_set": _validator("graph", "DistanceSet", "validate_distance_set"),
}


def _read_certificate(path: str, default_kind=None) -> tuple[str, dict]:
    """(kind, certificate) from a certificate file or a full --out document;
    `default_kind` stands in for a missing "kind" key."""
    doc = _json(_read(path), repr(path))
    if isinstance(doc, dict) and "certificate" in doc and "command" in doc:
        doc = doc["certificate"]
    if not isinstance(doc, dict):
        raise PreconditionError(f"{path!r} holds no certificate object")
    kind = doc.get("kind", default_kind)
    if not isinstance(kind, str) or kind not in CERTIFICATES:
        raise PreconditionError(f"unknown certificate kind {kind!r}")
    return kind, doc


def _check_certificate(g: Graph, kind: str, doc: dict) -> list:
    """Violations found by the kind's validator; a certificate too malformed
    to check is a usage error, not a failed verification."""
    with _malformed(f"{kind} certificate"):
        return CERTIFICATES[kind](g, doc)


def cmd_verify(args, g, meta):
    kind, doc = _read_certificate(args.certificate)
    meta["certificate"] = args.certificate
    violations = _check_certificate(g, kind, doc)
    result = {"kind": kind, "ok": not violations, "violations": violations}
    word = "ok" if not violations else f"{len(violations)} violations"
    return result, None, f"{kind}: {word}", not violations


def _index(value) -> int:
    """operator.index, except that a JSON boolean is not an integer."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


# sweep operation -> the key of its command's result that a row reports
SWEEP_KEYS = {"wcol": "value", "cover": "max_degree", "partition": "n_parts",
              "density": "density"}


def cmd_sweep(args, g, meta):
    text = _read(args.config)  # the digest is of the file's bytes
    meta.update(source=args.config, digest="sha256:" + hashlib.sha256(text.encode()).hexdigest())
    cfg = _json(text, repr(args.config))
    with _malformed("sweep config"):
        families = [(fam.get("name", json.dumps(fam["spec"], sort_keys=True)), fam["spec"])
                    for fam in cfg.get("families", [])]
        radii = [_index(r) for r in cfg.get("r", [1])]
        operations = list(cfg.get("operations", []))
        seed = (_index(cfg["seed"])
                if "density" in operations and "seed" in cfg else None)
    parser = build_parser()
    rows = []
    for name, spec in families:
        try:
            g = generate(spec)
        except SparsekitError as e:
            rows.append({"family": name, "error": str(e)})
            continue
        for r in radii:
            for op in operations:
                row = {"family": name, "n": g.n, "m": g.m, "r": r, "op": op}
                try:
                    # the row runs the command's own handler on the parser's
                    # defaults; g is already built, so "-" only fills its slot
                    if not isinstance(op, str) or op not in SWEEP_KEYS:
                        raise PreconditionError(f"unknown sweep operation {op!r}")
                    argv = [op, "-", f"--r={r}"]
                    if op == "density":
                        if seed is None:
                            raise PreconditionError(
                                "density rows need a top-level 'seed' in the config")
                        argv.append(f"--seed={seed}")
                    op_args = parser.parse_args(argv)
                    if "order" in cfg and "order" in vars(op_args):
                        op_args.order = cfg["order"]  # build_order rejects a bad name
                    row["value"] = globals()["cmd_" + op](op_args, g, {})[0][SWEEP_KEYS[op]]
                except SparsekitError as e:
                    row["error"] = str(e)
                rows.append(row)
    return {"rows": rows}, None, f"{len(rows)} rows", True


# ------------------------------------------------------------------ driver

class _UsageError(PreconditionError):
    """An argument the parser rejects; `command` is the subcommand whose
    parser rejected it, None for the top-level parser."""

    def __init__(self, message: str, command):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument as a `_UsageError` instead of exiting,
    so `run()` answers it with the envelope; the usage text still goes to
    stderr.  Subcommand parsers are built from the same class.  Arguments
    left over after a subcommand parsed are rejected by the top-level
    parser, which then knows the subcommand."""

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self._reject(f"unrecognized arguments: {' '.join(extras)}", parsed.command)
        return parsed

    def error(self, message):
        _, _, command = self.prog.partition(" ")
        self._reject(message, command or None)

    def _reject(self, message, command):
        self.print_usage(sys.stderr)
        raise _UsageError(message, command)


@functools.cache  # one parser per process: `run()` and `sweep` rows share it
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sparsekit",
        description="sparse-graph toolbox: orders, games, wideness, covers, logic")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, graph=True):  # the handler is `cmd_<name>`, found per run
        p = sub.add_parser(name, help=help_)
        if graph:
            p.add_argument("graph", help="edge-list/DIMACS path or inline generator spec")
        p.add_argument("--out", help="also write the JSON document to this path")
        return p

    p = add("wcol", "weak r-coloring number")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "heuristic"), default="heuristic")
    p.add_argument("--cap", type=int, default=10)

    add("col", "coloring number (degeneracy + 1)")

    p = add("treedepth", "exact treedepth with elimination forest")
    p.add_argument("--cap", type=int, default=15)

    p = add("minor", "search for a depth-r minor model of a pattern")
    p.add_argument("--pattern", required=True,
                   help="pattern graph (path or generator spec)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-h", type=int, default=5)
    p.add_argument("--max-g", type=int, default=20)

    p = add("density", "best depth-r minor density found (lower bound)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)

    p = add("game", "play or replay a vertex-deletion game")
    p.add_argument("--kind", choices=("treedepth", "splitter"), default="splitter")
    p.add_argument("--r", type=int, default=1, help="radius for the splitter kind")
    p.add_argument("--splitter", choices=("wcol", "uqw", "exhaustive"), default="wcol")
    p.add_argument("--connector", choices=("greedy", "random", "exhaustive"),
                   default="greedy")
    p.add_argument("--rounds", type=int, default=64, help="round cap")
    p.add_argument("--batch", type=int, default=None,
                   help="splitter batch size limit (default 1, auto for uqw)")
    p.add_argument("--seed", type=int, default=None,
                   help="required with --connector random")
    p.add_argument("--replay", help="validate a stored transcript instead of playing")

    p = add("uqw", "far-apart subset after deleting few vertices")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", help="target set as comma-separated ids (default: all)")
    p.add_argument("--mode", choices=("extract", "brute"), default="extract")
    p.add_argument("--smax", type=int, default=3, help="brute mode: max |S|")

    p = add("separator", "balanced neighborhood separator")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--a", help="target set (default: all vertices)")

    p = add("cover", "sparse neighborhood cover")
    p.add_argument("--r", type=int, required=True)

    p = add("partition", "partition into unions of far-apart clusters")
    p.add_argument("--r", type=int, required=True)

    p = add("eval", "evaluate a formula or a basic-local sentence")
    p.add_argument("--formula", help="formula text; free variables come from --env")
    p.add_argument("--env", help="assignment var=vertex,var=vertex")
    p.add_argument("--sentence", help="basic-local sentence: JSON path or inline")
    p.add_argument("--marked", help="extension of the unary predicate P")

    p = add("solve", "distance-r independent or dominating set")
    p.add_argument("--problem", choices=("independent", "dominating"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, help="independent: required size")
    p.add_argument("--candidates", help="independent: candidate ids (default: all)")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--cap", type=int, default=25)

    p = add("gen", "materialize a generator spec", graph=False)
    p.add_argument("spec", help="JSON generator spec")
    p.add_argument("--to", help="write the edge list to this path")

    p = add("verify", "re-run independent validators on a certificate", graph=False)
    p.add_argument("certificate", help="certificate JSON path")
    p.add_argument("--graph", required=True, dest="graph",
                   help="the graph the certificate talks about")

    p = add("sweep", "tabulate values across graph families", graph=False)
    p.add_argument("config", help="JSON config: families, r, operations")

    for name in ("wcol", "game", "uqw", "separator", "cover", "partition"):
        sub.choices[name].add_argument("--order", default="degeneracy")
    for name in ("minor", "uqw", "eval", "solve"):
        sub.choices[name].add_argument("--expect", action="store_true",
                                       help="exit 1 when the answer is absent or false")
    return ap


_ERROR_CODES = (
    (CapabilityError, "capability", 3),
    (AlgorithmStallError, "stall", 4),
    (StrategyBugError, "strategy_bug", 4),
    (FormulaParseError, "formula_parse", 2),
    (FormulaScopeError, "formula_scope", 2),
    (LocalityError, "locality", 2),
    (GraphInputError, "graph_input", 2),
    (PreconditionError, "precondition", 2),
    (SparsekitError, "error", 2),
)


def run(argv=None) -> int:
    meta = result = cert = error = out = None
    summary, code = "", 0
    args = argparse.Namespace(command=None)  # stands in until argv parses
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()  # wall_time_s times the command, not the parser
        if getattr(args, "out", None):
            _write(args.out, "", "a")  # an unwritable --out stops the command
            out = args.out
        g, got = load_graph(args.graph) if "graph" in vars(args) else (None, {})
        if "order" in vars(args):
            # some modes build no order, so the name is checked here, by
            # build_order's own rule on the empty graph
            from .orders import build_order
            build_order(Graph(0, ()), args.order, 1)
        result, cert, summary, ok = globals()["cmd_" + args.command](args, g, got)
        meta = got
        # a false answer exits 1, unless the command's --expect flag is unset
        code = 0 if ok or not getattr(args, "expect", True) else 1
    except SparsekitError as e:
        if isinstance(e, _UsageError):  # the parser rejected argv, so nothing ran
            args.command = e.command
        for klass, error_code, exit_code in _ERROR_CODES:
            if isinstance(e, klass):
                error = {"code": error_code, "message": str(e)}
                summary, code = f"error: {e}", exit_code
                break
    except Exception as e:  # a defect: keep the envelope, log the traceback
        import traceback  # imported here: start-up is most of a small command
        traceback.print_exc()
        error = {"code": "runtime", "message": f"{type(e).__name__}: {e}"}
        summary, code = f"error: {error['message']}", 4
    doc = {
        "command": args.command,
        "input": meta,
        "params": _public_params(args),
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "result": result,
        "certificate": cert,
        "error": error,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    text = emit_json(doc)
    sys.stdout.write(text)
    if out:
        try:
            _write(out, text)
        except PreconditionError as e:  # the path was writable, the write failed
            summary, code = f"error: {e}", 2
    prog = f"sparsekit {args.command}" if args.command else "sparsekit"
    print(f"{prog}: {summary}", file=sys.stderr)
    return code


def _public_params(args) -> dict:
    skip = {"command", "graph", "out", "seed"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
