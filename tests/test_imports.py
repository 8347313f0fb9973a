"""What the package imports, and when.  A static check of the source tree
with the standard library's `ast` (every imported name is referenced
somewhere in its module); the public API that `import sparsekit` offers; and
the submodules a fresh CLI process loads for a command, since start-up is
most of the cost of a small one."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sparsekit

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    files = [p for p in sorted((ROOT / "src" / "sparsekit").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    assert len(files) > 20
    assert [hit for p in files for hit in unused_imports(p)] == []


# the names `sparsekit` exported when its `__init__` imported every submodule,
# and the certificate classes and validators added since
PUBLIC_API = sorted([
    "AlgorithmStallError", "BasicLocalSentence", "CapabilityError", "ConnectorMove",
    "Cover", "DensityReport", "EdgeListParseError", "EliminationForest",
    "ExhaustiveConnector", "ExhaustiveSplitter", "FormulaParseError",
    "FormulaScopeError", "GameConfig", "GameRound", "GameTranscript", "Graph",
    "GraphInputError", "GreedyBallConnector", "LocalityError", "MinorModel",
    "ORDER_NAMES", "PartitionCover", "PreconditionError", "RandomConnector", "Rng",
    "SeparatorCertificate", "SparsekitError", "StrategyBugError",
    "UqwBatchSplitter", "UqwCertificate", "VertexOrder", "WcolSplitter",
    "apex_graph", "balanced_separator", "ball", "bfs_distances", "build_order",
    "coloring_number", "complete_graph", "components", "connector_move_violations",
    "cycle_graph", "degeneracy_order", "density_report", "distance_dominating_set",
    "distance_independent_set", "emit_json", "eval_basic_local", "eval_naive",
    "expand_basic_local", "find_depth_r_minor", "free_vars", "game_value",
    "generate", "gnd_graph", "graph_from_json", "greedy_wreach_order", "grid_graph",
    "identity_order", "induced_subgraph", "locality_violations",
    "neighborhood_cover", "parse_edge_list", "parse_formula", "partition_cover",
    "path_graph", "play", "random_tree", "read_dimacs", "satisfying_set",
    "set_radius", "splitter_move_violations", "star_graph", "subdivide",
    "to_jsonable", "to_text", "treedepth_exact", "uqw_brute", "uqw_extract",
    "validate_cover", "validate_elimination_forest", "validate_partition",
    "validate_separator", "validate_transcript", "validate_uqw",
    "verify_minor_model", "wcol_exact", "wcol_of_order", "wcol_splitter_strategy",
    "wreach_sets", "write_edge_list",
    "DensityCertificate", "DistanceSet", "ForestCertificate", "MinorCertificate",
    "OrderWitness", "validate_density_certificate", "validate_distance_set",
    "validate_forest_certificate", "validate_minor_certificate", "validate_order_witness",
])


def _loaded(code: str) -> set:
    """The sparsekit modules loaded by a fresh process that runs `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
         "m for m in sys.modules if m.startswith('sparsekit'))))"],
        capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_public_api_is_unchanged():
    assert sorted(sparsekit.__all__) == PUBLIC_API
    assert set(PUBLIC_API) <= set(dir(sparsekit))
    for name in PUBLIC_API:
        module = importlib.import_module(f"sparsekit.{sparsekit._EXPORTS[name]}")
        assert getattr(sparsekit, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        sparsekit.no_such_name


def test_bare_import_loads_no_submodule():
    assert _loaded("import sparsekit") == {"sparsekit"}


def test_each_command_loads_only_its_modules(tmp_path):
    def run(*argv):
        return _loaded(f"import sparsekit.cli as c\nc.run({list(argv)!r})")

    p5 = '{"family":"path","n":5}'
    base = run("gen", p5)
    assert not base & {f"sparsekit.{m}" for m in
                       ("orders", "logic", "games", "wideness", "minors")}
    assert run("col", p5) == base | {"sparsekit.orders"}
    assert run("eval", p5, "--formula", "exists x . true") == base | {"sparsekit.logic"}
    cert = str(tmp_path / "cover.json")
    run("cover", p5, "--r", "1", "--out", cert)
    assert (run("verify", cert, "--graph", p5)
            == base | {"sparsekit.orders", "sparsekit.wideness"})
    # the kinds checked by library validators since they left the CLI load
    # no more than their checks did there: a distance set without a
    # sentence needs only the graph
    for name, argv, extra in (
            ("order", ("wcol", p5, "--r", "2"), {"sparsekit.orders"}),
            ("dominating", ("solve", p5, "--problem", "dominating", "--r", "1"), set()),
            ("minor", ("minor", p5, "--pattern", '{"family":"path","n":2}', "--r", "0"),
             {"sparsekit.minors"})):
        cert = str(tmp_path / f"{name}.json")
        run(*argv, "--out", cert)
        assert run("verify", cert, "--graph", p5) == base | extra
