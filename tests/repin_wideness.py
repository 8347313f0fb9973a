"""Shows that the wideness certificate pins in `test_wideness.py` changed
only by the `verified` key that the certificates no longer carry.

For every pinned document it recomputes the certificate, and checks that
  - the sha256 of its JSON equals the pin in `tests/test_wideness.py`, and
  - the sha256 of the same JSON with `"verified": true` added equals the pin
    at commit fbba5db, the last one whose certificates carried the key
    (every returned certificate had passed its validator, so the key read
    true); `emit_json` sorts keys, so where the key sat does not matter.

Run from the repository root, in a git checkout:
    PYTHONPATH=src:tests python tests/repin_wideness.py
"""

import ast
import hashlib
import re
import subprocess
from pathlib import Path

from sparsekit.graph import Graph
from sparsekit.graphio import (cycle_graph, emit_json, gnd_graph, grid_graph,
                               path_graph, random_tree)
from sparsekit.orders import degeneracy_order, wcol_of_order
from sparsekit.wideness import balanced_separator, uqw_brute, uqw_extract

import test_wideness

OLD = "fbba5db"
TABLES = ("PINNED_UQW_BRUTE", "PINNED_CERTIFICATES")


def pins(source: str) -> dict:
    """The two pin tables and the 40-grid separator pin of a test file."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in TABLES:
            out[node.targets[0].id] = ast.literal_eval(node.value)
    out["grid40"] = re.search(r'_digest\(cert\) == "([0-9a-f]{64})"', source).group(1)
    return out


def digests(doc: dict) -> tuple[str, str]:
    """sha256 of the document, and of the document with the old key."""
    def sha(d):
        return hashlib.sha256(emit_json(d).encode()).hexdigest()
    return sha(doc), sha({**doc, "verified": True})


def documents():
    """(table, key, certificate document) for every pin."""
    triangles = Graph(18, [(3 * i + a, 3 * i + b) for i in range(6)
                           for a, b in ((0, 1), (0, 2), (1, 2))])
    small = {"path18": path_graph(18), "cycle18": cycle_graph(18),
             "grid3x6": grid_graph(3, 6), "triangles6": triangles,
             "tree18": random_tree(18, seed=5), "gnd18": gnd_graph(18, 3.0, seed=1)}
    for key in test_wideness.PINNED_UQW_BRUTE:
        name, r, target = key
        g = small[name]
        A = range(g.n) if target == "all" else [v for v in range(g.n) if v % 3 != 1]
        yield "PINNED_UQW_BRUTE", key, uqw_brute(g, A, r, 1, s_max=3).to_json()
    for key in test_wideness.PINNED_CERTIFICATES:
        name, kind, r, eps = key
        g = test_wideness.PIN_GRAPHS[name]()
        pi = degeneracy_order(g)
        if kind == "uqw":
            m = int(1 / eps) + wcol_of_order(g, pi, 4 * r) + 1
            cert = uqw_extract(g, range(g.n), 4 * r, m, pi)
        else:
            cert = balanced_separator(g, range(g.n), r, eps, pi)
        yield "PINNED_CERTIFICATES", key, cert.to_json()
    g = grid_graph(40, 40)
    cert = balanced_separator(g, range(g.n), 1, 0.1, degeneracy_order(g))
    yield "grid40", None, cert.to_json()


def main():
    path = Path(test_wideness.__file__)
    new = pins(path.read_text(encoding="utf-8"))
    old = pins(subprocess.run(["git", "show", f"{OLD}:tests/{path.name}"], cwd=path.parent,
                              capture_output=True, text=True, check=True).stdout)
    bad = 0
    count = 0
    for table, key, doc in documents():
        now, with_key = digests(doc)
        want_new = new[table] if key is None else new[table][key]
        want_old = old[table] if key is None else old[table][key]
        count += 1
        if "verified" in doc or now != want_new or with_key != want_old:
            bad += 1
            print(f"MISMATCH {table} {key}: {now}")
    print(f"{count} pinned documents, {bad} mismatches")
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
