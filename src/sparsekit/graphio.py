"""Reading, generating, and serializing graphs.

Edge-list format: one edge per line as two whitespace-separated names, or
one name alone for a vertex that may have no edges; '#' starts a comment,
blank lines are skipped.  Vertex ids are assigned by first appearance and
the original names are kept as labels.

Generator specs are plain dicts, e.g. {"family": "path", "n": 5} or
{"family": "subdivision", "base": {"family": "complete", "n": 4}, "r": 1}.
Randomized families (random_tree, gnd) require an explicit "seed"; streams
come from the documented 64-bit generator in rng.py.
"""

from __future__ import annotations

import json

from .errors import CapabilityError, EdgeListParseError, GraphInputError
from .graph import Graph
from .rng import Rng

# Largest graph any reader or generator builds, checked before any
# per-vertex allocation.
MAX_VERTICES = 1_000_000
# Most vertex pairs a generator that scans every pair (complete, gnd) may
# scan, checked before it builds anything.
MAX_PAIRS = 10_000_000


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise CapabilityError(f"graphs are capped at {MAX_VERTICES} vertices, input has {n}",
                              "max_vertices", MAX_VERTICES)


def parse_edge_list(text: str) -> Graph:
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (1, 2):
            raise EdgeListParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}: {line!r}", line_no
            )
        rows.append((line_no, tokens))
    # all-numeric tokens are vertex ids and survive a write/read round trip;
    # anything else is a label, numbered by first appearance
    numeric = all(t.isdecimal() for _, tokens in rows for t in tokens)
    ids: dict[str, int] = {}
    top = -1

    def vid(tok):
        nonlocal top
        v = int(tok) if numeric else ids.setdefault(tok, len(ids))
        top = max(top, v)
        return v

    edges = []
    seen = set()
    for line_no, tokens in rows:
        try:
            ends = [vid(t) for t in tokens]
        except ValueError:  # int() refuses more than 4300 digits
            raise EdgeListParseError("vertex id too long to read", line_no) from None
        if len(ends) == 1:
            continue  # a lone vertex adds no edge
        (a, b), (u, v) = tokens, ends
        if u == v:
            raise EdgeListParseError(f"self-loop at {a!r}", line_no)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListParseError(f"duplicate edge {a!r} {b!r}", line_no)
        seen.add(key)
        edges.append(key)
    _check_vertex_count(top + 1 if numeric else len(ids))
    if numeric:
        return Graph(top + 1, edges)
    labels = [None] * len(ids)
    for name, i in ids.items():
        labels[i] = name
    return Graph(len(ids), edges, labels)


def read_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    edges = []
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise EdgeListParseError("second 'p' header", line_no)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise EdgeListParseError(f"bad header {line!r}", line_no)
            try:
                n, declared_m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise EdgeListParseError(f"non-integer field in {line!r}", line_no) from None
            _check_vertex_count(n)
        elif tokens[0] == "e":
            if n is None:
                raise EdgeListParseError("edge before 'p' header", line_no)
            if len(tokens) != 3:
                raise EdgeListParseError(f"bad edge line {line!r}", line_no)
            try:
                u, v = int(tokens[1]) - 1, int(tokens[2]) - 1
            except ValueError:
                raise EdgeListParseError(f"non-integer field in {line!r}", line_no) from None
            if not (0 <= u < n and 0 <= v < n):
                raise EdgeListParseError(f"vertex out of range in {line!r}", line_no)
            if u == v:
                raise EdgeListParseError(f"self-loop in {line!r}", line_no)
            key = (min(u, v), max(u, v))
            if key in seen:
                raise EdgeListParseError(f"duplicate edge in {line!r}", line_no)
            seen.add(key)
            edges.append(key)
        else:
            raise EdgeListParseError(f"unknown line type {line!r}", line_no)
    if n is None:
        raise EdgeListParseError("missing 'p edge n m' header", 1)
    if declared_m != len(edges):
        raise EdgeListParseError(
            f"header declares {declared_m} edges, found {len(edges)}", 1
        )
    return Graph(n, edges, [str(i + 1) for i in range(n)])


def write_edge_list(g: Graph) -> str:
    """Each vertex's edges to higher ids, in id order; a vertex with no edges
    is a lone line, so the file keeps it."""
    lines = []
    for u in range(g.n):
        if not g.adj[u]:
            lines.append(g.label_of(u))
        lines += [f"{g.label_of(u)} {g.label_of(v)}" for v in g.adj[u] if u < v]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------- generators

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise GraphInputError("grid needs rows, cols >= 1")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """n vertices total: center 0 plus n-1 leaves."""
    if n < 1:
        raise GraphInputError(f"star needs n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise GraphInputError(f"random_tree needs n >= 1, got {n}")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = Rng(seed)
    seq = [rng.randint(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    # classic decode: repeatedly join the smallest remaining leaf to the
    # next sequence entry
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def gnd_graph(n: int, d: float, seed: int) -> Graph:
    """G(n, d/n): each pair i<j kept independently with probability d/n.
    Pairs are scanned with i ascending, then j ascending."""
    if n < 0:
        raise GraphInputError(f"gnd needs n >= 0, got {n}")
    p = d / n if n > 0 else 0.0
    rng = Rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_float() < p:
                edges.append((i, j))
    return Graph(n, edges)


def subdivide(g: Graph, r: int) -> Graph:
    """Replace every edge by a path with r inner vertices.  Original vertices
    keep their ids; inner vertices are appended in sorted-edge order."""
    if r < 0:
        raise GraphInputError(f"subdivision depth must be >= 0, got {r}")
    if r == 0:
        return Graph(g.n, g.edges(), g.labels)
    edges = []
    labels = list(g.labels) if g.labels is not None else None
    nxt = g.n
    for u, v in g.edges():
        chain = [u] + list(range(nxt, nxt + r)) + [v]
        nxt += r
        if labels is not None:
            labels += [f"s{u}-{v}.{i}" for i in range(r)]
        edges += list(zip(chain, chain[1:]))
    return Graph(nxt, edges, labels)


def apex_graph(g: Graph) -> Graph:
    """Add one vertex adjacent to everything; it gets the largest id."""
    edges = list(g.edges()) + [(v, g.n) for v in range(g.n)]
    labels = None
    if g.labels is not None:
        labels = list(g.labels) + ["apex"]
    return Graph(g.n + 1, edges, labels)


# Each family's builder, its parameters in call order, the vertex count of
# the graph it builds from them, and whether it scans every vertex pair.
# "base" is a nested spec, "d" a number, and every other parameter an integer.
_FAMILIES = {
    "path": (path_graph, ("n",), None, False),
    "cycle": (cycle_graph, ("n",), None, False),
    "grid": (grid_graph, ("rows", "cols"), lambda a, b: max(a, 0) * max(b, 0), False),
    "complete": (complete_graph, ("n",), None, True),
    "star": (star_graph, ("n",), None, False),
    "random_tree": (random_tree, ("n", "seed"), None, False),
    "gnd": (gnd_graph, ("n", "d", "seed"), None, True),
    "subdivision": (subdivide, ("base", "r"), lambda base, r: base.n + r * base.m, False),
    "apex": (apex_graph, ("base",), lambda base: base.n + 1, False),
}


def generate(spec: dict) -> Graph:
    """Build a graph from a generator-spec dict.  See the module docstring."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise GraphInputError(f"generator spec needs a 'family' key: {spec!r}")
    family = spec["family"]
    if family in ("random_tree", "gnd") and "seed" not in spec:
        raise GraphInputError(f"family {family!r} requires an explicit seed")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise GraphInputError(f"unknown generator family {family!r}")
    build, names, size, all_pairs = _FAMILIES[family]
    args = []
    for name in names:
        if name not in spec:
            raise GraphInputError(f"generator spec missing parameter {name!r} for {family!r}")
        value = spec[name]
        if name == "base":
            value = generate(value)
        else:
            kinds, what = ((int, float), "a number") if name == "d" else (int, "an integer")
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise GraphInputError(f"generator parameter {name!r} for {family!r} "
                                      f"must be {what}, got {value!r}")
        args.append(value)
    n = size(*args) if size else args[0]
    _check_vertex_count(n)
    if all_pairs and (pairs := max(n, 0) * (n - 1) // 2) > MAX_PAIRS:
        raise CapabilityError(f"generators are capped at {MAX_PAIRS} vertex pairs, "
                              f"{family!r} on {n} vertices scans {pairs}",
                              "max_pairs", MAX_PAIRS)
    return build(*args)


# ------------------------------------------------------------- serialization

def to_jsonable(obj):
    """Recursively convert toolkit values into plain JSON data with
    deterministic ordering (sets are sorted, dict keys stringified)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Graph):
        d = {"n": obj.n, "edges": [list(e) for e in obj.edges()]}
        if obj.labels is not None:
            d["labels"] = list(obj.labels)
        return d
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "to_json"):
        # a certificate class whose to_json leaves out its kind names it in
        # a class attribute `kind`, added here; the others write their own
        kind = getattr(type(obj), "kind", None)
        d = obj.to_json()
        return to_jsonable({"kind": kind, **d} if isinstance(kind, str) else d)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def graph_from_json(d: dict) -> Graph:
    """A graph's JSON form, read from outside the program: the vertex count
    and every edge endpoint must be JSON integers (true and false are not
    vertices 1 and 0), checked before anything is built."""
    n, edges = d["n"], [tuple(e) for e in d["edges"]]
    if type(n) is not int or any(type(x) is not int for e in edges for x in e):
        raise GraphInputError("a graph's vertex count and edge endpoints must be integers")
    _check_vertex_count(n)
    return Graph(n, edges, d.get("labels"))
