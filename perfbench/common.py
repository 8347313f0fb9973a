"""Helpers the workloads share."""

from __future__ import annotations

import os

from sparsekit import Graph, emit_json


def emit(tr, record) -> str:
    """Canonical JSON of a job's output through the library's emitter."""
    text = tr.call("graphio.emit_json", emit_json, record)
    tr.count("graphio.emit_json.bytes", len(text))
    return text


def dimacs_text(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def child_env(root, *more_paths) -> dict:
    """Environment for a fresh interpreter that imports sparsekit from the
    checkout's `src/` (then from `more_paths`) and writes no bytecode."""
    path = os.pathsep.join(p for p in (os.path.join(root, "src"), *more_paths,
                                       os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
