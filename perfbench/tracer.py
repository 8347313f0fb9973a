"""Spans around the benchmark's calls into sparsekit, and their per-layer sums.

A span is [name, start, end, parent, job, failed].  Layer spans are named
`<module>.<function>`; the run loop wraps each job in a `job` span and set-up
in a `setup` span, so layer spans are their children.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# The library's modules, in the order the report lists them.
LAYERS = ("graph", "graphio", "orders", "minors", "games", "wideness", "logic", "cli")

# Every function the benchmark calls directly, by module.  `graph.build` is a
# `Graph(...)` construction, `wideness.validate` is any `validate_*` re-check
# of a wideness certificate, and `cli.process` is one `python -m sparsekit.cli`
# process from start to exit.
FUNCTIONS = {
    "graph": ("build", "ball"),
    "graphio": ("generate", "write_edge_list", "parse_edge_list", "read_dimacs",
                "emit_json"),
    "orders": ("wcol_exact", "treedepth_exact", "coloring_number", "wcol_of_order",
               "validate_elimination_forest", "degeneracy_order",
               "greedy_wreach_order"),
    "minors": ("find_depth_r_minor", "verify_minor_model", "density_report"),
    "games": ("game_value", "play", "validate_transcript"),
    "wideness": ("neighborhood_cover", "partition_cover", "uqw_extract",
                 "balanced_separator", "validate"),
    "logic": ("distance_dominating_set", "eval_basic_local", "expand_basic_local",
              "eval_naive", "parse_formula"),
    "cli": ("process", "run"),
}

# Counts taken from the library's outputs, and the CLI's own timings.
EXTRA = ("graphio.emit_json.bytes", "wideness.balanced_separator.iterations",
         "minors.density_report.attempts", "cli.import_s", "cli.handler_s",
         "bench.self_s", "trace.overhead_s")


def per_layer_names() -> list:
    names = []
    for layer in LAYERS:
        for fn in FUNCTIONS[layer]:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.busy_s"]
        names += [f"{layer}.self_s", f"{layer}.share", f"{layer}.failed"]
    return names + list(EXTRA)


class Tracer:
    """Forwards calls into the library; records a span per call when enabled.

    Counts (`count`) and failures (`fail`) are kept whether or not spans are
    recorded, because the correctness gate needs them in every run.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = {}
        self.failed = {layer: 0 for layer in LAYERS}
        self.job = None
        self._stack = []

    @contextmanager
    def span(self, name: str, job=None):
        if not self.enabled:
            yield
            return
        if job is not None:
            self.job = job
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span called `name` when tracing."""
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception:
            self.fail(name.split(".", 1)[0])
            raise

    def count(self, name: str, k) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def fail(self, layer: str) -> None:
        self.failed[layer] = self.failed.get(layer, 0) + 1

    def layer_metrics(self, base_s: float) -> dict:
        """calls and busy time per function, self time, share of `base_s`
        and failures per module, plus the counts."""
        out = {name: 0 for name in per_layer_names()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _failed in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _job, _failed) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            own = dur - child_time[i]
            if layer in FUNCTIONS:
                out[f"{name}.calls"] += 1
                out[f"{name}.busy_s"] += dur
                out[f"{layer}.self_s"] += own
            else:
                out["bench.self_s"] += own
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / base_s if base_s > 0 else 0.0
            out[f"{layer}.failed"] = self.failed.get(layer, 0)
        for name, k in self.counts.items():
            out[name] = k
        return out
