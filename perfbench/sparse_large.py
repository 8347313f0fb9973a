"""sparse_large: the polynomial-time constructions on a few large sparse
graphs, one (graph, operation) pair per job, each certificate re-checked by
its public validator inside the job.

Set-up generates the graphs through `generate` and round-trips each through
the edge-list and DIMACS parsers.  The jobs of one graph share its
degeneracy order: the `order` job computes it with its wcol for r = 1, 2, 4,
and the later jobs of that graph use it, as a batch script would.  Taking
the order and its wcol profile as one job, not four, puts the median job in
the dense middle of the job costs rather than at a gap.
"""

from __future__ import annotations

import random

from sparsekit import (GameConfig, Graph, GreedyBallConnector, ball,
                       balanced_separator, degeneracy_order, density_report,
                       distance_dominating_set, generate, greedy_wreach_order,
                       neighborhood_cover, parse_edge_list, partition_cover,
                       play, read_dimacs, uqw_extract, validate_cover,
                       validate_partition, validate_separator,
                       validate_transcript, validate_uqw, verify_minor_model,
                       wcol_of_order, wcol_splitter_strategy, write_edge_list)

from common import dimacs_text, emit

# Operations per graph, in job order; `name:r` gives the radius.  The
# separator runs on the grid and the tree, where it finishes in seconds; on
# G(n, 3/n) at n = 2000 it deletes most of the graph.  The radius-2 cover of
# G(2000, 3/2000) costs 4 to 7 s depending on the seed, which alone moved
# jobs_per_s by a quarter between seeds, so the G(n, 3/n) radius-2 cover runs
# at n = 500.  Greedy domination skips the tree, where it would add 3 s of
# the same code path to every pass.
OPS = {
    "gnd2000": ("order", "neighborhood_cover:1", "partition_cover:1", "uqw_extract",
                "play", "distance_dominating_set"),
    "grid30": ("order", "neighborhood_cover:1", "neighborhood_cover:2", "partition_cover:1",
               "uqw_extract", "play", "distance_dominating_set", "balanced_separator"),
    "tree2000": ("order", "neighborhood_cover:1", "neighborhood_cover:2", "partition_cover:1",
                 "uqw_extract", "play", "balanced_separator"),
    "gnd500": ("order", "neighborhood_cover:2", "greedy_wreach_order:2", "density_report:1"),
}
WCOL_RADII = (1, 2, 4)
SEPARATOR_EPS = 0.1
UQW_R, UQW_M = 2, 4
DENSITY_BUDGET = 20


def setup(seed: int, tr, workdir):
    rng = random.Random(seed)
    specs = {
        "gnd2000": {"family": "gnd", "n": 2000, "d": 3.0, "seed": rng.randrange(2 ** 32)},
        "grid30": {"family": "grid", "rows": 30, "cols": 30},
        "tree2000": {"family": "random_tree", "n": 2000, "seed": rng.randrange(2 ** 32)},
        "gnd500": {"family": "gnd", "n": 500, "d": 3.0, "seed": rng.randrange(2 ** 32)},
    }
    density_seed = rng.randrange(2 ** 32)
    jobs = []
    for name, spec in specs.items():
        g = tr.call("graphio.generate", generate, spec)
        _round_trip(tr, name, g)
        emit(tr, g)  # the input's canonical JSON, as `gen` prints it
        jobs += [(f"{name}:{op}", _job(name, g, op, density_seed)) for op in OPS[name]]
    return jobs


def _round_trip(tr, name: str, g: Graph) -> None:
    """The edge-list and DIMACS forms parse back to the same graph."""
    text = tr.call("graphio.write_edge_list", write_edge_list, g)
    back = tr.call("graphio.parse_edge_list", parse_edge_list, text)
    if sorted(back.edges()) != sorted(g.edges()):
        raise RuntimeError(f"{name}: edge-list round trip changed the edges")
    back = tr.call("graphio.read_dimacs", read_dimacs, dimacs_text(g))
    if back.n != g.n or sorted(back.edges()) != sorted(g.edges()):
        raise RuntimeError(f"{name}: DIMACS round trip changed the graph")


def _recheck(tr, validator, g: Graph, cert) -> list:
    return [("wideness", msg) for msg in tr.call("wideness.validate", validator, g, cert)]


def _job(name: str, g: Graph, op: str, density_seed: int):
    op_name, _, arg = op.partition(":")
    r = int(arg) if arg else None

    def job(tr, state):
        problems = []
        if op_name == "order":
            pi = tr.call("orders.degeneracy_order", degeneracy_order, g)
            wcol = {k: tr.call("orders.wcol_of_order", wcol_of_order, g, pi, k)
                    for k in WCOL_RADII}
            values = list(wcol.values())
            if not 1 <= values[0] <= g.n or any(a > b for a, b in zip(values, values[1:])):
                problems.append(("orders", f"wcol of the degeneracy order: {wcol}"))
            state[name] = {"pi": pi, "wcol": wcol}
            return emit(tr, {"order": list(pi.perm), "wcol": wcol}), problems
        if op_name == "greedy_wreach_order":
            order = tr.call("orders.greedy_wreach_order", greedy_wreach_order, g, r)
            value = tr.call("orders.wcol_of_order", wcol_of_order, g, order, r)
            if not 1 <= value <= g.n:
                problems.append(("orders", f"greedy order has wcol_{r} = {value}"))
            return emit(tr, {"order": list(order.perm), "wcol": value}), problems
        if op_name == "density_report":
            rep = tr.call("minors.density_report", density_report, g, r,
                          budget=DENSITY_BUDGET, seed=density_seed)
            tr.count("minors.density_report.attempts", rep.attempts)
            minor = Graph(len(rep.model.branch_sets), list(rep.model.edge_witness))
            problems += [("minors", msg) for msg in tr.call(
                "minors.verify_minor_model", verify_minor_model, g, minor, rep.model)]
            if (minor.n, minor.m, minor.m / minor.n) != (rep.minor_n, rep.minor_m, rep.density):
                problems.append(("minors", f"report {rep.minor_n}/{rep.minor_m}/{rep.density} "
                                           f"does not match its model {minor.n}/{minor.m}"))
            return emit(tr, rep.to_json()), problems

        pi, wcol = state[name]["pi"], state[name]["wcol"]
        if op_name == "neighborhood_cover":
            cert = tr.call("wideness.neighborhood_cover", neighborhood_cover, g, r, pi)
            problems += _recheck(tr, validate_cover, g, cert)
            if cert.max_degree > wcol[2 * r]:
                problems.append(("wideness", f"cover degree {cert.max_degree} > "
                                             f"wcol_{2 * r} {wcol[2 * r]}"))
            record = cert.to_json()
        elif op_name == "partition_cover":
            cert = tr.call("wideness.partition_cover", partition_cover, g, r, pi)
            problems += _recheck(tr, validate_partition, g, cert)
            record = cert.to_json()
        elif op_name == "uqw_extract":
            cert = tr.call("wideness.uqw_extract", uqw_extract, g, range(g.n), UQW_R, UQW_M, pi)
            problems += _recheck(tr, validate_uqw, g, cert)
            record = cert.to_json()
        elif op_name == "balanced_separator":
            cert = tr.call("wideness.balanced_separator", balanced_separator,
                           g, range(g.n), 1, SEPARATOR_EPS, pi)
            tr.count("wideness.balanced_separator.iterations", cert.iterations)
            problems += _recheck(tr, validate_separator, g, cert)
            record = cert.to_json()
        elif op_name == "distance_dominating_set":
            dom = tr.call("logic.distance_dominating_set", distance_dominating_set,
                          g, 1, mode="greedy")
            covered = set()
            for v in dom:
                covered |= tr.call("graph.ball", ball, g, v, 1)
            if len(covered) != g.n:
                problems.append(("logic", f"{g.n - len(covered)} vertices not dominated"))
            record = {"dominating_set": sorted(dom)}
        elif op_name == "play":
            cfg = GameConfig(kind="splitter", radius=1, round_cap=wcol[2])
            t = tr.call("games.play", play, g, cfg, wcol_splitter_strategy(pi, 1),
                        GreedyBallConnector())
            problems += [("games", msg) for msg in
                         tr.call("games.validate_transcript", validate_transcript, g, t)]
            if t.winner != "splitter":
                problems.append(("games", f"splitter lost within its bound {wcol[2]}"))
            record = t.to_json()
        else:
            raise ValueError(f"unknown operation {op!r}")
        return emit(tr, record), problems
    return job
