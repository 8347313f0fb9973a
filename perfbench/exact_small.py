"""exact_small: one graph's full exact profile per job, on a seeded corpus of
small graphs within the library's default caps.

Most of the time goes to `wcol_exact`.  G(n, p) graphs stop at n = 7; the
8- and 9-vertex graphs are paths, cycles, grids and random trees.  One exact
profile of a random 8- or 9-vertex graph costs anywhere from 5 ms to 2 s, so
a handful of them decided the pass time and moved jobs_per_s by up to 2x
between seeds.  Many 6- and 7-vertex graphs keep the search measured with a
spread of a few percent.
"""

from __future__ import annotations

import random
from itertools import combinations

from sparsekit import (BasicLocalSentence, GameConfig, Graph, ball,
                       coloring_number, complete_graph, distance_dominating_set,
                       eval_basic_local, eval_naive,
                       expand_basic_local, find_depth_r_minor, game_value,
                       generate, parse_formula, treedepth_exact,
                       validate_elimination_forest, verify_minor_model,
                       wcol_exact, wcol_of_order)

from common import emit

# (n, p, graphs per seed) for the G(n, p) part of the corpus: a sparse and a
# denser p.
GNP_CELLS = [(n, p, {5: 10, 6: 50, 7: 60}[n]) for n in range(5, 8) for p in (0.3, 0.5)]
# Seed-independent structured graphs, plus seeded random trees.
FIXED_SPECS = ([{"family": "path", "n": n} for n in range(5, 10)]
               + [{"family": "cycle", "n": n} for n in range(5, 10)]
               + [{"family": "grid", "rows": r, "cols": c} for r, c in ((2, 3), (2, 4), (3, 3))])
TREE_SIZES = range(5, 10)

# r-local properties of x, as (radius, formula text).
PROPERTIES = [
    (1, "P(x)"),
    (1, "exists y within 1 of x . E(x,y) & P(y)"),
    (1, "forall y within 1 of x . y = x | P(y)"),
    (1, "exists y within 1 of x . exists z within 1 of x . E(y,z)"),
    (1, "!(exists y within 1 of x . P(y))"),
    (2, "exists y within 2 of x . dist(x,y) > 1 & P(y)"),
    (2, "exists y within 1 of x . exists z within 1 of y . !(z = x) & !P(z)"),
]


def _gnp(tr, n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return tr.call("graph.build", Graph, n, edges)


def setup(seed: int, tr, workdir):
    rng = random.Random(seed)
    graphs = []
    for n, p, count in GNP_CELLS:
        for i in range(count):
            graphs.append((f"gnp-n{n}-p{p}-{i}", _gnp(tr, n, p, rng)))
    for spec in FIXED_SPECS:
        name = "-".join(str(spec[k]) for k in sorted(spec))
        graphs.append((name, tr.call("graphio.generate", generate, spec)))
    for n in TREE_SIZES:
        spec = {"family": "random_tree", "n": n, "seed": rng.randrange(2 ** 32)}
        graphs.append((f"tree-n{n}", tr.call("graphio.generate", generate, spec)))

    k4 = complete_graph(4)
    jobs = []
    for name, g in graphs:
        r, text = PROPERTIES[rng.randrange(len(PROPERTIES))]
        chi = tr.call("logic.parse_formula", parse_formula, text, ("x",))
        sentence = BasicLocalSentence(rng.randint(1, 2), r, chi, "x")
        marked = frozenset(v for v in range(g.n) if rng.random() < 0.3)
        jobs.append((name, _profile_job(g, k4, sentence, marked)))
    return jobs


def _profile_job(g: Graph, k4: Graph, sentence, marked):
    def job(tr, state):
        problems = []
        n = g.n
        col, _ = tr.call("orders.coloring_number", coloring_number, g)
        witnesses = [tr.call("orders.wcol_exact", wcol_exact, g, r) for r in range(1, n + 1)]
        values = [v for v, _ in witnesses]
        td, forest = tr.call("orders.treedepth_exact", treedepth_exact, g)
        game = tr.call("games.game_value", game_value, g,
                       GameConfig(kind="treedepth", round_cap=max(n, 1)))
        model = tr.call("minors.find_depth_r_minor", find_depth_r_minor, g, k4, 1)
        dom = tr.call("logic.distance_dominating_set", distance_dominating_set, g, 1)
        fast, fast_witnesses = tr.call("logic.eval_basic_local", eval_basic_local,
                                       g, sentence, marked)
        expanded = tr.call("logic.expand_basic_local", expand_basic_local, sentence)
        slow = tr.call("logic.eval_naive", eval_naive, g, expanded, {}, marked)

        if values[0] != col:
            problems.append(("orders", f"wcol_1 = {values[0]}, coloring number {col}"))
        if any(a > b for a, b in zip(values, values[1:])):
            problems.append(("orders", f"wcol not nondecreasing in r: {values}"))
        if not values[-1] == td == game:
            problems.append(("orders", f"wcol_n = {values[-1]}, treedepth {td}, game {game}"))
        for r, (value, order) in enumerate(witnesses, start=1):
            got = tr.call("orders.wcol_of_order", wcol_of_order, g, order, r)
            if got != value:
                problems.append(("orders", f"witness order for r={r} gives {got}, claimed {value}"))
        bad = tr.call("orders.validate_elimination_forest", validate_elimination_forest,
                      g, forest, td)
        problems += [("orders", msg) for msg in bad]
        if model is not None:
            bad = tr.call("minors.verify_minor_model", verify_minor_model, g, k4, model)
            problems += [("minors", msg) for msg in bad]
        problems += _check_minimum_dominating(tr, g, dom)
        if fast != slow:
            problems.append(("logic", f"eval_basic_local {fast}, expansion {slow}"))

        record = {
            "wcol": [[v, list(order.perm)] for v, order in witnesses],
            "treedepth": [td, list(forest.parent)],
            "game_value": game,
            "k4_depth1_minor": model.to_json() if model is not None else None,
            "dominating_set": sorted(dom),
            "basic_local": [fast, fast_witnesses],
        }
        return emit(tr, record), problems
    return job


def _check_minimum_dominating(tr, g: Graph, dom) -> list:
    """dom dominates g at radius 1, and no smaller set does."""
    balls = []
    for v in range(g.n):
        mask = 0
        for w in tr.call("graph.ball", ball, g, v, 1):
            mask |= 1 << w
        balls.append(mask)
    full = (1 << g.n) - 1

    def covers(vs):
        mask = 0
        for v in vs:
            mask |= balls[v]
        return mask == full

    if not covers(dom):
        return [("logic", f"{sorted(dom)} does not dominate")]
    if any(covers(c) for c in combinations(range(g.n), len(dom) - 1)):
        return [("logic", f"a dominating set smaller than {len(dom)} exists")]
    return []
