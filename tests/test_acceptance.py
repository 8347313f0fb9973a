"""End-to-end acceptance sweeps for the whole toolbox.

Each test runs one property sweep at full stated scale, prints a single
PASS/FAIL summary line (visible with -s), and asserts zero violations.
"""

import random
import time

from conftest import gnp_graph
from oracles import (brute_dominating_number, dominating_formula,
                     naive_has_minor)
from test_logic import _random_local_property

from sparsekit.games import (ExhaustiveConnector, GameConfig,
                             GreedyBallConnector, RandomConnector, game_value,
                             play, wcol_splitter_strategy)
from sparsekit.graph import Graph
from sparsekit.graphio import (complete_graph, cycle_graph, gnd_graph,
                               grid_graph, path_graph, random_tree,
                               star_graph, subdivide)
from sparsekit.logic import (BasicLocalSentence, eval_basic_local, eval_naive,
                             expand_basic_local, to_text)
from sparsekit.minors import (density_report, find_depth_r_minor,
                              verify_minor_model)
from sparsekit.orders import (coloring_number, degeneracy_order,
                              identity_order, treedepth_exact, wcol_exact,
                              wcol_of_order)
from sparsekit.wideness import (balanced_separator, neighborhood_cover,
                                partition_cover, uqw_brute, uqw_extract,
                                validate_cover, validate_partition,
                                validate_separator, validate_uqw)


def report(name, violations, extra=""):
    status = "PASS" if not violations else "FAIL"
    line = f"[{status}] {name}"
    if extra:
        line += f" ({extra})"
    if violations:
        line += f" -- first: {violations[:3]}"
    print(line)
    assert not violations, violations[:5]


def test_chain_from_coloring_number_to_treedepth(corpus_small):
    t0 = time.perf_counter()
    violations = []
    for idx, g in enumerate(corpus_small):
        col, _ = coloring_number(g)
        values = [wcol_exact(g, r)[0] for r in range(1, g.n + 1)]
        td, _ = treedepth_exact(g)
        if values[0] != col:
            violations.append(f"graph {idx}: wcol_1 = {values[0]}, col = {col}")
        if any(a > b for a, b in zip(values, values[1:])):
            violations.append(f"graph {idx}: wcol not monotone: {values}")
        if values[-1] != td:
            violations.append(f"graph {idx}: wcol_n = {values[-1]}, td = {td}")
    dt = time.perf_counter() - t0
    if dt >= 300:
        violations.append(f"runtime {dt:.1f}s is over the 300s budget")
    report("weak coloring numbers interpolate col -> treedepth", violations,
           f"{len(corpus_small)} graphs, {dt:.1f}s")


def test_treedepth_game_value_equals_treedepth(corpus_small):
    violations = []
    for idx, g in enumerate(corpus_small):
        cfg = GameConfig(kind="treedepth", round_cap=max(g.n, 1))
        value = game_value(g, cfg)
        td, _ = treedepth_exact(g)
        if value != td:
            violations.append(f"graph {idx}: game value {value}, treedepth {td}")
    report("treedepth game value = treedepth", violations,
           f"{len(corpus_small)} graphs")


def test_wcol_splitter_beats_every_connector(corpus40):
    violations = []
    games = 0
    for idx, g in enumerate(corpus40):
        pi = degeneracy_order(g)
        for r in (1, 2):
            bound = wcol_of_order(g, pi, 2 * r)
            cfg = GameConfig(kind="splitter", radius=r, round_cap=bound)
            connectors = [GreedyBallConnector()]
            connectors += [RandomConnector(seed) for seed in range(10)]
            if g.n <= 10:
                connectors.append(ExhaustiveConnector())
            for co in connectors:
                t = play(g, cfg, wcol_splitter_strategy(pi, r), co)
                games += 1
                if t.winner != "splitter" or len(t.rounds) > bound:
                    violations.append(
                        f"graph {idx} r={r} vs {co.tag}: {t.winner} wins "
                        f"after {len(t.rounds)} rounds, bound {bound}")
    report("order-minimum splitter wins within its weak-coloring bound",
           violations, f"{games} games")


def test_neighborhood_cover_sweep(corpus40):
    violations = []
    for idx, g in enumerate(corpus40):
        pi = degeneracy_order(g)
        for r in (1, 2):
            cover = neighborhood_cover(g, r, pi)
            for v in validate_cover(g, cover):
                violations.append(f"graph {idx} r={r}: {v}")
            bound = wcol_of_order(g, pi, 2 * r)
            if cover.max_degree > bound:
                violations.append(
                    f"graph {idx} r={r}: degree {cover.max_degree} > {bound}")
    report("neighborhood covers validate with degree <= wcol_2r", violations,
           f"{len(corpus40)} graphs x r in (1,2)")


def test_partition_cover_sweep(corpus40):
    violations = []
    for idx, g in enumerate(corpus40):
        pi = degeneracy_order(g)
        for r in (1, 2):
            pc = partition_cover(g, r, pi)
            for v in validate_partition(g, pc):
                violations.append(f"graph {idx} r={r}: {v}")
            bound = wcol_of_order(g, pi, 4 * r + 1)
            if pc.n_parts > bound:
                violations.append(
                    f"graph {idx} r={r}: {pc.n_parts} parts > {bound}")
    report("partition covers validate with N <= wcol_{4r+1}", violations,
           f"{len(corpus40)} graphs x r in (1,2)")


def test_balanced_separator_families():
    graphs = [
        ("star100", star_graph(100)),
        ("star200", star_graph(200)),
        ("grid7x7", grid_graph(7, 7)),
        ("grid10x10", grid_graph(10, 10)),
        ("tree150", random_tree(150, seed=21)),
        ("tree200", random_tree(200, seed=22)),
        ("gnd150", gnd_graph(150, 3.0, seed=23)),
        ("gnd200", gnd_graph(200, 3.0, seed=24)),
    ]
    violations = []
    runs = 0
    for name, g in graphs:
        pi = degeneracy_order(g)
        for r in (1, 2):
            for eps in (0.5, 0.2, 0.1):
                # the construction checks only the separator it returns
                cert = balanced_separator(g, range(g.n), r, eps, pi)
                runs += 1
                for v in validate_separator(g, cert):
                    violations.append(f"{name} r={r} eps={eps}: {v}")
                if cert.worst_ball_fraction > eps:
                    violations.append(
                        f"{name} r={r} eps={eps}: worst fraction "
                        f"{cert.worst_ball_fraction:.3f}")
    report("balanced separators keep every residual ball under eps",
           violations, f"{runs} runs")


def test_uqw_soundness_and_guarantee(corpus40):
    violations = []
    checked = 0
    for idx, g in enumerate(corpus40):
        pi = degeneracy_order(g)
        for r in (1, 2):
            for m in (2, 3):
                cert = uqw_extract(g, range(g.n), r, m, pi)
                checked += 1
                for v in validate_uqw(g, cert):
                    violations.append(f"graph {idx} r={r} m={m}: {v}")
    # instances inside the guarantee regime (small weak-coloring bound,
    # target set large enough for the 4*(2cm)^c threshold)
    regime = [
        (path_graph(256), degeneracy_order(path_graph(256)), 1, 2),
        (path_graph(600), degeneracy_order(path_graph(600)), 1, 3),
        (star_graph(600), identity_order(600), 1, 3),
        (star_graph(600), identity_order(600), 2, 2),
    ]
    for g, pi, r, m in regime:
        cert = uqw_extract(g, range(g.n), r, m, pi)
        checked += 1
        if cert.wcol_bound > 2 or not cert.guarantee_applies:
            violations.append(
                f"regime instance n={g.n} r={r} m={m} fell outside the "
                f"guarantee (c={cert.wcol_bound})")
        if len(cert.S) > cert.wcol_bound or len(cert.B) < m:
            violations.append(
                f"regime instance n={g.n} r={r} m={m}: |S|={len(cert.S)} "
                f"|B|={len(cert.B)} breaks |S| <= c, |B| >= m")
        for v in validate_uqw(g, cert):
            violations.append(f"regime n={g.n} r={r} m={m}: {v}")
    # exhaustive ground truth confirms extractions on small instances; the
    # exhaustive search is capped at |S| <= 3, so only those are in range
    small = [path_graph(14), path_graph(18), cycle_graph(15), grid_graph(3, 5),
             star_graph(16), gnp_graph(16, 0.18, 42), gnp_graph(18, 0.12, 43)]
    confirmations = 0
    for g in small:
        pi = degeneracy_order(g)
        for r in (1, 2):
            cert = uqw_extract(g, range(g.n), r, 2, pi)
            checked += 1
            if len(cert.S) > 3:
                continue
            ref = uqw_brute(g, range(g.n), r, len(cert.B), s_max=len(cert.S))
            confirmations += 1
            if ref is None:
                violations.append(
                    f"n={g.n} r={r}: exhaustive search cannot reproduce "
                    f"|S|={len(cert.S)}, |B|={len(cert.B)}")
    if confirmations < 10:
        violations.append(
            f"only {confirmations} instances were exhaustively confirmable")
    report("quasi-wideness certificates verify; guarantee regime holds",
           violations, f"{checked} extractions, {confirmations} confirmed")


def test_local_evaluation_differential():
    rnd = random.Random(2026)
    violations = []
    pairs = 0
    while pairs < 500:
        n = rnd.randint(5, 20)
        style = rnd.random()
        if style < 0.4:
            g = gnp_graph(n, 2.0 / n, rnd.randint(0, 10 ** 6))
        elif style < 0.7:
            g = random_tree(n, rnd.randint(0, 10 ** 6))
        elif style < 0.85:
            g = cycle_graph(n)
        else:
            g = path_graph(n)
        r = rnd.randint(1, 2)
        k = rnd.randint(1, 3)
        if k == 3 and g.n > 12:
            continue  # keep the unexpanded reference evaluation affordable
        chi = _random_local_property(rnd, r)
        marked = frozenset(v for v in range(g.n) if rnd.random() < 0.25)
        s = BasicLocalSentence(k, r, chi, "x")
        fast = eval_basic_local(g, s, marked)[0]
        slow = eval_naive(g, expand_basic_local(s), {}, marked)
        if fast != slow:
            violations.append(
                f"n={g.n} k={k} r={r} chi={to_text(chi)!r}: "
                f"pipeline {fast}, expansion {slow}")
        pairs += 1
    domination_checks = 0
    for n in range(3, 13):
        g = cycle_graph(n)
        opt = brute_dominating_number(g, 1)
        for k in (1, 2, 3):
            got = eval_naive(g, dominating_formula(k), {})
            domination_checks += 1
            if got != (opt <= k):
                violations.append(
                    f"C_{n} k={k}: formula says {got}, optimum is {opt}")
    report("basic-local pipeline matches plain first-order semantics",
           violations, f"{pairs} random pairs + {domination_checks} "
           f"domination sentences")


def test_minor_search_completeness(atlas_graphs):
    patterns = [complete_graph(1), complete_graph(2), Graph(2, []),
                complete_graph(3), path_graph(3), Graph(3, [(0, 1)]),
                Graph(3, [])]
    hosts = list(atlas_graphs[::7])
    hosts += [path_graph(8), path_graph(9), cycle_graph(8), cycle_graph(9),
              grid_graph(3, 3), star_graph(9), complete_graph(5),
              gnp_graph(8, 0.3, 5), gnp_graph(9, 0.25, 6),
              Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])]
    violations = []
    comparisons = 0
    for gi, g in enumerate(hosts):
        for hi, h in enumerate(patterns):
            for r in (0, 1, 2):
                model = find_depth_r_minor(g, h, r, max_h=3, max_g=9)
                want = naive_has_minor(g, h, r)
                comparisons += 1
                if (model is not None) != want:
                    violations.append(
                        f"host {gi} (n={g.n}) pattern {hi} r={r}: search "
                        f"{'found' if model else 'missed'}, oracle says "
                        f"{'present' if want else 'absent'}")
                elif model is not None:
                    for v in verify_minor_model(g, h, model):
                        violations.append(f"host {gi} pattern {hi} r={r}: {v}")
    recoveries = 0
    for m in (2, 3, 4):
        for r in (1, 2, 3, 4):
            sub = subdivide(complete_graph(m), r)
            depth = (r + 1) // 2
            model = find_depth_r_minor(sub, complete_graph(m), depth,
                                       max_h=m, max_g=sub.n)
            recoveries += 1
            if model is None:
                violations.append(
                    f"K_{m} not recovered from its {r}-subdivision "
                    f"at depth {depth}")
    report("minor search is complete at small scale", violations,
           f"{comparisons} oracle comparisons + {recoveries} recoveries")


def test_subdivided_clique_obstruction():
    violations = []
    sizes = []
    for n in (6, 10, 14):
        g = subdivide(complete_graph(n), 1)
        pi = degeneracy_order(g)
        cert = balanced_separator(g, range(g.n), 2, 0.5, pi)
        for v in validate_separator(g, cert):
            violations.append(f"subdivided K_{n}: {v}")
        sizes.append(len(cert.S))
        rep = density_report(g, 1, seed=7)
        if rep.density < (n - 1) / 2:
            violations.append(
                f"subdivided K_{n}: depth-1 density {rep.density:.3f} "
                f"below {(n - 1) / 2}")
    if not sizes[0] < sizes[1] < sizes[2]:
        violations.append(f"separator sizes do not grow: {sizes}")
    report("subdivided cliques force large separators and high density",
           violations, f"sizes {sizes}")
