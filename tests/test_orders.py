import ast
import hashlib
import itertools
import random
from pathlib import Path

import pytest

import oracles
from conftest import gnp_graph
from oracles import (brute_treedepth, brute_wcol, check_separation,
                     dfs_preorder, naive_wreach, naive_wreach_radii)
from sparsekit.errors import CapabilityError, GraphInputError, PreconditionError
from sparsekit.graph import Graph, induced_subgraph, iter_bits
from sparsekit.graphio import (complete_graph, cycle_graph, gnd_graph,
                               grid_graph, path_graph, random_tree, star_graph,
                               subdivide)
from sparsekit.orders import (ORDER_NAMES, EliminationForest, OrderWitness,
                              VertexOrder, WReachTable, _completion_floor,
                              _TreedepthSearch, build_order,
                              coloring_number, degeneracy_order,
                              greedy_wreach_order, identity_order,
                              treedepth_exact, validate_elimination_forest,
                              validate_order_witness, wcol_exact, wcol_of_order,
                              wreach_sets)


def test_vertex_order_validation():
    o = VertexOrder((2, 0, 1))
    assert o.rank == (1, 2, 0)
    assert o == VertexOrder([2, 0, 1])
    with pytest.raises(GraphInputError):
        VertexOrder((0, 0, 1))
    with pytest.raises(GraphInputError):
        VertexOrder((0, 3))


def test_wreach_matches_path_enumeration(atlas_graphs):
    # every connected graph on <= 5 vertices, several orders, r up to n
    for g in (g for g in atlas_graphs if g.n <= 5):
        for order in (identity_order(g.n), degeneracy_order(g)):
            for r in range(1, g.n + 1):
                sets = wreach_sets(g, order, r)
                for v in range(g.n):
                    assert sets[v] == naive_wreach(g, order, r, v)


def _assert_table_is_fresh(table, g, order, r):
    """The table equals a fresh wreach_sets on the subgraph induced by its
    alive vertices, under the order restricted to them."""
    alive = set(table.sets)
    sub, old_ids = induced_subgraph(g, alive)
    new_id = {v: i for i, v in enumerate(old_ids)}
    restricted = VertexOrder(new_id[v] for v in order.perm if v in new_id)
    fresh = wreach_sets(sub, restricted, r)
    assert table.sets == {old_ids[i]: {old_ids[j] for j in s} for i, s in fresh.items()}


def test_wreach_table_deletions_match_a_fresh_table(corpus_small):
    graphs = corpus_small[::25] + [grid_graph(6, 6), random_tree(40, seed=3)]
    rng = random.Random(20191)
    for g in graphs:
        for order in (degeneracy_order(g), identity_order(g.n)):
            for r in range(1, 5):
                table = WReachTable(g, order, r)
                sequence = list(range(g.n))
                rng.shuffle(sequence)
                for u in sequence:
                    table.delete(u)
                    _assert_table_is_fresh(table, g, order, r)
                assert table.sets == {}
                # a rollback restores the table as built, rank included,
                # and it updates on its own again afterwards
                table.rollback()
                fresh = WReachTable(g, order, r)
                assert (table.sets, table.rank) == (fresh.sets, fresh.rank)
                for u in sequence[:-4:-1]:
                    table.delete(u)
                    _assert_table_is_fresh(table, g, order, r)
                table.rollback()
                assert (table.sets, table.rank) == (fresh.sets, fresh.rank)


def test_wreach_table_keeps_only_the_weak_reach_sets():
    # the table once kept every backward search's cluster beside the sets,
    # their inversion: 13.1 MB here, against 6.5 MB for the sets alone
    import tracemalloc
    g = gnd_graph(2000, 3.0, seed=1)
    pi = degeneracy_order(g)
    tracemalloc.start()
    try:
        table = WReachTable(g, pi, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_500_000, peak
    assert table.wcol() == wcol_of_order(g, pi, 5)


def test_wcol_of_order_frozen_values():
    cases = [
        (path_graph(5), 1, 2), (path_graph(5), 2, 3), (path_graph(5), 3, 4),
        (cycle_graph(8), 1, 3), (cycle_graph(8), 2, 4), (cycle_graph(8), 3, 5),
        (complete_graph(5), 1, 5), (complete_graph(5), 3, 5),
    ]
    for g, r, want in cases:
        assert wcol_of_order(g, identity_order(g.n), r) == want


def test_identity_order_on_star_is_optimal():
    # center first: every leaf weakly reaches only itself and the center
    s = star_graph(10)
    assert wcol_of_order(s, identity_order(s.n), 2) == 2


def test_wcol_exact_matches_permutation_brute():
    cases = [path_graph(5), cycle_graph(5), cycle_graph(6),
             star_graph(6), complete_graph(4)]
    for g in cases:
        for r in (1, 2, 3):
            value, order = wcol_exact(g, r)
            assert value == brute_wcol(g, r)
            assert wcol_of_order(g, order, r) == value


def test_wcol_exact_frozen_values():
    assert wcol_exact(path_graph(5), 2)[0] == 3
    assert wcol_exact(path_graph(5), 3)[0] == 3
    assert wcol_exact(cycle_graph(6), 2)[0] == 3
    assert wcol_exact(cycle_graph(6), 3)[0] == 4
    assert wcol_exact(star_graph(6), 3)[0] == 2


def test_completion_floor_never_exceeds_the_best_completion():
    # for random prefixes of random graphs, the floor is at most the largest
    # final wreach set among the unplaced vertices in every completion, each
    # set found by path enumeration (oracles.naive_wreach)
    rng = random.Random(2019)
    tight = above_counts = 0
    for case in range(160):
        n = rng.randint(2, 7)
        g = gnp_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=case)
        r = rng.randint(1, 3)
        perm = list(range(n))
        rng.shuffle(perm)
        prefix = perm[:rng.randint(max(0, n - 5), n - 1)]
        unplaced = [v for v in range(n) if v not in prefix]
        # the placed vertices each unplaced one weakly reaches are the same in
        # every completion, since all of them rank below every unplaced vertex
        counts = [0] * n
        for w in unplaced:
            counts[w] = len(naive_wreach(g, VertexOrder(prefix + unplaced), r, w)
                            & set(prefix))
        best = min(max(len(naive_wreach(g, VertexOrder(prefix + list(rest)), r, w))
                       for w in unplaced)
                   for rest in itertools.permutations(unplaced))
        floor = _completion_floor(g.adjacency_masks(), counts,
                                  sum(1 << w for w in unplaced))
        assert floor <= best, (g, r, prefix)
        tight += floor == best
        above_counts += floor > max(counts[w] + 1 for w in unplaced)
    # the floor is often exact, and often above the bound the search had before
    assert tight > 120 and above_counts > 50, (tight, above_counts)


def test_completion_floor_without_counts_is_degeneracy_plus_one(corpus_small):
    # the treedepth search takes its degeneracy bound from the floor; the
    # coloring number comes from the heap-based degeneracy order instead
    rng = random.Random(19)
    for g in corpus_small:
        masks, zeros = g.adjacency_masks(), [0] * g.n
        for _ in range(4):
            mask = rng.getrandbits(g.n)
            sub = induced_subgraph(g, iter_bits(mask))[0]
            assert _completion_floor(masks, zeros, mask) == coloring_number(sub)[0], (g, mask)


def test_completion_floor_stops_at_enough():
    # below `enough` the floor is the full one; at or above it, the early
    # stop returns some floor between `enough` and the full one
    rng = random.Random(2020)
    for case in range(300):
        n = rng.randint(1, 9)
        g = gnp_graph(n, rng.choice((0.3, 0.5, 0.7)), seed=case)
        unplaced = rng.randrange(1, 1 << n)
        counts = [rng.randint(0, 3) for _ in range(n)]
        full = _completion_floor(g.adjacency_masks(), counts, unplaced)
        for enough in range(1, full + 3):
            got = _completion_floor(g.adjacency_masks(), counts, unplaced, enough)
            if full < enough:
                assert got == full
            else:
                assert enough <= got <= full


def test_wcol_exact_cap():
    with pytest.raises(CapabilityError) as e:
        wcol_exact(path_graph(12), 2, cap=10)
    assert e.value.cap_name == "wcol_exact"


def test_wcol_exact_of_the_empty_graph():
    for r in (0, 1, 3):
        assert wcol_exact(Graph(0, []), r) == (0, VertexOrder(()))
    # the radius floor does not depend on the graph: an empty one once
    # answered r = -1 with an order witness that verify refuses
    with pytest.raises(PreconditionError, match="^r must be >= 0, got -1$"):
        wcol_exact(Graph(0, []), -1)


def test_degeneracy_order_and_coloring_number():
    # grid is 2-degenerate, so col = 3 with the degeneracy order
    g = grid_graph(3, 3)
    value, order = coloring_number(g)
    assert value == 3
    assert wcol_of_order(g, order, 1) == 3
    assert coloring_number(star_graph(9))[0] == 2
    assert coloring_number(complete_graph(5))[0] == 5


def test_greedy_wreach_order_is_valid_and_competitive():
    g = subdivide(complete_graph(6), 2)
    o = greedy_wreach_order(g, 2)
    assert sorted(o.perm) == list(range(g.n))
    # heuristics give honest upper bounds; frozen values for this instance
    assert wcol_of_order(g, degeneracy_order(g), 2) == 6
    assert wcol_of_order(g, o, 2) == 11


# sha256 of the comma-joined perm of greedy_wreach_order(g, r), as the
# set-based search through the placed suffix returned it.
PINNED_GREEDY_ORDERS = {
    ("grid8", 1): "e127f38b21b822b3d567764a7b0afdda05f352d80c1d3822700363d082645268",
    ("grid8", 2): "2476f9d66b65318e1f9aa823a642e4c6502bde564ac8d8f4250c4bad723699f6",
    ("grid8", 3): "de668c05f8731ae7037f02f2c0a97dd7f52a1778f6b948ed1fedf240b758b79e",
    ("tree100", 1): "d1ae864b4bac96edc6cab7418aa7c8a8022cddc85dedb66c306a5b74e9db12fb",
    ("tree100", 2): "49cfa835e4270f56789421914a97dc3d81d65ef94580367ba6b506c238e0d506",
    ("tree100", 3): "a7bf76b01523f2dde84897a287b90b75ccb15881105084947ad872599fcb2b5a",
    ("gnd150", 1): "63c885bb9930527e711229678094cf059018f85dbea7be2f7eaa0f3f75657319",
    ("gnd150", 2): "d5047e9359cf6447e0e3d2245c51219b81b5c53e752feaf7b10c398a2f9f985e",
    ("gnd150", 3): "3d2be4b3810ac42352b4788efdd5cda87e1e6260f5009acb40d5c3a11c661625",
    ("gnd500", 2): "0dd4fc4041b8dd65a718fc73e6d5240f2cc57db9896aa48610198479b0dd1b36",
}


def test_greedy_orders_pinned():
    graphs = {"grid8": grid_graph(8, 8), "tree100": random_tree(100, seed=1),
              "gnd150": gnd_graph(150, 3.0, seed=1), "gnd500": gnd_graph(500, 3.0, seed=1)}
    for (name, r), want in PINNED_GREEDY_ORDERS.items():
        perm = greedy_wreach_order(graphs[name], r).perm
        assert hashlib.sha256(",".join(map(str, perm)).encode()).hexdigest() == want, (name, r)


def test_greedy_order_matches_the_full_rescan():
    graphs = [gnd_graph(n, 3.0, seed=n) for n in range(10, 70, 5)]
    graphs += [random_tree(n, seed=n) for n in range(8, 80, 6)]
    graphs += [grid_graph(a, b) for a, b in ((2, 9), (3, 3), (4, 6), (5, 5), (6, 7))]
    graphs += [cycle_graph(n) for n in (3, 4, 9, 16, 31)]
    graphs += [gnd_graph(60, 6.0, seed=s) for s in range(4)]
    graphs += [Graph(0, []), Graph(3, []), star_graph(12)]
    assert len(graphs) >= 40
    for g in graphs:
        for r in (0, 1, 2, 3):
            assert greedy_wreach_order(g, r) == oracles.greedy_wreach_order(g, r), (g, r)


def test_greedy_order_search_count(monkeypatch):
    # placing a vertex re-scores only the unplaced vertices near it, not all
    # of them: n(n+1)/2 = 125,250 searches would be a full rescan per step
    import sparsekit.orders as orders
    g = gnd_graph(500, 3.0, seed=1)
    calls = []

    def counting(*args):
        calls.append(1)
        return reach_above(*args)

    reach_above = orders._reach_above
    monkeypatch.setattr(orders, "_reach_above", counting)
    greedy_wreach_order(g, 2)
    assert 0 < len(calls) < 20_000


# sha256 of the comma-joined perm of degeneracy_order(g), as the min-over-a-set
# removal loop returned it.
PINNED_DEGENERACY_ORDERS = {
    "gnd300": "8551ef43206168a4557ed0950b5db33d209871dde4fdcb342dcaa2234a13037e",
    "tree300": "83eb52b84c2d24d537cdafc5491499b462b70a712c72ab9bd9c232dc22a92b18",
    "grid12": "ae98039055cd36323ec4899de3c255fa01175852765ff8ecd2fb82b48101b47e",
}


def test_degeneracy_orders_pinned():
    graphs = {"gnd300": gnd_graph(300, 3.0, seed=1), "tree300": random_tree(300, seed=1),
              "grid12": grid_graph(12, 12)}
    for name, want in PINNED_DEGENERACY_ORDERS.items():
        perm = degeneracy_order(graphs[name]).perm
        assert hashlib.sha256(",".join(map(str, perm)).encode()).hexdigest() == want, name


def test_wcol_heuristic_strategies():
    g = cycle_graph(12)
    assert build_order(g, "degeneracy", 2) == degeneracy_order(g)
    assert build_order(g, "greedy", 2) == greedy_wreach_order(g, 2)
    assert build_order(g, "identity", 2) == identity_order(12)
    assert ORDER_NAMES == ("degeneracy", "greedy", "identity")
    with pytest.raises(PreconditionError):
        build_order(g, "greedy_wreach", 2)


def test_trees_have_wcol_r_plus_one():
    t = subdivide(star_graph(5), 2)
    for r in (1, 2, 3, 4):
        o = dfs_preorder(t)
        assert wcol_of_order(t, o, r) <= r + 1


def test_treedepth_exact_frozen_and_brute():
    cases = [
        (path_graph(7), 3), (path_graph(10), 4), (cycle_graph(6), 4),
        (cycle_graph(12), 5), (complete_graph(5), 5), (star_graph(10), 2),
        (grid_graph(3, 3), 5), (Graph(1, []), 1), (Graph(0, []), 0),
    ]
    for g, want in cases:
        value, forest = treedepth_exact(g)
        assert value == want
        assert brute_treedepth(g) == want
        assert validate_elimination_forest(g, forest, claimed=value) == []


def test_treedepth_search_is_exact_below_its_bound_and_a_lower_bound_above():
    # td(mask, ub) against brute force, for every ub, on fresh searches and on
    # one search whose memos carry over from bound to bound in random order;
    # every memo entry then holds for its own induced subgraph
    rng = random.Random(4)
    graphs = ([gnp_graph(n, p, seed=40 + n) for n in range(3, 9) for p in (0.3, 0.6)]
              + [path_graph(8), cycle_graph(7), grid_graph(2, 4), star_graph(6)])
    for g in graphs:
        want = brute_treedepth(g)
        full = (1 << g.n) - 1
        shared = _TreedepthSearch(g)
        ubs = list(range(1, g.n + 2))
        rng.shuffle(ubs)
        for ub in ubs:
            for search in (_TreedepthSearch(g), shared):
                got = search.td(full, ub)
                if want < ub:
                    assert got == want, (g, ub)
                else:
                    assert ub <= got <= want, (g, ub)
        for mask, (value, root) in shared.exact.items():
            sub = induced_subgraph(g, [v for v in range(g.n) if mask >> v & 1])[0]
            assert value == brute_treedepth(sub), (g, mask)
        for mask, bound in shared.lower.items():
            sub = induced_subgraph(g, [v for v in range(g.n) if mask >> v & 1])[0]
            assert bound <= brute_treedepth(sub), (g, mask)


def test_treedepth_cap():
    with pytest.raises(CapabilityError):
        treedepth_exact(grid_graph(4, 4), cap=15)


def test_validate_elimination_forest_rejects_bad_witnesses():
    g = path_graph(4)
    # edge (1,2) not on an ancestor chain
    bad = EliminationForest((-1, 0, -1, 2))
    assert validate_elimination_forest(g, bad) != []
    # cycle in the parent pointers
    with_cycle = EliminationForest((1, 0, -1, 2))
    assert validate_elimination_forest(g, with_cycle) != []
    # claimed depth smaller than the real depth
    value, forest = treedepth_exact(g)
    assert validate_elimination_forest(g, forest, claimed=value - 1) != []
    assert EliminationForest.from_json(forest.to_json()) == forest


def test_forest_validator_matches_the_chain_walk():
    # forged parent maps (cycles, self-loops, unrelated branches, wrong
    # depths) and valid forests get the messages, in the order, of the
    # whole-chain walk in oracles.naive_forest_violations
    rng = random.Random(453)
    seen_cycle = seen_edge = seen_depth = 0
    for case in range(400):
        n = rng.randint(1, 9)
        g = gnp_graph(n, rng.choice((0.2, 0.4, 0.7)), seed=case)
        if case % 3:
            parent = [rng.choice([-1] + list(range(n))) for _ in range(n)]
        else:
            parent = list(treedepth_exact(g)[1].parent)
            if case % 2 and n > 1:
                parent[rng.randrange(n)] = rng.choice([-1] + list(range(n)))
        claimed = rng.choice((None, rng.randint(0, n + 1)))
        got = validate_elimination_forest(g, EliminationForest(tuple(parent)), claimed)
        assert got == oracles.naive_forest_violations(g, parent, claimed), (g, parent)
        seen_cycle += any("cycle" in m for m in got)
        seen_edge += any("unrelated" in m for m in got)
        seen_depth += any("claimed depth" in m for m in got)
    assert min(seen_cycle, seen_edge, seen_depth) > 20, (seen_cycle, seen_edge, seen_depth)


def test_forest_validator_and_depth_are_linear_on_a_deep_forest():
    # a 20000-vertex path eliminated from one end: depth 20000, one chain
    n = 20000
    g = path_graph(n)
    forest = EliminationForest((-1,) + tuple(range(n - 1)))
    assert validate_elimination_forest(g, forest, claimed=n) == []
    assert validate_elimination_forest(g, forest, claimed=15) == [
        f"claimed depth 15, forest depth {n}"]
    looped = EliminationForest((n - 1,) + tuple(range(n - 1)))
    assert validate_elimination_forest(g, looped) == ["parent cycle reached from 0"]


def test_check_separation():
    # vacuously true: no 0-5 path of length <= 2 exists at all
    assert check_separation(path_graph(6), identity_order(6), 2, 0, 5)
    # non-vacuous: the only 0-4 path passes the common weakly-reachable vertex 2
    assert check_separation(path_graph(5), VertexOrder((2, 0, 1, 3, 4)), 4, 0, 4)
    # the lemma needs the earlier endpoint out of the later one's reach set
    with pytest.raises(ValueError):
        check_separation(path_graph(6), identity_order(6), 5, 0, 5)
    with pytest.raises(ValueError):
        check_separation(path_graph(6), identity_order(6), 2, 3, 3)


def test_check_separation_holds_everywhere(atlas_graphs):
    # it verifies a theorem, so it never returns False on qualifying inputs
    for g in [g for g in atlas_graphs if g.n == 6][::7]:
        for order in (identity_order(g.n), degeneracy_order(g)):
            for r in (1, 2, 3):
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        try:
                            assert check_separation(g, order, r, u, v)
                        except ValueError:
                            pass


def test_wreach_rejects_foreign_order():
    with pytest.raises(GraphInputError):
        wreach_sets(path_graph(3), identity_order(4), 1)


def test_witness_checks_raise_without_assert(monkeypatch):
    import sparsekit.orders as orders
    from sparsekit.errors import AlgorithmStallError
    real = orders.wcol_of_order
    # off by one everywhere: at r = 1 the degeneracy order claims 4, its
    # (forged) col, so no search runs and the validator refuses the claim
    monkeypatch.setattr(orders, "wcol_of_order",
                        lambda g, order, r: real(g, order, r) + 1)
    with pytest.raises(AlgorithmStallError) as e:
        wcol_exact(grid_graph(3, 3), 1)
    assert e.value.state == {"r": 1, "claimed": 4,
                             "violations": ["order achieves wcol_1 = 3, claimed 4"]}
    # at r = 2 the heuristic orders claim 7 and 6 against a claimed col of 4,
    # so the search runs and finds the true optimum 4, which the validator,
    # sharing no code with wcol_of_order, accepts
    assert wcol_exact(grid_graph(3, 3), 2)[0] == 4
    monkeypatch.setattr(orders, "validate_order_witness", lambda g, cert: ["forged violation"])
    with pytest.raises(AlgorithmStallError) as e:
        wcol_exact(grid_graph(3, 3), 2)
    assert e.value.state == {"r": 2, "claimed": 4, "violations": ["forged violation"]}
    monkeypatch.setattr(orders, "validate_elimination_forest",
                        lambda g, forest, claimed=None: ["forged violation"])
    with pytest.raises(AlgorithmStallError) as e:
        treedepth_exact(path_graph(4))
    assert e.value.state == {"claimed": 3, "violations": ["forged violation"]}


def _library_nodes():
    """(file name, node) for every syntax node of the library's modules."""
    import sparsekit
    for path in sorted(Path(sparsekit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so invariant checks must raise
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _raised_by(exc: str) -> list:
    """(file name, innermost enclosing function) of every call `exc(...)` in
    the library, errors.py aside."""
    where = {}
    for name, node in _library_nodes():
        if name != "errors.py" and isinstance(node, (ast.FunctionDef, ast.Module)):
            # ast.walk goes outer functions first, so an inner one overwrites
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == exc):
                    where[id(call)] = (name, getattr(node, "name", None))
    return sorted(where.values())


def test_caps_and_self_checks_raise_only_through_errors_py():
    # every cap goes through errors.require_at_most, every self-check through
    # errors.raise_if_invalid; only the four progress stalls raise their own
    assert _raised_by("CapabilityError") == []
    assert _raised_by("AlgorithmStallError") == [
        ("graph.py", "least_independent"), ("logic.py", "_greedy_domination"),
        ("wideness.py", "_exchange"), ("wideness.py", "_extract")]


def test_no_floor_is_refused_by_hand():
    # a PreconditionError whose message states a floor belongs to
    # errors.require_at_least
    found = []
    for name, node in _library_nodes():
        if (name != "errors.py" and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "PreconditionError"):
            text = "".join(c.value for arg in node.args for c in ast.walk(arg)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if ">=" in text:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_library_has_no_bin_calls():
    # popcounts use int.bit_count, not bin(x).count("1")
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "bin"]
    assert found == []


# (graph, [(wcol_r, witness order) for r = 1..n]) as the search without a
# transposition table returned them; the table must not change any of them.
PINNED_WITNESSES = [
    (cycle_graph(6), [
        (3, (5, 4, 3, 2, 1, 0)),
        (3, (5, 3, 1, 4, 2, 0)),
        (4, (5, 3, 1, 4, 2, 0)),
        (4, (5, 3, 1, 4, 2, 0)),
        (4, (5, 3, 1, 4, 2, 0)),
        (4, (5, 3, 1, 4, 2, 0)),
    ]),
    (cycle_graph(7), [
        (3, (6, 5, 4, 3, 2, 1, 0)),
        (4, (6, 5, 4, 3, 2, 1, 0)),
        (4, (6, 3, 5, 1, 4, 2, 0)),
        (4, (6, 3, 5, 1, 4, 2, 0)),
        (4, (6, 3, 5, 1, 4, 2, 0)),
        (4, (6, 3, 5, 1, 4, 2, 0)),
        (4, (6, 3, 5, 1, 4, 2, 0)),
    ]),
    (cycle_graph(8), [
        (3, (7, 6, 5, 4, 3, 2, 1, 0)),
        (3, (7, 3, 5, 1, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 6, 4, 2, 0)),
    ]),
    (cycle_graph(9), [
        (3, (8, 7, 6, 5, 4, 3, 2, 1, 0)),
        (4, (8, 7, 6, 5, 4, 3, 2, 1, 0)),
        (4, (0, 1, 3, 2, 4, 6, 5, 7, 8)),
        (5, (8, 7, 3, 5, 1, 6, 4, 2, 0)),
        (5, (8, 7, 3, 5, 1, 6, 4, 2, 0)),
        (5, (8, 7, 3, 5, 1, 6, 4, 2, 0)),
        (5, (8, 7, 3, 5, 1, 6, 4, 2, 0)),
        (5, (8, 7, 3, 5, 1, 6, 4, 2, 0)),
        (5, (8, 7, 3, 5, 1, 6, 4, 2, 0)),
    ]),
    (path_graph(9), [
        (2, (8, 7, 6, 5, 4, 3, 2, 1, 0)),
        (3, (8, 7, 6, 5, 4, 3, 2, 1, 0)),
        (3, (4, 2, 1, 0, 3, 6, 5, 7, 8)),
        (4, (7, 3, 5, 1, 8, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 8, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 8, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 8, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 8, 6, 4, 2, 0)),
        (4, (7, 3, 5, 1, 8, 6, 4, 2, 0)),
    ]),
    (grid_graph(3, 3), [
        (3, (8, 7, 5, 4, 6, 3, 2, 1, 0)),
        (4, (0, 2, 4, 1, 6, 3, 8, 5, 7)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
        (5, (7, 5, 3, 1, 8, 6, 4, 2, 0)),
    ]),
    (star_graph(7), [
        (2, (6, 0, 5, 4, 3, 2, 1)),
        (2, (0, 1, 2, 3, 4, 5, 6)),
        (2, (0, 1, 2, 3, 4, 5, 6)),
        (2, (0, 1, 2, 3, 4, 5, 6)),
        (2, (0, 1, 2, 3, 4, 5, 6)),
        (2, (0, 1, 2, 3, 4, 5, 6)),
        (2, (0, 1, 2, 3, 4, 5, 6)),
    ]),
    (complete_graph(5), [
        (5, (4, 3, 2, 1, 0)),
        (5, (4, 3, 2, 1, 0)),
        (5, (4, 3, 2, 1, 0)),
        (5, (4, 3, 2, 1, 0)),
        (5, (4, 3, 2, 1, 0)),
    ]),
    (subdivide(complete_graph(4), 1), [
        (3, (9, 3, 8, 2, 7, 1, 6, 5, 0, 4)),
        (4, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
        (5, (0, 1, 2, 3, 6, 8, 9, 5, 7, 4)),
    ]),
    (random_tree(9, seed=3), [
        (2, (8, 1, 5, 7, 0, 6, 4, 3, 2)),
        (3, (8, 1, 5, 7, 0, 6, 4, 3, 2)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
        (3, (1, 2, 5, 4, 7, 6, 0, 3, 8)),
    ]),
    (Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)]), [
        (3, (6, 5, 4, 3, 2, 1, 0)),
        (4, (0, 1, 4, 2, 3, 5, 6)),
        (4, (1, 4, 0, 2, 5, 3, 6)),
        (4, (1, 4, 0, 2, 5, 3, 6)),
        (4, (1, 4, 0, 2, 5, 3, 6)),
        (4, (1, 4, 0, 2, 5, 3, 6)),
        (4, (1, 4, 0, 2, 5, 3, 6)),
    ]),
    (Graph(8, [(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 4), (0, 2)]), [
        (3, (7, 3, 4, 2, 0, 6, 5, 1)),
        (4, (0, 1, 2, 6, 3, 7, 4, 5)),
        (4, (0, 2, 1, 5, 6, 3, 4, 7)),
        (4, (0, 2, 1, 5, 6, 3, 4, 7)),
        (4, (0, 2, 1, 5, 6, 3, 4, 7)),
        (4, (0, 2, 1, 5, 6, 3, 4, 7)),
        (4, (0, 2, 1, 5, 6, 3, 4, 7)),
        (4, (0, 2, 1, 5, 6, 3, 4, 7)),
    ]),
]


def test_wcol_exact_witness_orders_pinned():
    for g, rows in PINNED_WITNESSES:
        got = [(v, o.perm) for v, o in (wcol_exact(g, r) for r in range(1, g.n + 1))]
        assert got == rows


# G(n, p) graphs of 8-10 vertices for the witness pins below, three seeds per
# (n, p) cell.
PIN_GNP = [gnp_graph(n, p, seed=700 + 10 * n + i)
           for n in (8, 9, 10) for p in (0.25, 0.4, 0.6) for i in range(3)]
PIN_GRIDS = [grid_graph(2, 4), grid_graph(2, 5), grid_graph(3, 3)]

# sha256 of the witness rows of every graph of a set, one line per graph: the
# repr of [(wcol_r, witness perm) for r = 1..n] from wcol_exact.  Taken before
# the completion floor was added to the search; no prune may change them.
PINNED_WITNESS_DIGESTS = {
    "corpus_small": "a03f22bc74b665a2ef443f9e1f32d832d15d4d733d28cd587d9fbe243b25abc2",
    "gnp": "c5653696fd9ad3d6fd25121960518f2079cb25a7f6daed86c324385a7bf41e66",
    "grids": "f8831dcb5cc543525a4709ed2382f3bdb9aba0bc728e9bb26f04e978c9893234",
}


def _witness_digest(graphs) -> str:
    lines = (repr([(v, o.perm) for v, o in (wcol_exact(g, r) for r in range(1, g.n + 1))])
             for g in graphs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_WITNESS_DIGESTS))
def test_wcol_exact_witness_digests_pinned(name, request):
    graphs = {"gnp": PIN_GNP, "grids": PIN_GRIDS}.get(name)
    if graphs is None:
        graphs = request.getfixturevalue(name)
    assert _witness_digest(graphs) == PINNED_WITNESS_DIGESTS[name]


def _exact_small_gnp(seed: int) -> list:
    """The G(n, p) graphs of the `exact_small` benchmark corpus for a seed,
    drawn as perfbench/exact_small.py draws them."""
    rng = random.Random(seed)
    out = []
    for n in range(5, 8):
        for p in (0.3, 0.5):
            for _ in range({5: 10, 6: 50, 7: 60}[n]):
                out.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p]))
    return out


FOREST_SETS = {
    "exact_small": lambda: [g for s in (1, 2, 3) for g in _exact_small_gnp(s)],
    "grids": lambda: [grid_graph(3, c) for c in (3, 4, 5)],
    "trees": lambda: [random_tree(n, seed=300 + n) for n in range(2, 16)],
    "gnp": lambda: [gnp_graph(n, p, seed=800 + 10 * n)
                    for n in range(10, 16) for p in (0.2, 0.35, 0.5)],
}

# sha256 of the repr of (value, forest parents) from treedepth_exact, one line
# per graph.  Taken before the search was given its bounds; no cut may change
# which root a node keeps.
PINNED_FORESTS = {
    "corpus_small": "5459bbe982dcbba0249ebcfa0324fe790a8cf3e965c70a41ba3bcdad2817b7f3",
    "exact_small": "afa3a826fdbb022a715ebed201eb8c534697b568ae5d04c05a759f577ab9c540",
    "grids": "418861a68a1b397dfc8f31d984d9eea94d3e29165725b667b583ee74fecee326",
    "trees": "475242a718e00d78ec79399e2863da00dd13d16e006630d24645068956ba63d8",
    "gnp": "43baa7c392b379c6d9f57d150985af7c8d8497b0197b1b6b9fa3313a35a585cc",
}


@pytest.mark.parametrize("name", sorted(PINNED_FORESTS))
def test_treedepth_forests_pinned(name, request):
    graphs = FOREST_SETS[name]() if name in FOREST_SETS else request.getfixturevalue(name)
    lines = []
    for g in graphs:
        value, forest = treedepth_exact(g)
        lines.append(repr((value, forest.parent)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_FORESTS[name]


def test_order_witness_validator_recounts_wcol_on_its_own(corpus_small):
    # validate_order_witness counts weak reach with its own searches; it
    # must agree with wcol_of_order and with path enumeration, on every
    # graph, order and radius.  The enumeration runs once per vertex, at
    # r = n, and keeps each member's least radius
    for g in corpus_small:
        for perm in {build_order(g, name, 2).perm for name in ORDER_NAMES}:
            order = VertexOrder(perm)
            radii = [naive_wreach_radii(g, order, v) for v in range(g.n)]
            for r in range(1, g.n + 1):
                value = wcol_of_order(g, order, r)
                naive = max(sum(d <= r for d in rv.values()) for rv in radii)
                assert naive == value, (g, perm, r)
                assert validate_order_witness(g, OrderWitness(r, value, perm)) == []
                assert validate_order_witness(g, OrderWitness(r, value + 1, perm)) == [
                    f"order achieves wcol_{r} = {value}, claimed {value + 1}"]
            # a radius far above n costs what r = n does: each search stops
            # once it reaches nothing new
            top = wcol_of_order(g, order, g.n)
            assert validate_order_witness(g, OrderWitness(10**9, top, perm)) == []


def test_order_witness_of_another_length_is_a_violation_before_parsing():
    # the length is measured first, so an order that is no permutation of
    # range(its length) still fails verification rather than parsing
    g = path_graph(4)
    assert validate_order_witness(g, OrderWitness.from_json(
        {"r": 1, "value": 2, "order": [0, 5]})) == ["order on 2 vertices, graph has 4"]
    with pytest.raises(GraphInputError):
        validate_order_witness(g, OrderWitness(1, 2, [0, 1, 2, 2]))
    doc = {"r": 2, "value": 2, "order": [3, 2, 1, 0]}
    assert OrderWitness.from_json(doc).to_json() == doc  # `optimal` may be absent
