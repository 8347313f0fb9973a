import hashlib
import itertools
import math
import random
import tracemalloc

import pytest

from oracles import (brute_distance_independent, brute_dominating_number,
                     dominating_formula, naive_eval)
from sparsekit.errors import (CapabilityError, FormulaParseError,
                              FormulaScopeError, LocalityError,
                              PreconditionError)
from sparsekit.graph import Graph, ball
from sparsekit.graphio import (complete_graph, cycle_graph, gnd_graph,
                               grid_graph, path_graph, random_tree,
                               star_graph)
from sparsekit.logic import (And, BasicLocalSentence, DistLe, Edge, Eq, Lit,
                             Not, Or, Pred, Quant, distance_dominating_set,
                             distance_independent_set, eval_basic_local,
                             eval_naive, expand_basic_local, free_vars,
                             INDEPENDENT_K_CAP, locality_violations,
                             MAX_FORMULA_TOKENS, parse_formula, satisfying_set, to_text)
from sparsekit.rng import Rng


# ---------------------------------------------------------------- parsing

def test_parse_precedence():
    f = parse_formula("x = y & E(x,y) | dist(x,y) <= 2", free=("x", "y"))
    assert f == Or(And(Eq("x", "y"), Edge("x", "y")), DistLe("x", "y", 2))
    f = parse_formula("!x = y & E(x,y)", free=("x", "y"))
    assert f == And(Not(Eq("x", "y")), Edge("x", "y"))
    # a quantifier body extends as far right as possible
    f = parse_formula("exists z . E(z,x) & z = x", free=("x",))
    assert f == Quant("exists", "z", None, None,
                      And(Edge("z", "x"), Eq("z", "x")))


def test_parse_relativized_quantifier():
    f = parse_formula("forall z within 2 of x . dist(z,x) <= 2", free=("x",))
    assert f == Quant("forall", "z", "x", 2, DistLe("z", "x", 2))


def test_parse_distance_sugar():
    f = parse_formula("dist(x,y) > 3", free=("x", "y"))
    assert f == Not(DistLe("x", "y", 3))
    assert to_text(f) == "dist(x,y) > 3"


def test_parse_scope_errors():
    with pytest.raises(FormulaScopeError):
        parse_formula("E(x,y)")  # a sentence by default
    with pytest.raises(FormulaScopeError, match="y"):
        parse_formula("exists x . E(x,y)")
    with pytest.raises(FormulaScopeError, match="anchor"):
        parse_formula("exists z within 1 of w . z = z", free=("x",))
    # free=None infers instead of raising
    f = parse_formula("exists x . E(x,y)", free=None)
    assert free_vars(f) == frozenset({"y"})


def test_parse_errors_carry_positions():
    cases = [
        "exists . true",
        "dist(x,y) = 2",
        "E(x y)",
        "true true",
        "exists exists . true",
        "x # y",
        "",
    ]
    for text in cases:
        with pytest.raises(FormulaParseError) as e:
            parse_formula(text, free=None)
        assert e.value.pos >= 0


@pytest.mark.parametrize("text", [
    "!" * 255 + "true",
    "(" * 127 + "!true" + ")" * 127,
    "!" + " & ".join(["true"] * 128),
], ids=["negations", "parentheses", "conjuncts"])
def test_formula_token_bound(text):
    # each text is exactly MAX_FORMULA_TOKENS tokens long
    f = parse_formula(text)
    assert eval_naive(path_graph(3), f, {}) is False
    assert parse_formula(to_text(f)) == f
    longer = "!" + text
    with pytest.raises(FormulaParseError, match=f"longer than {MAX_FORMULA_TOKENS} tokens") as e:
        parse_formula(longer)
    assert e.value.pos == max(longer.rfind(")"), longer.rfind("true"))  # its last token


def test_sentence_at_the_token_bound_reads_back():
    # the text has 256 tokens; its canonical text once bracketed the
    # quantifier (258 tokens), and the sentence was refused
    chi = "true & exists y within 1 of x . " + "!" * 246 + "true"
    s = BasicLocalSentence.from_json({"k": 1, "r": 1, "chi": chi})
    assert s.to_json()["chi"] == chi
    assert BasicLocalSentence.from_json(s.to_json()) == s


def test_reserved_words_are_not_variables():
    with pytest.raises(FormulaParseError, match="reserved"):
        parse_formula("exists dist . true")


def _random_formula(rnd, scope, depth):
    if depth == 0 or rnd.random() < 0.3:
        kind = rnd.choice(["lit", "eq", "edge", "dist", "pred"]) if scope else "lit"
        if kind == "lit":
            return Lit(rnd.random() < 0.5)
        a, b = rnd.choice(scope), rnd.choice(scope)
        if kind == "eq":
            return Eq(a, b)
        if kind == "edge":
            return Edge(a, b)
        if kind == "dist":
            return DistLe(a, b, rnd.randint(0, 3))
        return Pred(a)
    kind = rnd.choice(["not", "and", "or", "quant", "quant"])
    if kind == "not":
        return Not(_random_formula(rnd, scope, depth - 1))
    if kind in ("and", "or"):
        node = And if kind == "and" else Or
        return node(_random_formula(rnd, scope, depth - 1),
                    _random_formula(rnd, scope, depth - 1))
    var = rnd.choice(["u", "v", "w", "x", "y", "z"])
    anchor = d = None
    if rnd.random() < 0.7:
        anchor = rnd.choice(scope)
        d = rnd.randint(1, 3)
    body = _random_formula(rnd, sorted(set(scope) | {var}), depth - 1)
    return Quant(rnd.choice(["exists", "forall"]), var, anchor, d, body)


def test_text_round_trip_on_random_formulas():
    rnd = random.Random(0)
    for _ in range(200):
        f = _random_formula(rnd, ["x"], 4)
        assert parse_formula(to_text(f), free=None) == f


# ------------------------------------------------------------- evaluation

def test_eval_atoms():
    g = path_graph(3)
    assert eval_naive(g, Edge("a", "b"), {"a": 0, "b": 1})
    assert not eval_naive(g, Edge("a", "b"), {"a": 0, "b": 2})
    assert eval_naive(g, DistLe("a", "b", 2), {"a": 0, "b": 2})
    assert eval_naive(g, Eq("a", "b"), {"a": 1, "b": 1})
    assert eval_naive(g, Lit(True), {})
    assert eval_naive(g, Pred("a"), {"a": 1}, marked={1, 2})
    assert not eval_naive(g, Pred("a"), {"a": 0}, marked={1, 2})


def test_eval_across_components():
    # distance atoms are false between components, so the sugar flips true
    g = Graph(4, [(0, 1), (2, 3)])
    assert not eval_naive(g, DistLe("a", "b", 99), {"a": 0, "b": 2})
    assert eval_naive(g, Not(DistLe("a", "b", 99)), {"a": 0, "b": 2})


def test_eval_env_must_match_free_vars():
    g = path_graph(3)
    with pytest.raises(PreconditionError):
        eval_naive(g, Edge("a", "b"), {"a": 0})
    with pytest.raises(PreconditionError):
        eval_naive(g, Lit(True), {"a": 0})
    with pytest.raises(PreconditionError):
        eval_naive(g, Eq("a", "a"), {"a": 7})


def test_eval_assignment_takes_only_vertex_ids():
    # JSON true is not vertex 1, and a float is no vertex id at all
    g = path_graph(3)
    for env in ({"x": True}, {"x": 1.0}):
        with pytest.raises(PreconditionError) as e:
            eval_naive(g, Edge("x", "x"), env)
        assert str(e.value) == f"vertex {env['x']} not in the graph"
    with pytest.raises(PreconditionError) as e:
        eval_naive(g, Eq("x", "y"), {"x": 0, "y": 9})
    assert str(e.value) == "vertex 9 not in the graph"


def test_dominating_formula_pins():
    f2 = dominating_formula(2)
    assert to_text(f2) == ("exists x1 . exists x2 . forall y . "
                           "y = x1 | y = x2 | E(y,x1) | E(y,x2)")
    assert parse_formula(to_text(f2)) == f2
    assert free_vars(f2) == frozenset()
    assert to_text(dominating_formula(1, r=2)) == \
        "exists x1 . forall y . y = x1 | dist(y,x1) <= 2"
    with pytest.raises(PreconditionError):
        dominating_formula(0)


def test_dominating_formula_on_cycle():
    g = cycle_graph(5)
    assert eval_naive(g, dominating_formula(2), {})
    assert not eval_naive(g, dominating_formula(1), {})
    assert eval_naive(g, dominating_formula(1, r=2), {})


def test_eval_matches_the_reference_evaluator(corpus_small):
    # the reference shares no code with eval_naive: it finds every pairwise
    # distance up front and filters all n vertices for a relativized range
    rnd = random.Random(25)
    for g in corpus_small[::10]:
        marked = frozenset(v for v in range(g.n) if rnd.random() < 0.3)
        for _ in range(20):
            f = _random_formula(rnd, ["x", "y"], 3)
            names = sorted(free_vars(f))
            for values in itertools.product(range(g.n), repeat=len(names)):
                env = dict(zip(names, values))
                assert eval_naive(g, f, env, marked) == naive_eval(g, f, env, marked), \
                    (to_text(f), env)


def _radii(f) -> set:
    """The radii a formula names: its distance atoms' and its relativized
    quantifiers'."""
    if isinstance(f, DistLe):
        return {f.d}
    if isinstance(f, Not):
        return _radii(f.body)
    if isinstance(f, (And, Or)):
        return _radii(f.left) | _radii(f.right)
    if isinstance(f, Quant):
        return _radii(f.body) | ({f.d} if f.anchor is not None else set())
    return set()


def test_eval_searches_only_the_radii_the_formula_names(monkeypatch):
    # the evaluator once ran an uncapped BFS from every vertex it was asked
    # about
    import sparsekit.logic as logic
    real, radii = logic.bfs_distances, []

    def recording(g, sources, radius=None, active=None):
        radii.append(radius)
        return real(g, sources, radius, active)

    monkeypatch.setattr(logic, "bfs_distances", recording)
    rnd = random.Random(3)
    searched = 0
    for g in (grid_graph(4, 5), Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])):
        for _ in range(60):
            f = _random_formula(rnd, ["x"], 3)
            env = {"x": rnd.randrange(g.n)} if free_vars(f) else {}
            radii.clear()
            eval_naive(g, f, env)
            assert set(radii) <= _radii(f), (to_text(f), radii)
            searched += len(radii)
    assert searched > 100


def test_eval_memory_follows_the_balls_it_reads():
    # with a whole-graph BFS kept per vertex, the peak here was 141 MiB
    g = random_tree(2000, seed=1)
    f = parse_formula("forall x . exists y within 1 of x . (E(x,y) | x = y)")
    tracemalloc.start()
    try:
        assert eval_naive(g, f, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_eval_reads_odd_radii_as_before():
    # only a hand-built formula holds a negative or fractional radius: no
    # vertex is within -1 of another, and 1.5 reaches what 1 does
    g = path_graph(4)
    assert not eval_naive(g, DistLe("a", "b", -1), {"a": 0, "b": 0})
    assert not eval_naive(g, Quant("exists", "y", "x", -1, Lit(True)), {"x": 0})
    assert eval_naive(g, Quant("forall", "y", "x", -1, Lit(False)), {"x": 0})
    for a, b in itertools.product(range(g.n), repeat=2):
        env = {"a": a, "b": b}
        assert eval_naive(g, DistLe("a", "b", 1.5), env) == (abs(a - b) <= 1)
    far = Not(DistLe("x", "y", 1))
    assert not eval_naive(g, Quant("exists", "y", "x", 1.5, far), {"x": 1})
    assert eval_naive(g, Quant("exists", "y", "x", 2, far), {"x": 1})


# --------------------------------------------------------------- locality

def test_locality_violations():
    chi = parse_formula("exists z within 1 of x . E(x,z)", free=("x",))
    assert locality_violations(chi, "x", 1) == []
    assert locality_violations(chi, "x", 0) != []
    deep = parse_formula("exists z within 1 of x . exists w within 1 of z . true",
                         free=("x",))
    assert locality_violations(deep, "x", 2) == []
    assert any("deep" in v for v in locality_violations(deep, "x", 1))
    loose = parse_formula("exists z . E(x,z)", free=("x",))
    assert any("not relativized" in v for v in locality_violations(loose, "x", 5))
    far = parse_formula("dist(x,x) <= 9", free=("x",))
    assert any("ball" in v for v in locality_violations(far, "x", 2))


def test_basic_local_sentence_validation():
    chi = parse_formula("exists z within 1 of x . E(x,z)", free=("x",))
    s = BasicLocalSentence(2, 1, chi, "x")
    assert s.k == 2 and s.r == 1
    with pytest.raises(PreconditionError):
        BasicLocalSentence(0, 1, chi, "x")
    with pytest.raises(PreconditionError):
        BasicLocalSentence(1, 0, chi, "x")
    with pytest.raises(LocalityError):
        BasicLocalSentence(1, 1, parse_formula("exists z . E(x,z)", free=("x",)), "x")
    with pytest.raises(FormulaScopeError):
        BasicLocalSentence(1, 1, parse_formula("E(x,y)", free=("x", "y")), "x")


def test_basic_local_sentence_json():
    chi = parse_formula("exists z within 1 of x . E(x,z)", free=("x",))
    s = BasicLocalSentence(3, 1, chi, "x")
    back = BasicLocalSentence.from_json(s.to_json())
    assert back == s
    # a chi with no free variable defaults its name
    t = BasicLocalSentence.from_json({"k": 1, "r": 1, "chi": "true"})
    assert t.var == "x"
    with pytest.raises(FormulaScopeError):
        BasicLocalSentence.from_json({"k": 1, "r": 1, "chi": "E(x,y)"})


def test_satisfying_set_with_marks():
    g = path_graph(5)
    sees = parse_formula("exists z within 1 of x . P(z)", free=("x",))
    s = BasicLocalSentence(1, 1, sees, "x")
    assert satisfying_set(g, s, marked={0}) == frozenset({0, 1})
    assert satisfying_set(g, s, marked={2}) == frozenset({1, 2, 3})
    is_marked = BasicLocalSentence(1, 1, parse_formula("P(x)", free=("x",)), "x")
    assert satisfying_set(g, is_marked, marked={1, 3}) == frozenset({1, 3})


def test_eval_basic_local_pins():
    has_nbr = parse_formula("exists z within 1 of x . E(x,z)", free=("x",))
    assert eval_basic_local(path_graph(9), BasicLocalSentence(3, 1, has_nbr, "x")) \
        == (True, (0, 3, 6))
    anything = BasicLocalSentence(2, 1, Lit(True), "x")
    assert eval_basic_local(cycle_graph(7), anything) == (True, (0, 3))
    assert eval_basic_local(complete_graph(4), anything) == (False, None)


def test_expand_basic_local_pin():
    chi = parse_formula("exists z within 1 of x . E(x,z)", free=("x",))
    s = BasicLocalSentence(2, 1, chi, "x")
    f = expand_basic_local(s)
    assert free_vars(f) == frozenset()
    assert to_text(f) == (
        "exists x1 . exists x2 . dist(x1,x2) > 2 "
        "& (exists z2 . dist(z2,x1) <= 1 & E(x1,z2)) "
        "& exists z3 . dist(z3,x2) <= 1 & E(x2,z3)")


def _random_local_property(rnd, r):
    # rejection sampling over relativized formulas
    while True:
        chi = _random_formula(rnd, ["x"], 3)
        if free_vars(chi) <= {"x"} and not locality_violations(chi, "x", r):
            return chi


def test_local_evaluation_matches_global():
    # the point of the syntactic locality check: evaluating chi on the
    # induced r-ball agrees with evaluating it on the whole graph
    rnd = random.Random(1)
    graphs = [path_graph(8), cycle_graph(9), grid_graph(3, 4), star_graph(7),
              Graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])]
    for g in graphs:
        for _ in range(8):
            r = rnd.randint(1, 3)
            chi = _random_local_property(rnd, r)
            marked = frozenset(v for v in range(g.n) if rnd.random() < 0.3)
            s = BasicLocalSentence(1, r, chi, "x")
            T = satisfying_set(g, s, marked)
            env_needed = "x" in free_vars(chi)
            for v in range(g.n):
                direct = eval_naive(g, chi, {"x": v} if env_needed else {}, marked)
                assert direct == (v in T), (to_text(chi), r, v)


def test_expansion_matches_pipeline():
    rnd = random.Random(2)
    graphs = [path_graph(7), cycle_graph(8), grid_graph(2, 4), star_graph(6)]
    for g in graphs:
        for _ in range(6):
            r = rnd.randint(1, 2)
            k = rnd.randint(1, 2)
            chi = _random_local_property(rnd, r)
            marked = frozenset(v for v in range(g.n) if rnd.random() < 0.3)
            s = BasicLocalSentence(k, r, chi, "x")
            holds, wit = eval_basic_local(g, s, marked)
            assert holds == eval_naive(g, expand_basic_local(s), {}, marked)
            if holds:
                T = satisfying_set(g, s, marked)
                assert set(wit) <= T
                for i, a in enumerate(wit):
                    for b in wit[i + 1:]:
                        d = eval_naive(g, DistLe("a", "b", 2 * r), {"a": a, "b": b})
                        assert not d


# ------------------------------------------------------------ exact solvers

def test_distance_independent_set_pins():
    assert distance_independent_set(path_graph(7), 2, 3, range(7)) \
        == frozenset({0, 3, 6})
    assert distance_independent_set(cycle_graph(6), 2, 2, range(6)) \
        == frozenset({0, 3})
    assert distance_independent_set(complete_graph(5), 1, 2, range(5)) is None
    assert distance_independent_set(path_graph(5), 2, 0, range(5)) == frozenset()
    assert distance_independent_set(path_graph(5), 2, 3, [0, 1]) is None
    # candidate restriction matters
    assert distance_independent_set(path_graph(7), 2, 2, [2, 3, 4]) is None
    # radius 1.5 reaches what 1 does (it once made every ball the whole path)
    assert distance_independent_set(path_graph(8), 1.5, 2, range(8)) == frozenset({0, 2})


def test_distance_independent_set_refuses_a_candidate_that_is_no_vertex():
    # once an IndexError from the adjacency lookup
    with pytest.raises(PreconditionError, match="^vertex 99 not in the graph$"):
        distance_independent_set(path_graph(5), 1, 1, [99])


def test_distance_independent_set_is_lex_least():
    g = cycle_graph(9)
    got = distance_independent_set(g, 2, 3, range(9))
    assert got == frozenset({0, 3, 6})


def test_distance_independent_set_matches_brute_force(corpus_small):
    rng = Rng(11)
    for g in corpus_small[::10]:
        subset = [v for v in range(g.n) if rng.next_float() < 0.6]
        for cands in (range(g.n), subset):
            for r in range(4):
                for k in range(5):
                    want = brute_distance_independent(g, r, k, cands)
                    assert distance_independent_set(g, r, k, cands) == want, \
                        (g.n, sorted(g.edges()), list(cands), r, k)


def test_distance_dominating_set_pins():
    assert distance_dominating_set(cycle_graph(6), 2) == frozenset({0, 1})
    assert distance_dominating_set(star_graph(10), 1) == frozenset({0})
    assert distance_dominating_set(path_graph(10), 1) == frozenset({1, 4, 7, 8})
    assert distance_dominating_set(path_graph(10), 1, mode="greedy") \
        == frozenset({1, 4, 7, 8})
    assert distance_dominating_set(Graph(0, []), 1) == frozenset()


def test_distance_dominating_set_modes_and_caps():
    with pytest.raises(PreconditionError):
        distance_dominating_set(path_graph(5), 1, mode="fast")
    with pytest.raises(CapabilityError) as e:
        distance_dominating_set(path_graph(26), 1)
    assert e.value.cap_name == "dominating_cap"
    # greedy has no cap
    assert len(distance_dominating_set(path_graph(40), 1, mode="greedy")) >= 14


def test_exact_domination_checks_its_cap_before_allocating():
    g = path_graph(2000)
    with pytest.raises(CapabilityError):
        distance_dominating_set(g, 1)
    assert g._masks is None  # no n-bit ball was built


def test_exact_domination_matches_the_oracle(corpus_small):
    greedy_lost = 0
    for g in corpus_small[::5]:
        for r in (1, 2):
            exact = distance_dominating_set(g, r)
            assert len(exact) == brute_dominating_number(g, r), (sorted(g.edges()), r)
            assert set().union(*(ball(g, v, r) for v in exact)) == set(range(g.n))
            greedy_lost += len(exact) < len(distance_dominating_set(g, r, mode="greedy"))
    # the search improved on its greedy start somewhere in the slice
    assert greedy_lost > 0


def test_exact_domination_beats_greedy_on_a_grid():
    g = grid_graph(2, 5)
    assert distance_dominating_set(g, 1, mode="greedy") == frozenset({0, 1, 3, 8})
    assert distance_dominating_set(g, 1) == frozenset({0, 4, 7})


def test_distance_independent_set_caps_k():
    # the search recurses once per chosen vertex: k = 1000 once raised
    # RecursionError
    g = path_graph(2000)
    assert len(distance_independent_set(g, 1, INDEPENDENT_K_CAP, range(g.n))) \
        == INDEPENDENT_K_CAP
    with pytest.raises(CapabilityError) as e:
        distance_independent_set(g, 1, 1000, range(g.n))
    assert e.value.cap_name == "independent_k" and e.value.cap_value == INDEPENDENT_K_CAP


# sha256 of the comma-joined sorted greedy distance-r dominating set, as the
# full max over all vertices per pick returned it.
PINNED_GREEDY_DOMINATION = {
    ("gnd300", 1): "aa057c630fae74c5fcee1860a9707b8f283fd7386b39a0f5d79ec1b4009013e1",
    ("gnd300", 2): "b22af61504201c1819c2da5e258ff702dc2cf19683549e95efb54edc79363959",
    ("tree300", 1): "911f378e4d27dc4f3a62707f553b10f44a1270500a400728636ef466920ef933",
    ("tree300", 2): "ab920b7d05b1f101fc9ac60de1d97494272b53e5ec8268ae7dd238ac16dcf96d",
    ("grid12", 1): "1752781627ec8320c840eabf1387de46ed1e50eef53f3e8e35cb5b3282775e46",
    ("grid12", 2): "4b66d827be2e128943da820d051a5345ea716f58004d1c18c3487b8ddd6a86a2",
}


def test_greedy_domination_pinned():
    graphs = {"gnd300": gnd_graph(300, 3.0, seed=1), "tree300": random_tree(300, seed=1),
              "grid12": grid_graph(12, 12)}
    for (name, r), want in PINNED_GREEDY_DOMINATION.items():
        dom = sorted(distance_dominating_set(graphs[name], r, mode="greedy"))
        assert hashlib.sha256(",".join(map(str, dom)).encode()).hexdigest() == want, (name, r)


def test_greedy_domination_on_a_long_path_pinned():
    # the answer the n-bit ball masks gave; lazy gains over BFS balls keep
    # it while their peak memory stays linear (the masks peaked near 54 MB)
    import tracemalloc
    g = path_graph(20000)
    tracemalloc.start()
    try:
        dom = sorted(distance_dominating_set(g, 1, mode="greedy"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom == list(range(1, 19997, 3)) + [19998]
    assert hashlib.sha256(",".join(map(str, dom)).encode()).hexdigest() == \
        "04dd64b9c3f70463ff8195a6505c1c0c7f7cdd83f0442801896525734aea281b"
    assert peak < 16 * 2 ** 20


def test_greedy_dominating_quality():
    for g in (path_graph(12), cycle_graph(9), grid_graph(3, 3), star_graph(10)):
        exact = distance_dominating_set(g, 1)
        greedy = distance_dominating_set(g, 1, mode="greedy")
        covered = set()
        for v in greedy:
            covered |= {v, *g.adj[v]}
        assert covered == set(range(g.n))
        assert len(greedy) <= (1 + math.log(g.n)) * len(exact)


def test_identity_order_shortcut_on_path():
    g = path_graph(40)
    assert distance_independent_set(g, 2, 10, range(g.n)) == frozenset(range(0, 30, 3))
    assert distance_independent_set(g, 1, 20, range(g.n)) == frozenset(range(0, 40, 2))
