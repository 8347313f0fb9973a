"""The library's refusals: every argument floor goes through
`require_at_least`, every cap through `require_at_most`, each with its one
message format."""

import pytest

from sparsekit.errors import (CapabilityError, PreconditionError, require_at_least,
                              require_at_most)
from sparsekit.games import GameConfig, game_value
from sparsekit.graph import Graph
from sparsekit.graphio import generate, path_graph
from sparsekit.logic import (BasicLocalSentence, distance_dominating_set,
                             distance_independent_set, parse_formula)
from sparsekit.minors import density_report, find_depth_r_minor
from sparsekit.orders import identity_order, treedepth_exact, wcol_exact, wcol_of_order
from sparsekit.wideness import (balanced_separator, neighborhood_cover, partition_cover,
                                uqw_brute, uqw_extract)

P3 = path_graph(3)
PI3 = identity_order(3)
TRUE = parse_formula("true", free=("x",))


def test_require_at_least_accepts_the_floor():
    require_at_least("r", 0, 0)
    with pytest.raises(PreconditionError, match=r"^r must be >= 0, got -1$"):
        require_at_least("r", -1, 0)


def test_require_at_most_accepts_the_cap():
    require_at_most("wcol_exact", 10, 10, "vertices")
    with pytest.raises(CapabilityError) as e:
        require_at_most("wcol_exact", 11, 10, "vertices")
    assert str(e.value) == "wcol_exact: capped at 10 vertices, got 11"
    assert (e.value.cap_name, e.value.cap_value) == ("wcol_exact", 10)


# (site, call, the message it refuses with)
FLOORS = [
    ("wcol_of_order", lambda: wcol_of_order(P3, PI3, -1), "r must be >= 0, got -1"),
    ("wcol_exact", lambda: wcol_exact(P3, -1), "r must be >= 0, got -1"),
    ("find_depth_r_minor", lambda: find_depth_r_minor(P3, P3, -1), "r must be >= 0, got -1"),
    ("density_report-r", lambda: density_report(P3, -1, seed=0), "r must be >= 0, got -1"),
    ("density_report-budget", lambda: density_report(P3, 1, budget=-1, seed=0),
     "budget must be >= 0, got -1"),
    ("uqw_extract-r", lambda: uqw_extract(P3, {0}, 0, 1, PI3), "r must be >= 1, got 0"),
    ("uqw_extract-m", lambda: uqw_extract(P3, {0}, 1, 0, PI3), "m must be >= 1, got 0"),
    ("uqw_brute-r", lambda: uqw_brute(P3, {0}, 0, 1, 1), "r must be >= 1, got 0"),
    ("uqw_brute-s_max", lambda: uqw_brute(P3, {0}, 1, 1, -1), "s_max must be >= 0, got -1"),
    ("balanced_separator", lambda: balanced_separator(P3, {0}, 0, 0.5, PI3),
     "r must be >= 1, got 0"),
    ("neighborhood_cover", lambda: neighborhood_cover(P3, -1, PI3), "r must be >= 0, got -1"),
    ("partition_cover", lambda: partition_cover(P3, -1, PI3), "r must be >= 0, got -1"),
    ("distance_independent_set-k", lambda: distance_independent_set(P3, 1, -1, range(3)),
     "k must be >= 0, got -1"),
    ("distance_independent_set-r", lambda: distance_independent_set(P3, -1, 1, range(3)),
     "r must be >= 0, got -1"),
    ("distance_dominating_set", lambda: distance_dominating_set(P3, -1),
     "r must be >= 0, got -1"),
    ("distance_dominating_set-empty", lambda: distance_dominating_set(Graph(0, []), -1),
     "r must be >= 0, got -1"),
    ("wcol_exact-empty", lambda: wcol_exact(Graph(0, []), -1), "r must be >= 0, got -1"),
    ("BasicLocalSentence-k", lambda: BasicLocalSentence(0, 1, TRUE, "x"),
     "k must be >= 1, got 0"),
    ("BasicLocalSentence-r", lambda: BasicLocalSentence(1, 0, TRUE, "x"),
     "r must be >= 1, got 0"),
]


@pytest.mark.parametrize("call,message", [f[1:] for f in FLOORS], ids=[f[0] for f in FLOORS])
def test_every_floor_refuses_with_the_one_message(call, message):
    with pytest.raises(PreconditionError) as e:
        call()
    assert str(e.value) == message


# (cap name, call, the message it refuses with)
CAPS = [
    ("wcol_exact", lambda: wcol_exact(path_graph(11), 1), "10 vertices, got 11"),
    ("treedepth_exact", lambda: treedepth_exact(path_graph(16)), "15 vertices, got 16"),
    ("game_cap", lambda: game_value(path_graph(11), GameConfig("treedepth")),
     "10 vertices, got 11"),
    ("uqw_brute_n", lambda: uqw_brute(path_graph(19), {0}, 1, 1, 1), "18 vertices, got 19"),
    ("uqw_brute_s", lambda: uqw_brute(P3, {0}, 1, 1, 4), "3 deleted vertices, got 4"),
    ("independent_k", lambda: distance_independent_set(P3, 1, 501, range(3)),
     "500 chosen vertices, got 501"),
    ("dominating_cap", lambda: distance_dominating_set(path_graph(26), 1),
     "25 vertices, got 26"),
    ("max_h", lambda: find_depth_r_minor(P3, path_graph(6), 1), "5 pattern vertices, got 6"),
    ("max_g", lambda: find_depth_r_minor(path_graph(21), P3, 1), "20 host vertices, got 21"),
    ("max_vertices", lambda: generate({"family": "path", "n": 1_000_001}),
     "1000000 vertices, got 1000001"),
    ("max_pairs", lambda: generate({"family": "complete", "n": 4473}),
     "10000000 vertex pairs, got 10001628"),
]


@pytest.mark.parametrize("cap_name,call,tail", CAPS, ids=[c[0] for c in CAPS])
def test_every_cap_refuses_with_the_one_message(cap_name, call, tail):
    with pytest.raises(CapabilityError) as e:
        call()
    assert str(e.value) == f"{cap_name}: capped at {tail}"
    assert e.value.cap_name == cap_name
