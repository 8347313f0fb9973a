import pytest

from oracles import brute_treedepth
from sparsekit.errors import (CapabilityError, GraphInputError,
                              PreconditionError, StrategyBugError)
from sparsekit.games import (ConnectorMove, ExhaustiveConnector,
                             ExhaustiveSplitter, GameConfig, GameTranscript,
                             GreedyBallConnector, RandomConnector,
                             SplitterStrategy, UqwBatchSplitter,
                             connector_move_violations, game_value, play,
                             splitter_move_violations, validate_transcript,
                             wcol_splitter_strategy)
from sparsekit.graphio import (complete_graph, cycle_graph, grid_graph,
                               path_graph, star_graph)
from sparsekit.orders import degeneracy_order, identity_order, wcol_of_order


def td_cfg(g):
    return GameConfig(kind="treedepth", round_cap=max(g.n, 1))


def test_config_validation():
    with pytest.raises(GraphInputError):
        GameConfig(kind="chess")
    with pytest.raises(GraphInputError):
        GameConfig(kind="splitter", radius=0)
    with pytest.raises(GraphInputError):
        GameConfig(kind="treedepth", round_cap=0)


def test_treedepth_game_value_equals_treedepth():
    for g in (complete_graph(5), path_graph(7), cycle_graph(6), path_graph(1)):
        assert game_value(g, td_cfg(g)) == brute_treedepth(g)


def test_splitter_game_values_frozen():
    cases = [
        (complete_graph(5), 5), (cycle_graph(4), 2), (cycle_graph(6), 2),
        (path_graph(7), 2), (star_graph(8), 2), (grid_graph(3, 3), 2),
    ]
    for g, want in cases:
        assert game_value(g, GameConfig(kind="splitter", radius=1,
                                        round_cap=g.n)) == want


def test_game_value_cap():
    with pytest.raises(CapabilityError) as e:
        game_value(path_graph(11), td_cfg(path_graph(11)))
    assert e.value.cap_name == "game_cap"


def test_optimal_play_on_k5_lasts_five_rounds():
    g = complete_graph(5)
    t = play(g, td_cfg(g), ExhaustiveSplitter(), ExhaustiveConnector())
    assert t.winner == "splitter"
    assert len(t.rounds) == 5
    assert t.residual_sizes == [4, 3, 2, 1, 0]
    assert validate_transcript(g, t) == []


def test_single_vertex_game():
    g = path_graph(1)
    t = play(g, td_cfg(g), ExhaustiveSplitter(), ExhaustiveConnector())
    assert t.winner == "splitter" and len(t.rounds) == 1


def test_wcol_splitter_meets_its_bound():
    # the strategy deletes the order-minimum of the presented ball and wins
    # within wcol_of_order(g, pi, 2r) rounds
    cases = [
        (star_graph(100), identity_order(100), 1),
        (path_graph(50), degeneracy_order(path_graph(50)), 1),
        (path_graph(50), degeneracy_order(path_graph(50)), 2),
        (grid_graph(5, 5), degeneracy_order(grid_graph(5, 5)), 1),
    ]
    for g, pi, r in cases:
        bound = wcol_of_order(g, pi, 2 * r)
        cfg = GameConfig(kind="splitter", radius=r, round_cap=bound)
        for co in (GreedyBallConnector(), RandomConnector(17)):
            t = play(g, cfg, wcol_splitter_strategy(pi, r), co)
            assert t.winner == "splitter"
            assert len(t.rounds) <= bound
            assert validate_transcript(g, t) == []


def test_wcol_splitter_frozen_round_counts():
    g = star_graph(100)
    pi = identity_order(100)
    cfg = GameConfig(kind="splitter", radius=1,
                     round_cap=wcol_of_order(g, pi, 2))
    t = play(g, cfg, wcol_splitter_strategy(pi, 1), GreedyBallConnector())
    assert len(t.rounds) == 2
    p = path_graph(50)
    pi = degeneracy_order(p)
    t = play(p, GameConfig(kind="splitter", radius=2, round_cap=5),
             wcol_splitter_strategy(pi, 2), GreedyBallConnector())
    assert len(t.rounds) == 5 and t.winner == "splitter"


def test_uqw_splitter_round_one_is_singleton_then_grows():
    g = path_graph(30)
    cfg = GameConfig(kind="splitter", radius=1, round_cap=12, batch_limit=24)
    t = play(g, cfg, UqwBatchSplitter(1), GreedyBallConnector())
    assert t.winner == "splitter"
    assert len(t.rounds[0].splitter) == 1
    for i, rd in enumerate(t.rounds[1:], start=2):
        assert len(rd.splitter) <= (i - 1) * 2  # i-1 earlier centers, r+1 = 2
    assert validate_transcript(g, t) == []


def test_uqw_splitter_requires_batch_room():
    g = path_graph(10)
    cfg = GameConfig(kind="splitter", radius=1, round_cap=10, batch_limit=1)
    with pytest.raises(PreconditionError):
        play(g, cfg, UqwBatchSplitter(1), GreedyBallConnector())


def test_random_connector_is_seeded():
    g = grid_graph(4, 4)
    pi = degeneracy_order(g)
    cfg = GameConfig(kind="splitter", radius=1,
                     round_cap=wcol_of_order(g, pi, 2))
    sp = wcol_splitter_strategy(pi, 1)
    t1 = play(g, cfg, sp, RandomConnector(5))
    t2 = play(g, cfg, sp, RandomConnector(5))
    assert t1.to_json() == t2.to_json()


def test_move_legality_checks():
    g = path_graph(5)
    cfg = GameConfig(kind="treedepth", round_cap=5)
    residual = frozenset(range(5))
    # a treedepth move must be a whole component
    bad = ConnectorMove(0, frozenset({0, 1}))
    assert connector_move_violations(g, cfg, residual, bad) != []
    good = ConnectorMove(0, residual)
    assert connector_move_violations(g, cfg, residual, good) == []
    # a radius move must stay within the ball around the center
    cfg = GameConfig(kind="splitter", radius=1, round_cap=5)
    far = ConnectorMove(0, frozenset({0, 1, 2}))
    assert connector_move_violations(g, cfg, residual, far) != []
    near = ConnectorMove(1, frozenset({0, 1, 2}))
    assert connector_move_violations(g, cfg, residual, near) == []
    # splitter batches: nonempty, inside the move, within the limit
    assert splitter_move_violations(cfg, near, frozenset()) != []
    assert splitter_move_violations(cfg, near, frozenset({3})) != []
    assert splitter_move_violations(cfg, near, frozenset({0, 1})) != []
    assert splitter_move_violations(cfg, near, frozenset({1})) == []


def test_validate_transcript_catches_tampering():
    g = complete_graph(4)
    t = play(g, td_cfg(g), ExhaustiveSplitter(), ExhaustiveConnector())
    assert validate_transcript(g, t) == []
    doc = t.to_json()
    # splitter deletes a vertex outside the connector's move
    bad = dict(doc)
    bad["rounds"] = [dict(rd) for rd in doc["rounds"]]
    bad["rounds"][0]["splitter"] = [99]
    assert validate_transcript(g, GameTranscript.from_json(bad)) != []
    # wrong winner claim
    bad = dict(doc)
    bad["winner"] = "connector"
    assert validate_transcript(g, GameTranscript.from_json(bad)) != []
    # wrong residual bookkeeping
    bad = dict(doc)
    bad["rounds"] = [dict(rd) for rd in doc["rounds"]]
    bad["rounds"][0]["residual"] = bad["rounds"][0]["connector"]
    assert validate_transcript(g, GameTranscript.from_json(bad)) != []


def test_transcript_json_round_trip():
    g = cycle_graph(5)
    t = play(g, td_cfg(g), ExhaustiveSplitter(), GreedyBallConnector())
    back = GameTranscript.from_json(t.to_json())
    assert back.to_json() == t.to_json()
    assert validate_transcript(g, back) == []


class _CheatingSplitter(SplitterStrategy):
    tag = "cheat"

    def pick(self, residual, move, round_no):
        return frozenset({min(move.vertices), max(move.vertices)})


def test_play_rejects_illegal_strategy_moves():
    g = complete_graph(4)
    with pytest.raises(StrategyBugError) as e:
        play(g, td_cfg(g), _CheatingSplitter(), GreedyBallConnector())
    assert "cheat" in str(e.value)
