import hashlib

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
from sparsekit.graph import Graph
from sparsekit.graphio import (complete_graph, cycle_graph, emit_json,
                               grid_graph, path_graph, star_graph)
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
    # radius 1.5 plays as 1 does; the arenas' BFS once ran it uncapped,
    # which played the treedepth game (3 on P7)
    for g, want in cases:
        for radius in (1, 1.5):
            assert game_value(g, GameConfig(kind="splitter", radius=radius,
                                            round_cap=g.n)) == want, (g, radius)


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


def test_strategies_refuse_a_game_they_were_not_built_for():
    g = path_graph(5)
    cfg = GameConfig(kind="splitter", radius=1, round_cap=5, batch_limit=10)
    with pytest.raises(PreconditionError, match="^order does not cover the game graph$"):
        play(g, cfg, wcol_splitter_strategy(identity_order(4), 1), GreedyBallConnector())
    with pytest.raises(GraphInputError, match="^uqw_paths plays the radius-r game only$"):
        play(g, td_cfg(g), UqwBatchSplitter(1), GreedyBallConnector())
    with pytest.raises(PreconditionError, match="^strategy built for radius 2, game uses 1$"):
        play(g, cfg, UqwBatchSplitter(2), GreedyBallConnector())


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
    # a batch past the limit, of vertices inside the move
    bad = dict(doc)
    bad["rounds"] = [dict(rd) for rd in doc["rounds"]]
    bad["rounds"][0]["splitter"] = [0, 1]
    bad["rounds"][0]["residual"] = [2, 3]
    assert "round 1 splitter: batch of 2 exceeds limit 1" in \
        validate_transcript(g, GameTranscript.from_json(bad))
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


class _CheatingConnector(GreedyBallConnector):
    tag = "cheat"

    def pick(self, residual):
        return ConnectorMove(min(residual), frozenset({min(residual)}))


def test_play_rejects_illegal_strategy_moves():
    g = complete_graph(4)
    with pytest.raises(StrategyBugError) as e:
        play(g, td_cfg(g), _CheatingSplitter(), GreedyBallConnector())
    assert "cheat" in str(e.value)
    # a treedepth move must be a whole component, so a lone vertex of K4 is not
    with pytest.raises(StrategyBugError) as e:
        play(g, td_cfg(g), ExhaustiveSplitter(), _CheatingConnector())
    assert (e.value.round_no, e.value.side) == (1, "connector cheat")


# sha256 of emit_json(transcript.to_json()), taken before the engine was
# rebuilt around arenas.  Small graphs: the exhaustive splitter against the
# greedy and the exhaustive connector, round_cap = n, radius 1 for the
# splitter game.
PIN_GRAPHS = {
    "C6": lambda: cycle_graph(6),
    "grid2x4": lambda: grid_graph(2, 4),
    "P7": lambda: path_graph(7),
    "K5": lambda: complete_graph(5),
}
PINNED_TRANSCRIPTS = {
    ("C6", "treedepth", "greedy"): "d9642c634cd3232114e80c5b461a63af59452ef02c5c3f2a986c46f531a78e77",
    ("C6", "treedepth", "exhaustive"): "8224b1364f00652433735961565527fde44d8b3b3f38b88b21c3296f92ecb1a5",
    ("C6", "splitter", "greedy"): "69ac78eb85fde41f290f2b5d42f4423dc9c1a08b82ffc7a326953a96958ad888",
    ("C6", "splitter", "exhaustive"): "d012bf721c9c40301b35fa39a9e7f51a8d0dd81d04bde013642f033fb01eb284",
    ("grid2x4", "treedepth", "greedy"): "58ea6755d549ccd1e2a48bcad836b013d68b8de408469ee3c15299153381eae8",
    ("grid2x4", "treedepth", "exhaustive"): "118abadab040afea8cb5d9e52e70c580a423974160a04c09eb5e1aa8fb7d9f4f",
    ("grid2x4", "splitter", "greedy"): "f2a48f1399766c55e2efd2b755555753f50259ccf4a59d9a985d2989f9a9efb7",
    ("grid2x4", "splitter", "exhaustive"): "22b3429e85bc322aff123256a16c7aa66ae56d13bc4086c398bad5def4ac269c",
    ("P7", "treedepth", "greedy"): "68403cb0a91fc89515e4122a15fcaecfbde495b3f3b45d9209d60ea42021fce4",
    ("P7", "treedepth", "exhaustive"): "8a2eed8bd3c6fa01e86146e820f197f61cf6dd2c84203dfe640f128a2425c9e1",
    ("P7", "splitter", "greedy"): "51050d8791b1f94b6f5672f3b585177f6b70566f8e6a1cf434f45b2cb651a51d",
    ("P7", "splitter", "exhaustive"): "7c8c7fa50f97bd67635ce597722566bdfed46a35b71a8f59a2f7325a333347bf",
    ("K5", "treedepth", "greedy"): "c6dbf4956f0e00ec58320ff37abde525c39822a0d1d20b991622239afeabd7dd",
    ("K5", "treedepth", "exhaustive"): "d28f1930d28bac80379e3354f4923c9d2e764955bee131adeec0df9efc21f9be",
    ("K5", "splitter", "greedy"): "ad5a9807a81af08ae29d0d4cd4a2239b0654b5bbc64273eefad8fba5f31f2725",
    ("K5", "splitter", "exhaustive"): "856589ad078382ee0e1ae27d5a01e1168d2fba8109003967bc3462aa96143a17",
    # the wcol splitter (degeneracy order) at radius 1, round_cap = wcol_2
    ("grid4x4", "splitter", "random(seed=5)"): "b4e4cb7f1e6cf4c8a0ca86e5639c732fe76da323e3f68bf4f8dabc8330bf265e",
    ("grid12x12", "splitter", "greedy"): "2987c8348d3ae87825bdd0c2d0c4bacdff3e83745fb39a826891ef765ffdaebf",
}


def _pinned_game(name, kind, connector):
    if name in PIN_GRAPHS:
        g = PIN_GRAPHS[name]()
        cfg = GameConfig(kind=kind, radius=1 if kind == "splitter" else 0,
                         round_cap=g.n)
        co = GreedyBallConnector() if connector == "greedy" else ExhaustiveConnector()
        return play(g, cfg, ExhaustiveSplitter(), co)
    side = {"grid4x4": 4, "grid12x12": 12}[name]
    g = grid_graph(side, side)
    pi = degeneracy_order(g)
    cfg = GameConfig(kind=kind, radius=1, round_cap=wcol_of_order(g, pi, 2))
    co = RandomConnector(5) if connector.startswith("random") else GreedyBallConnector()
    return play(g, cfg, wcol_splitter_strategy(pi, 1), co)


@pytest.mark.parametrize("key", sorted(PINNED_TRANSCRIPTS), ids="-".join)
def test_transcripts_pinned(key):
    t = _pinned_game(*key)
    got = hashlib.sha256(emit_json(t.to_json()).encode()).hexdigest()
    assert got == PINNED_TRANSCRIPTS[key]


def test_splitter_move_must_be_the_whole_ball():
    # {0, 1} lies within radius 1 of vertex 1 but leaves out its neighbour 2
    g = path_graph(5)
    cfg = GameConfig(kind="splitter", radius=1, round_cap=5)
    sub = ConnectorMove(1, frozenset({0, 1}))
    assert connector_move_violations(g, cfg, frozenset(range(5)), sub) != []


def test_exhaustive_connector_tries_larger_components_first():
    # P2 + P3: both components need 2 rounds; the larger one is tried first
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    cfg = GameConfig(kind="treedepth", round_cap=5)
    t = play(g, cfg, ExhaustiveSplitter(), ExhaustiveConnector())
    assert t.rounds[0].connector.vertices == frozenset({2, 3, 4})
    assert len(t.rounds) == 2 and t.winner == "splitter"


def test_random_connector_names_the_drawn_vertex_in_the_treedepth_game():
    g = path_graph(7)
    t = play(g, td_cfg(g), ExhaustiveSplitter(), RandomConnector(3))
    second = t.rounds[1].connector
    assert second.center == 5
    assert second.vertices == frozenset({4, 5, 6})


# sha256 of the repr of the list of game values over corpus_small, per
# (kind, radius, batch_limit), round_cap = n.  Taken before the engine moved
# to bitmasks and cut its search; no cut may change a value.
PINNED_GAME_VALUES = {
    ("treedepth", 0, 1): "56f748e4529c3babcb58abc1a86babc12aa8ae118bb39bc3ecfb73db1b01da6d",
    ("splitter", 1, 1): "64524b1ab32212b1e1cc98ad0475578183ed9fa66407847ee82dfda2551f7641",
    ("splitter", 1, 2): "5618fb7fcf701adc049f32c8a0f915c30ed8fb31a48f00412d405a322d5f1834",
    ("splitter", 1, 3): "6450e5a52f0904b96f673cf3884db072a3d2d0fc78d008d5ba1d56e836299275",
    ("splitter", 2, 1): "525227b68390940ef99d91fb0245b65dc99e8fe11c1ef7b43a0414964d247106",
    ("splitter", 2, 2): "1bf4fe5556125ad17f44efafedb2b9605f34ccb1ed1bee3163009057d4f85dd0",
    ("splitter", 2, 3): "a3d80b9b19b5c89516b35a3875b10c1e3933816423edf4c05a7f660fc8c6c50f",
}


@pytest.mark.parametrize("key", sorted(PINNED_GAME_VALUES), ids=lambda k: "-".join(map(str, k)))
def test_game_values_pinned(key, corpus_small):
    kind, radius, batch = key
    values = [game_value(g, GameConfig(kind=kind, radius=radius, round_cap=max(g.n, 1),
                                       batch_limit=batch))
              for g in corpus_small]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == PINNED_GAME_VALUES[key]
