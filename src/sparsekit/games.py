"""Vertex-deletion pursuit games.

In each round the connector names a residual vertex c, the center, and its
move is the arena of c: the residual vertices within reach of c inside the
residual.  The reach (`GameConfig.reach`) is unbounded in the treedepth game,
so the arena is c's component, and r in the radius-r splitter game, so it is
c's r-ball (Grohe, Kreutzer and Siebertz, Deciding first-order properties of
nowhere dense graphs, JACM 2017).  The splitter deletes a batch of up to
batch_limit vertices of the arena, the rest of the arena is the new residual,
and the splitter wins when the residual empties within round_cap rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (GraphInputError, PreconditionError, StrategyBugError,
                     raise_if_invalid, require_at_most)
from .graph import (Graph, bfs_distances, components, foreign_vertices,
                    iter_bits, mask_ball, mask_components)
from .orders import VertexOrder
from .rng import Rng

# Vertex cap of the exhaustive game search (game_value and the exhaustive
# strategies).
GAME_CAP = 10


@dataclass(frozen=True)
class GameConfig:
    kind: str  # "treedepth" | "splitter"
    radius: int = 0
    round_cap: int = 64
    batch_limit: int = 1

    def __post_init__(self):
        if self.kind not in ("treedepth", "splitter"):
            raise GraphInputError(f"unknown game kind {self.kind!r}")
        if self.kind == "splitter" and self.radius < 1:
            raise GraphInputError("radius-r game needs radius >= 1")
        if self.round_cap < 1 or self.batch_limit < 1:
            raise GraphInputError("round_cap and batch_limit must be >= 1")

    @property
    def reach(self):
        """How far an arena reaches from its center; None is unbounded."""
        return None if self.kind == "treedepth" else self.radius

    def to_json(self):
        return {
            "kind": self.kind,
            "radius": self.radius,
            "round_cap": self.round_cap,
            "batch_limit": self.batch_limit,
        }

    @classmethod
    def from_json(cls, d):
        return cls(d["kind"], d["radius"], d["round_cap"], d["batch_limit"])


@dataclass(frozen=True)
class ConnectorMove:
    center: int
    vertices: frozenset


@dataclass(frozen=True)
class GameRound:
    connector: ConnectorMove
    splitter: frozenset
    residual: frozenset


@dataclass
class GameTranscript:
    kind = "transcript"
    config: GameConfig
    rounds: list
    winner: str
    connector_tag: str = ""
    splitter_tag: str = ""

    @property
    def residual_sizes(self):
        return [len(rd.residual) for rd in self.rounds]

    def to_json(self):
        return {
            "config": self.config.to_json(),
            "rounds": [
                {
                    "center": rd.connector.center,
                    "connector": sorted(rd.connector.vertices),
                    "splitter": sorted(rd.splitter),
                    "residual": sorted(rd.residual),
                }
                for rd in self.rounds
            ],
            "winner": self.winner,
            "residual_sizes": self.residual_sizes,
            "connector_tag": self.connector_tag,
            "splitter_tag": self.splitter_tag,
        }

    @classmethod
    def from_json(cls, d):
        rounds = [
            GameRound(
                ConnectorMove(rd["center"], frozenset(rd["connector"])),
                frozenset(rd["splitter"]),
                frozenset(rd["residual"]),
            )
            for rd in d["rounds"]
        ]
        return cls(
            GameConfig.from_json(d["config"]),
            rounds,
            d["winner"],
            d.get("connector_tag", ""),
            d.get("splitter_tag", ""),
        )


# ---------------------------------------------------------------- arenas

def _arena(g: Graph, cfg: GameConfig, residual: frozenset, c: int) -> frozenset:
    """Residual vertices within reach of c inside the residual."""
    return frozenset(bfs_distances(g, (c,), cfg.reach, residual))


def _arenas(g: Graph, cfg: GameConfig, residual: frozenset):
    """(center, arena) pairs, least center first, made lazily.  In the
    treedepth game a component is the arena of each of its vertices, so it
    appears once, centred at its least vertex."""
    if cfg.reach is None:
        return ((min(comp), comp) for comp in components(g, residual))
    return ((c, _arena(g, cfg, residual, c)) for c in sorted(residual))


# -------------------------------------------------------------- legality

def connector_move_violations(g: Graph, cfg: GameConfig, residual: frozenset,
                              move: ConnectorMove) -> list:
    """A legal move is the arena of a residual center."""
    if move.center not in residual:
        return [f"center {move.center} is not a residual vertex"]
    arena = _arena(g, cfg, residual, move.center)
    if move.vertices != arena:
        return [f"move is not the arena of center {move.center}: extra "
                f"{sorted(move.vertices - arena)}, missing {sorted(arena - move.vertices)}"]
    return []


def splitter_move_violations(cfg: GameConfig, move: ConnectorMove, batch: frozenset) -> list:
    out = []
    if not batch:
        out.append("splitter deleted nothing")
    if not batch <= move.vertices:
        out.append(f"deleted vertices outside the move: {sorted(batch - move.vertices)}")
    if len(batch) > cfg.batch_limit:
        out.append(f"batch of {len(batch)} exceeds limit {cfg.batch_limit}")
    return out


def validate_transcript(g: Graph, transcript: GameTranscript) -> list:
    """Replay every round from scratch and re-check each rule.  An id that is
    not a vertex of g is reported on its own, before any replay."""
    cfg = transcript.config
    out = []
    for i, rd in enumerate(transcript.rounds, start=1):
        parts = {"center": (rd.connector.center,), "connector": rd.connector.vertices,
                 "splitter": rd.splitter, "residual": rd.residual}
        for part, vs in parts.items():
            out += [f"round {i} {part}: {v}" for v in foreign_vertices(g, vs)]
    if out:
        return out
    residual = frozenset(range(g.n))
    for i, rd in enumerate(transcript.rounds, start=1):
        for v in connector_move_violations(g, cfg, residual, rd.connector):
            out.append(f"round {i} connector: {v}")
        for v in splitter_move_violations(cfg, rd.connector, rd.splitter):
            out.append(f"round {i} splitter: {v}")
        expect = rd.connector.vertices - rd.splitter
        if rd.residual != expect:
            out.append(f"round {i}: recorded residual differs from move minus batch")
        residual = rd.residual
    if len(transcript.rounds) > cfg.round_cap:
        out.append(f"{len(transcript.rounds)} rounds exceed cap {cfg.round_cap}")
    if transcript.winner == "splitter":
        if residual:
            out.append("winner says splitter but the residual is nonempty")
    elif transcript.winner == "connector":
        if not residual:
            out.append("winner says connector but the residual is empty")
        if len(transcript.rounds) != cfg.round_cap:
            out.append("connector can only win by surviving the full round cap")
    else:
        out.append(f"unknown winner {transcript.winner!r}")
    return out


# -------------------------------------------------------------- strategies

class ConnectorStrategy:
    tag = "connector"

    def start(self, g: Graph, cfg: GameConfig) -> None:
        self.g, self.cfg = g, cfg

    def pick(self, residual: frozenset) -> ConnectorMove:
        raise NotImplementedError


class SplitterStrategy:
    tag = "splitter"

    def start(self, g: Graph, cfg: GameConfig) -> None:
        self.g, self.cfg = g, cfg

    def pick(self, residual: frozenset, move: ConnectorMove, round_no: int) -> frozenset:
        raise NotImplementedError


class GreedyBallConnector(ConnectorStrategy):
    """Largest arena of the residual; ties broken by smallest center."""

    tag = "greedy_largest_ball"

    def pick(self, residual):
        c, arena = max(_arenas(self.g, self.cfg, residual),
                       key=lambda ca: (len(ca[1]), -ca[0]))
        return ConnectorMove(c, arena)


class RandomConnector(ConnectorStrategy):
    """Arena of a uniformly random residual center."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tag = f"random(seed={seed})"

    def start(self, g, cfg):
        super().start(g, cfg)
        self._rng = Rng(self.seed)

    def pick(self, residual):
        c = self._rng.choice(sorted(residual))
        return ConnectorMove(c, _arena(self.g, self.cfg, residual, c))


class ExhaustiveConnector(ConnectorStrategy):
    """Optimal (game-value maximizing) play; capped."""

    tag = "exhaustive"

    def start(self, g, cfg):
        super().start(g, cfg)
        self._engine = _Engine(g, cfg)

    def pick(self, residual):
        move, _ = self._engine.best_connector_move(residual)
        return move


class WcolSplitter(SplitterStrategy):
    """Delete the order-minimum of the connector's move.  Every deleted
    vertex is weakly 2r-reachable (under the order) from all later residual
    vertices, so the game ends within wcol_2r of the order."""

    tag = "wcol_min"

    def __init__(self, order: VertexOrder, r: int):
        self.order = order
        self.r = r

    def start(self, g, cfg):
        super().start(g, cfg)
        if len(self.order.perm) != g.n:
            raise PreconditionError("order does not cover the game graph")

    def pick(self, residual, move, round_no):
        return frozenset({min(move.vertices, key=lambda v: self.order.rank[v])})


class UqwBatchSplitter(SplitterStrategy):
    """Quasi-wideness batch strategy: delete, in round i+1, the residual part
    of one short path from each earlier center to the current one (the whole
    center in round 1).  Batch i+1 therefore has at most i*(r+1) vertices,
    so the config must allow batches of round_cap*(r+1)."""

    tag = "uqw_paths"

    def __init__(self, r: int):
        self.r = r

    def start(self, g, cfg):
        super().start(g, cfg)
        if cfg.kind != "splitter":
            raise GraphInputError("uqw_paths plays the radius-r game only")
        if cfg.radius != self.r:
            raise PreconditionError(
                f"strategy built for radius {self.r}, game uses {cfg.radius}")
        need = cfg.round_cap * (self.r + 1)
        if cfg.batch_limit < need:
            raise PreconditionError(
                f"batch_limit {cfg.batch_limit} below round_cap*(r+1) = {need}")
        self._history = []  # (center_j, move_j vertices)

    def pick(self, residual, move, round_no):
        v_new = move.center
        batch = {v_new} if not self._history else set()
        for (v_old, set_old) in self._history:
            dist = bfs_distances(self.g, (v_old,), None, set_old)
            if v_new not in dist:
                raise StrategyBugError(
                    f"center {v_new} not inside earlier move of {v_old}",
                    round_no, "splitter")
            # walk one shortest path back to v_old inside that old move
            path = [v_new]
            x = v_new
            while x != v_old:
                x = min(w for w in self.g.adj[x] if w in dist and dist[w] == dist[x] - 1)
                path.append(x)
            batch |= set(path) & move.vertices
        limit = max(1, (round_no - 1) * (self.cfg.radius + 1))
        if len(batch) > limit:
            raise StrategyBugError(
                f"batch {sorted(batch)} of {len(batch)} breaks the {limit} bound",
                round_no, "splitter")
        self._history.append((v_new, move.vertices))
        return frozenset(batch)


class ExhaustiveSplitter(SplitterStrategy):
    """Optimal (game-value minimizing) batches; capped."""

    tag = "exhaustive"

    def start(self, g, cfg):
        super().start(g, cfg)
        self._engine = _Engine(g, cfg)

    def pick(self, residual, move, round_no):
        batch, _ = self._engine.best_splitter_batch(move)
        return batch


# ------------------------------------------------------------------ engine

class _Engine:
    """Minimax over residual vertex sets, kept as bitmasks and memoized.  The
    connector only ever needs the inclusion-maximal arenas (a bigger arena
    never hurts it).

    Two cuts skip moves and batches that cannot change an answer.  A
    splitter that deletes batch_limit arena vertices a round ends a move
    within ceil(|arena| / batch_limit) rounds, and the moves come largest
    first, so the connector stops at the first move whose bound is no more
    than the best response so far.  No batch does better than the least
    value any batch can reach, 1 when the whole arena fits in one batch and
    2 otherwise, so the splitter stops at the first batch that reaches it.
    Both sides keep the first strict improvement in the same order as a full
    search, and a cut move or batch cannot strictly improve, so values,
    moves and batches stay those of the full search."""

    def __init__(self, g: Graph, cfg: GameConfig):
        require_at_most("game_cap", g.n, GAME_CAP, "vertices")
        self.g, self.cfg = g, cfg
        self._masks = g.adjacency_masks()
        self._memo = {0: 0}  # an empty residual: the game is over

    def _moves(self, residual: int) -> list:
        """(center, arena) of the distinct inclusion-maximal arenas, largest
        first, then by center; the center of an arena is its least one."""
        masks, reach = self._masks, self.cfg.reach
        if reach is None:  # components: disjoint, so each one is maximal
            moves = [((a & -a).bit_length() - 1, a) for a in mask_components(masks, residual)]
        else:
            arenas = {}
            for c in iter_bits(residual):
                arenas.setdefault(mask_ball(masks, 1 << c, residual, reach)[0], c)
            moves = [(c, a) for a, c in arenas.items()
                     if not any(a | other == other != a for other in arenas)]
        moves.sort(key=lambda ca: (-ca[1].bit_count(), ca[0]))
        return moves

    def _value(self, residual: int) -> int:
        got = self._memo.get(residual)
        if got is None:
            got = self._memo[residual] = self._best_move(residual)[2]
        return got

    def _best_move(self, residual: int):
        limit = self.cfg.batch_limit
        best = None
        for c, arena in self._moves(residual):
            if best is not None and -(-arena.bit_count() // limit) <= best[2]:
                break  # the splitter ends this move and every later one in time
            resp = self._best_batch(arena)[1]
            if best is None or resp > best[2]:
                best = (c, arena, resp)
        return best

    def _best_batch(self, arena: int):
        """Batches by size, then as `combinations` of the arena's vertices in
        increasing order."""
        bits = [1 << v for v in iter_bits(arena)]
        limit = self.cfg.batch_limit
        least = 1 if len(bits) <= limit else 2
        best = None
        for size in range(1, min(limit, len(bits)) + 1):
            for combo in combinations(bits, size):
                batch = sum(combo)
                val = 1 + self._value(arena ^ batch)
                if best is None or val < best[1]:
                    best = (batch, val)
                    if val <= least:
                        return best
        return best

    def best_connector_move(self, residual: frozenset):
        c, arena, resp = self._best_move(sum(1 << v for v in residual))
        return ConnectorMove(c, frozenset(iter_bits(arena))), resp

    def best_splitter_batch(self, move: ConnectorMove):
        batch, val = self._best_batch(sum(1 << v for v in move.vertices))
        return frozenset(iter_bits(batch)), val


def game_value(g: Graph, cfg: GameConfig) -> int:
    """Optimal number of rounds, ignoring the round cap.  Equals treedepth
    for the treedepth game."""
    return _Engine(g, cfg)._value((1 << g.n) - 1)


# -------------------------------------------------------------------- play

def play(g: Graph, cfg: GameConfig, sp: SplitterStrategy,
         co: ConnectorStrategy) -> GameTranscript:
    """Run one game; every move from either strategy is re-validated before
    it is applied."""
    co.start(g, cfg)
    sp.start(g, cfg)
    residual = frozenset(range(g.n))
    rounds = []
    for round_no in range(1, cfg.round_cap + 1):
        if not residual:
            break
        move = co.pick(residual)
        bad = connector_move_violations(g, cfg, residual, move)
        if bad:
            raise StrategyBugError("; ".join(bad), round_no, f"connector {co.tag}")
        batch = sp.pick(residual, move, round_no)
        bad = splitter_move_violations(cfg, move, batch)
        if bad:
            raise StrategyBugError("; ".join(bad), round_no, f"splitter {sp.tag}")
        residual = move.vertices - batch
        rounds.append(GameRound(move, batch, residual))
    winner = "splitter" if not residual else "connector"
    transcript = GameTranscript(cfg, rounds, winner, co.tag, sp.tag)
    raise_if_invalid(validate_transcript(g, transcript),
                     "engine produced an invalid transcript", transcript=transcript)
    return transcript


def wcol_splitter_strategy(pi: VertexOrder, r: int) -> WcolSplitter:
    """Strategy winning the radius-r game within wcol_of_order(g, pi, 2r)
    rounds (and the treedepth game within the order's induced forest depth)."""
    return WcolSplitter(pi, r)
