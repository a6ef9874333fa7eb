"""Deterministic match engine.

Both strategies plan against the same pre-step state, then actions resolve
in fixed phases: attacks (simultaneous), harvest, deposit, build, train,
move. Within a phase, actions apply in row-major order of the acting
unit's cell. Anything invalid at application time (dead actor, occupied
target, insufficient store) is dropped and logged at debug level, so a
strategy can never corrupt the state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from ..rng import SplitMix64, derive_seed
from .encode import normalize_planes, raw_planes
from .rules import (
    ATTACK_RANGE,
    CARRY_CAPACITY,
    COST,
    DAMAGE,
    HARVEST_AMOUNT,
    MAX_HP,
    MOBILE_KINDS,
    P1,
    P2,
    STORE_CAP,
    TRAINABLE_AT_BARRACKS,
    UnitKind,
)
from .state import GameState, Position, Unit, manhattan, standard_start

log = logging.getLogger(__name__)

PHASES = ("attack", "harvest", "deposit", "build", "train", "move")


@dataclass(frozen=True)
class Action:
    kind: str  # one of PHASES
    actor: Position
    target: Position | None = None
    produce: UnitKind | None = None


@dataclass(frozen=True)
class Event:
    """An action that actually applied (observability for tests/logs)."""

    phase: str
    player: int
    actor: Position
    target: Position | None = None
    produce: UnitKind | None = None


def _merge_plans(state, plans: dict[int, list[Action]]) -> list[tuple[int, Action]]:
    """One action per unit, actor ownership enforced, row-major apply order."""
    chosen: dict[Position, tuple[int, Action]] = {}
    for player, actions in plans.items():
        for act in actions:
            if act.kind not in PHASES:
                log.debug("dropping unknown action kind %r", act.kind)
                continue
            unit = state.units.get(act.actor)
            if unit is None or unit.owner != player:
                log.debug("dropping action by %s on foreign/empty cell %s", player, act.actor)
                continue
            if act.actor in chosen:
                continue
            chosen[act.actor] = (player, act)
    return [chosen[pos] for pos in sorted(chosen)]


def step(
    state: GameState,
    strat1,
    strat2,
    rngs: tuple[SplitMix64, SplitMix64],
    events: list[Event] | None = None,
) -> GameState:
    """Advance one tick. Pure given (state, strategies, rng states)."""
    plans = {
        P1: strat1.plan(state, P1, rngs[0]),
        P2: strat2.plan(state, P2, rngs[1]),
    }
    ordered = _merge_plans(state, plans)
    s = state.clone()

    def record(phase, player, act):
        if events is not None:
            events.append(Event(phase, player, act.actor, act.target, act.produce))

    # Attacks hit simultaneously: validate all against the pre-phase state,
    # then apply the summed damage.
    damage: dict[Position, int] = {}
    for player, act in ordered:
        if act.kind != "attack":
            continue
        attacker = s.units.get(act.actor)
        target = s.units.get(act.target) if act.target else None
        if attacker is None or target is None:
            continue
        dmg = DAMAGE.get(attacker.kind, 0)
        if (
            dmg <= 0
            or target.owner in (0, player)
            or manhattan(act.actor, act.target) > ATTACK_RANGE.get(attacker.kind, 0)
        ):
            log.debug("dropping invalid attack %s", act)
            continue
        damage[act.target] = damage.get(act.target, 0) + dmg
        record("attack", player, act)
    for pos, dmg in sorted(damage.items()):
        victim = s.units[pos]
        hp = victim.hp - dmg
        if hp <= 0:
            del s.units[pos]
        else:
            s.units[pos] = replace(victim, hp=hp)

    for player, act in ordered:
        if act.kind != "harvest":
            continue
        worker = s.units.get(act.actor)
        node = s.units.get(act.target) if act.target else None
        if (
            worker is None
            or worker.kind != UnitKind.WORKER
            or node is None
            or node.kind != UnitKind.RESOURCE
            or node.carried <= 0
            or manhattan(act.actor, act.target) != 1
            or worker.carried >= CARRY_CAPACITY
        ):
            log.debug("dropping invalid harvest %s", act)
            continue
        take = min(HARVEST_AMOUNT, node.carried, CARRY_CAPACITY - worker.carried)
        s.units[act.actor] = replace(worker, carried=worker.carried + take)
        if node.carried - take <= 0:
            del s.units[act.target]
        else:
            s.units[act.target] = replace(node, carried=node.carried - take)
        record("harvest", player, act)

    for player, act in ordered:
        if act.kind != "deposit":
            continue
        worker = s.units.get(act.actor)
        base = s.units.get(act.target) if act.target else None
        if (
            worker is None
            or worker.kind != UnitKind.WORKER
            or worker.carried <= 0
            or base is None
            or base.kind != UnitKind.BASE
            or base.owner != player
            or manhattan(act.actor, act.target) != 1
        ):
            log.debug("dropping invalid deposit %s", act)
            continue
        s.store[player] = min(STORE_CAP, s.store[player] + worker.carried)
        s.units[act.actor] = replace(worker, carried=0)
        record("deposit", player, act)

    for player, act in ordered:
        if act.kind not in ("build", "train"):
            continue
        actor = s.units.get(act.actor)
        if actor is None or act.produce is None or act.target is None:
            continue
        if act.kind == "build":
            legal = actor.kind == UnitKind.WORKER and act.produce == UnitKind.BARRACKS
        else:
            legal = (actor.kind == UnitKind.BASE and act.produce == UnitKind.WORKER) or (
                actor.kind == UnitKind.BARRACKS and act.produce in TRAINABLE_AT_BARRACKS
            )
        cost = COST.get(act.produce, 10**9)
        if (
            not legal
            or s.store[player] < cost
            or not s.in_bounds(act.target)
            or act.target in s.units
            or manhattan(act.actor, act.target) != 1
        ):
            log.debug("dropping invalid %s %s", act.kind, act)
            continue
        s.store[player] -= cost
        s.units[act.target] = Unit(kind=act.produce, hp=MAX_HP[act.produce], owner=player)
        record(act.kind, player, act)

    for player, act in ordered:
        if act.kind != "move":
            continue
        mover = s.units.get(act.actor)
        if (
            mover is None
            or mover.kind not in MOBILE_KINDS
            or act.target is None
            or not s.in_bounds(act.target)
            or act.target in s.units
            or manhattan(act.actor, act.target) != 1
        ):
            log.debug("dropping invalid move %s", act)
            continue
        del s.units[act.actor]
        s.units[act.target] = mover
        record("move", player, act)

    s.step += 1
    return s


@dataclass
class MatchRecord:
    """One finished match: metadata, winner label, sampled frame timeline."""

    strategy_a: str
    strategy_b: str
    seed: int
    winner: str  # 'p1' | 'p2' | 'draw'
    duration: int
    frames: list[tuple[int, np.ndarray]]  # (step, raw int planes (5,H,W))


def _standing_winner(state: GameState) -> str:
    n1, n2 = state.count_of(P1), state.count_of(P2)
    if n1 > n2:
        return "p1"
    if n2 > n1:
        return "p2"
    return "draw"


def check_winner(state: GameState) -> str | None:
    """Base destruction ends the match; mutual destruction falls back to counts."""
    b1, b2 = state.bases_of(P1), state.bases_of(P2)
    if b1 > 0 and b2 > 0:
        return None
    if b1 == 0 and b2 == 0:
        return _standing_winner(state)
    return "p2" if b1 == 0 else "p1"


def run_match(
    strat_a,
    strat_b,
    seed: int,
    max_steps: int = 1000,
    capture_every: int = 2,
    size: int = 16,
) -> MatchRecord:
    """Play strat_a as player 1 vs strat_b as player 2 until a base falls
    or `max_steps` elapse; timeouts go to the side with more surviving
    units (all owned units count), equal counts are a draw.

    Frames are captured after every `capture_every`-th step, plus the
    terminal state if it would otherwise be missed.
    """
    state = standard_start(size)
    rngs = (SplitMix64(derive_seed(seed, P1)), SplitMix64(derive_seed(seed, P2)))
    frames: list[tuple[int, np.ndarray]] = []
    winner: str | None = None
    while state.step < max_steps:
        state = step(state, strat_a, strat_b, rngs)
        if state.step % capture_every == 0:
            frames.append((state.step, raw_planes(state)))
        winner = check_winner(state)
        if winner is not None:
            break
    if winner is None:
        winner = _standing_winner(state)
    if not frames or frames[-1][0] != state.step:
        frames.append((state.step, raw_planes(state)))
    return MatchRecord(
        strategy_a=strat_a.name,
        strategy_b=strat_b.name,
        seed=seed,
        winner=winner,
        duration=state.step,
        frames=frames,
    )


def visible_prefix(record: MatchRecord, progress: float) -> list[tuple[int, np.ndarray]]:
    """The frames seen at `progress`: every frame with step <=
    ceil(progress * duration), or the first frame if none is that early."""
    if not 0.0 < progress <= 1.0:
        raise ValueError(f"progress must be in (0, 1], got {progress}")
    if not record.frames:
        raise ValueError("record has no frames")
    cutoff = math.ceil(progress * record.duration)
    return [f for f in record.frames if f[0] <= cutoff] or record.frames[:1]


def sample_timeline(record: MatchRecord, frame_count: int, progress: float = 1.0) -> np.ndarray:
    """Select `frame_count` evenly spaced frames from the visible prefix.

    For P prefix frames (`visible_prefix`), frame i comes from prefix index
    round_half_up(i*(P-1)/(T-1)); T=1 degenerates to the last prefix frame.
    Returns normalized planes, shape (T, C, H, W).
    """
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    prefix = visible_prefix(record, progress)
    last = len(prefix) - 1
    if frame_count == 1:
        picks = [last]
    else:
        picks = [
            int(math.floor(i * last / (frame_count - 1) + 0.5))
            for i in range(frame_count)
        ]
    return np.stack([normalize_planes(prefix[i][1]) for i in picks])
