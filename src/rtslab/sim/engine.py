"""Deterministic match engine.

Both strategies plan against the same pre-step state, then actions resolve
in fixed passes: attacks (simultaneous), harvests, deposits, builds and
trains (one pass), moves. Within a pass, actions apply in row-major order
of the acting unit's cell. Anything invalid at application time (dead
actor, occupied target, insufficient store) is dropped, so a strategy can
never corrupt the state; each dropped action logs one "dropping ..." line
at debug level where it is judged.

`run_match` stops stepping at a fixed point: a step that moved neither
player's rng stream and left the units and stores as they were. The
strategies plan from (state, player, rng) alone, so every later step
would repeat it; the match runs out the clock without playing them. The
"dropping ..." lines thus come from played steps only. A skipped step
would repeat the fixed-point step's drops, and in today's roster that
step plans nothing.

Planning leaves the pre-step state as it is: the step is applied to a
clone, so both plans of a step (and any later plan on the same state) can
share one unit index (`GameState.unit_index`). A caller that plans on a
state keeps to the same contract and does not mutate it afterwards.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..rng import SplitMix64, derive_seed
from .encode import raw_planes
from .rules import (
    ATTACK_RANGE,
    BARRACKS,
    BASE,
    CARRY_CAPACITY,
    COST,
    DAMAGE,
    HARVEST_AMOUNT,
    MAX_HP,
    MOBILE_KINDS,
    P1,
    P2,
    RESOURCE,
    STORE_CAP,
    TRAINABLE_AT_BARRACKS,
    WORKER,
    UnitKind,
)
from .state import GameState, Position, Unit, manhattan, standard_start

log = logging.getLogger(__name__)

# the pass each action kind resolves in; builds and trains share one
_PASS = {"attack": 0, "harvest": 1, "deposit": 2, "build": 3, "train": 3, "move": 4}
PHASES = tuple(_PASS)


class Action(NamedTuple):
    kind: str  # one of PHASES
    actor: Position
    target: Position | None = None
    produce: UnitKind | None = None


def _merge_plans(state, plans: dict[int, list[Action]]) -> list[tuple[int, Action]]:
    """One action per unit, actor ownership enforced, in pass order and
    row-major within a pass."""
    chosen: dict[Position, tuple[int, Position, int, Action]] = {}
    phase_of = _PASS.get
    unit_at = state.units.get
    for player, actions in plans.items():
        for act in actions:
            phase = phase_of(act.kind)
            if phase is None:
                log.debug("dropping unknown action kind %r", act.kind)
                continue
            actor = act.actor
            unit = unit_at(actor)
            if unit is None or unit.owner != player:
                log.debug("dropping action by %s on foreign/empty cell %s", player, actor)
                continue
            if actor in chosen:
                log.debug("dropping second order for %s: %s", actor, act)
                continue
            chosen[actor] = (phase, actor, player, act)
    # (pass, actor) is unique per entry, so the sort never compares actions
    return [(player, act) for _, _, player, act in sorted(chosen.values())]


def _attack_damage(s: GameState, player: int, act: Action) -> int:
    """The damage `act` deals, judged against `s` before any attack lands;
    0 if it is illegal."""
    attacker = s.units.get(act.actor)
    target = s.units.get(act.target)
    if (
        attacker is None
        or target is None
        or target.owner in (0, player)
        or manhattan(act.actor, act.target) > ATTACK_RANGE.get(attacker.kind, 0)
    ):
        return 0
    return DAMAGE.get(attacker.kind, 0)


def _resolve(s: GameState, player: int, act: Action) -> bool:
    """Apply a harvest, deposit, build, train or move to `s` if it is legal;
    whether it applied."""
    units = s.units
    src, dst = act.actor, act.target
    actor = units.get(src)
    if actor is None or dst is None:
        return False
    dr, dc = dst[0] - src[0], dst[1] - src[1]
    if (dr if dr >= 0 else -dr) + (dc if dc >= 0 else -dc) != 1:
        return False
    target = units.get(dst)
    kind = act.kind
    if kind == "move":  # the most common kind: tried first
        if target is not None or actor.kind not in MOBILE_KINDS or not s.in_bounds(dst):
            return False
        del units[src]
        units[dst] = actor
        return True
    if kind == "harvest":
        if (
            actor.kind is not WORKER
            or actor.carried >= CARRY_CAPACITY
            or target is None
            or target.kind is not RESOURCE
            or target.carried <= 0
        ):
            return False
        take = min(HARVEST_AMOUNT, target.carried, CARRY_CAPACITY - actor.carried)
        units[src] = Unit(actor.kind, actor.hp, actor.owner, actor.carried + take)
        if target.carried - take <= 0:
            del units[dst]
        else:
            units[dst] = Unit(target.kind, target.hp, target.owner, target.carried - take)
        return True
    if kind == "deposit":
        if (
            actor.kind is not WORKER
            or actor.carried <= 0
            or target is None
            or target.kind is not BASE
            or target.owner != player
        ):
            return False
        s.store[player] = min(STORE_CAP, s.store[player] + actor.carried)
        units[src] = Unit(actor.kind, actor.hp, actor.owner, 0)
        return True
    # build and train need an empty cell on the map
    if target is not None or not s.in_bounds(dst):
        return False
    if kind == "build":
        legal = actor.kind is WORKER and act.produce == BARRACKS
    else:
        legal = (actor.kind is BASE and act.produce == WORKER) or (
            actor.kind is BARRACKS and act.produce in TRAINABLE_AT_BARRACKS
        )
    if not legal or s.store[player] < COST[act.produce]:
        return False
    s.store[player] -= COST[act.produce]
    units[dst] = Unit(kind=act.produce, hp=MAX_HP[act.produce], owner=player)
    return True


def step(
    state: GameState,
    strat1,
    strat2,
    rngs: tuple[SplitMix64, SplitMix64],
    events: list[tuple[int, Action]] | None = None,
) -> GameState:
    """Advance one tick. Pure given (state, strategies, rng states).

    Each applied action is appended to `events` as (player, action), in the
    order it resolved; each dropped one logs its line as it is judged."""
    plans = {
        P1: strat1.plan(state, P1, rngs[0]),
        P2: strat2.plan(state, P2, rngs[1]),
    }
    ordered = _merge_plans(state, plans)
    s = state.clone()
    # Attacks hit simultaneously: judge all against the pre-attack state,
    # then apply the summed damage.
    damage: dict[Position, int] = {}
    for player, act in ordered:
        if act.kind == "attack":
            dmg = _attack_damage(s, player, act)
            if dmg > 0:
                damage[act.target] = damage.get(act.target, 0) + dmg
                if events is not None:
                    events.append((player, act))
            else:
                log.debug("dropping invalid %s %s", act.kind, act)
    for pos, dmg in sorted(damage.items()):
        victim = s.units[pos]
        hp = victim.hp - dmg
        if hp <= 0:
            del s.units[pos]
        else:
            s.units[pos] = Unit(victim.kind, hp, victim.owner, victim.carried)
    for player, act in ordered:
        if act.kind != "attack":
            if _resolve(s, player, act):
                if events is not None:
                    events.append((player, act))
            else:
                log.debug("dropping invalid %s %s", act.kind, act)
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
    b1 = b2 = 0
    for u in state.units.values():
        if u.kind is BASE:
            if u.owner == P1:
                b1 += 1
            else:
                b2 += 1
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

    A step that leaves both rng streams at the position where they were
    (`SplitMix64.position`: the u64 state and any pending `normal` spare)
    and the units and stores as they were is a fixed point: the strategies
    plan from (state, player, rng) alone, so every later step repeats it.
    Taking a pending spare moves a stream's position. The match then
    ends at `max_steps`, scored by the standing units, without playing the
    rest: the remaining captured frames share one read-only planes array,
    and the skipped steps call neither strategy nor log a "dropping ..."
    line. The record is the one every step played would give.
    """
    state = standard_start(size)
    rng1, rng2 = rngs = (SplitMix64(derive_seed(seed, P1)), SplitMix64(derive_seed(seed, P2)))
    frames: list[tuple[int, np.ndarray]] = []
    winner: str | None = None
    while state.step < max_steps:
        drawn = (rng1.position, rng2.position)
        before, state = state, step(state, strat_a, strat_b, rngs)
        if state.step % capture_every == 0:
            frames.append((state.step, raw_planes(state)))
        winner = check_winner(state)
        if winner is not None:
            break
        # rng positions first: a strategy that draws every step never
        # pays for the dict comparisons
        if (
            (rng1.position, rng2.position) == drawn
            and state.units == before.units
            and state.store == before.store
        ):
            planes = raw_planes(state)
            planes.flags.writeable = False  # shared: a write would alter every tail frame
            frames.extend(
                (k, planes) for k in range(state.step + 1, max_steps + 1)
                if k % capture_every == 0
            )
            state.step = max_steps
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


def frames_until(record: MatchRecord, step: int) -> list[tuple[int, np.ndarray]]:
    """The frames seen at `step`: every frame with step <= `step`, or the
    first frame if none is that early. Every cut of a match is one."""
    if not record.frames:
        raise ValueError("record has no frames")
    return [f for f in record.frames if f[0] <= step] or record.frames[:1]


def visible_prefix(record: MatchRecord, progress: float) -> list[tuple[int, np.ndarray]]:
    """The frames seen at `progress`: `frames_until` step ceil(progress * duration)."""
    if not 0.0 < progress <= 1.0:
        raise ValueError(f"progress must be in (0, 1], got {progress}")
    return frames_until(record, math.ceil(progress * record.duration))


def sample_timeline(prefix: list[tuple[int, np.ndarray]], frame_count: int) -> np.ndarray:
    """Select `frame_count` evenly spaced frames from the visible frames
    `prefix` (a cut: `frames_until` or `visible_prefix`).

    For P prefix frames, frame i comes from prefix index
    round_half_up(i*(P-1)/(T-1)); T=1 degenerates to the last prefix frame.
    Returns the selected raw frames, shape (T, C, H, W), in the frames'
    own dtype (uint8 for a played or read record); a model normalizes
    them only when it forwards a batch (`train.loop`).
    """
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    last = len(prefix) - 1
    if frame_count == 1:
        picks = [last]
    else:
        picks = [
            int(math.floor(i * last / (frame_count - 1) + 0.5))
            for i in range(frame_count)
        ]
    return np.stack([prefix[i][1] for i in picks])
