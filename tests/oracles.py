"""Independent re-implementations used as test oracles.

These deliberately re-derive each formula from scratch instead of calling
the library code they check. Accumulation runs in the same row-major order
as the library so exact float equality is meaningful.
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from rtslab import tensor as T
from rtslab.baselines import (
    BARRACKS_WEIGHT,
    BASE_WEIGHT,
    CARGO_WEIGHT,
    COMBAT_STRENGTH,
    CONCENTRATION_EXPONENT,
    RESOURCE_WEIGHT,
    UNIT_WEIGHT,
)
from rtslab.rng import SplitMix64
from rtslab.sim import UnitKind
from rtslab.sim.engine import Action
from rtslab.sim.rules import COST, MAX_HP, P1, P2
from rtslab.sim.state import GameState, Unit, empty_state

COMBAT = (UnitKind.WORKER, UnitKind.LIGHT, UnitKind.HEAVY, UnitKind.RANGED)


def oracle_simple(state: GameState, player: int) -> float:
    total = RESOURCE_WEIGHT * state.store[player]
    for pos in sorted(state.units):
        u = state.units[pos]
        if u.owner != player:
            continue
        if u.kind == UnitKind.WORKER:
            total += CARGO_WEIGHT * u.carried
        total += UNIT_WEIGHT * COST.get(u.kind, 0) * (u.hp / MAX_HP[u.kind])
    return total


def oracle_lanchester(state: GameState, player: int) -> float:
    total = RESOURCE_WEIGHT * state.store[player]
    army = 0.0
    n = 0
    for pos in sorted(state.units):
        u = state.units[pos]
        if u.owner != player:
            continue
        frac = u.hp / MAX_HP[u.kind]
        if u.kind == UnitKind.WORKER:
            total += CARGO_WEIGHT * u.carried
        if u.kind == UnitKind.BASE:
            total += BASE_WEIGHT * frac
        elif u.kind == UnitKind.BARRACKS:
            total += BARRACKS_WEIGHT * frac
        elif u.kind in COMBAT:
            army += COMBAT_STRENGTH[u.kind] * frac
            n += 1
    return total + army * n ** CONCENTRATION_EXPONENT


def oracle_read_dataset(path):
    """(header, matches) of a dataset file read with plain json.loads per
    line; each match's frames become (step, np.asarray(planes)) pairs."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    matches = []
    for line in lines[1:]:
        match = json.loads(line)
        match["frames"] = [(step, np.asarray(planes)) for step, planes in match["frames"]]
        matches.append(match)
    return json.loads(lines[0]), matches


def oracle_write_dataset(path, dataset) -> None:
    """A dataset file written with plain json.dumps per line: sorted keys,
    (",", ":") separators, frame planes through tolist()."""

    def dump(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    with open(path, "w", encoding="utf-8") as f:
        f.write(dump({"kind": "header", **asdict(dataset.header)}) + "\n")
        for rec in dataset.records:
            line = dump(
                {
                    "kind": "match",
                    "strategy_a": rec.strategy_a,
                    "strategy_b": rec.strategy_b,
                    "seed": rec.seed,
                    "winner": rec.winner,
                    "duration": rec.duration,
                    "frames": [[step, planes.tolist()] for step, planes in rec.frames],
                }
            )
            f.write(line + "\n")


def random_small_state(rng: SplitMix64) -> GameState:
    s = empty_state(size=8)
    s.store[P1] = rng.randrange(26)
    s.store[P2] = rng.randrange(26)
    kinds = list(UnitKind)
    for _ in range(rng.randrange(12) + 1):
        pos = (rng.randrange(8), rng.randrange(8))
        kind = kinds[rng.randrange(len(kinds))]
        owner = 0 if kind == UnitKind.RESOURCE else rng.randrange(2) + 1
        hp = rng.randrange(MAX_HP[kind]) + 1
        carried = rng.randrange(26) if kind in (UnitKind.WORKER, UnitKind.RESOURCE) else 0
        s.units[pos] = Unit(kind=kind, hp=hp, owner=owner, carried=carried)
    return s


def composed_attention(xq, xkv, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Multi-head attention built from primitive tape ops, one node per step.

    Same expressions in the same order as the fused ``T.attention``:
    projections, head split, scaled scores, softmax, mix, output projection.
    """
    g, sq, e = xq.shape
    sk = xkv.shape[1]
    dh = e // heads
    q = T.add(T.matmul(xq, wq), bq).reshape(g, sq, heads, dh).permute(0, 2, 1, 3)
    k = T.add(T.matmul(xkv, wk), bk).reshape(g, sk, heads, dh).permute(0, 2, 1, 3)
    v = T.add(T.matmul(xkv, wv), bv).reshape(g, sk, heads, dh).permute(0, 2, 1, 3)
    scores = T.mul(T.matmul(q, k.permute(0, 1, 3, 2)), 1.0 / math.sqrt(dh))
    mix = T.matmul(T.softmax(scores, axis=-1), v).permute(0, 2, 1, 3).reshape(g, sq, e)
    return T.add(T.matmul(mix, wo), bo)


# canonical neighbor order of the scripted strategies: up, left, right, down
_DIRS = ((-1, 0), (0, -1), (0, 1), (1, 0))


def _dist(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def oracle_nearest(state: GameState, pos, pred):
    """Strategy target search as a full scan of the map: the cell of the
    unit that passes pred(cell, unit), first by (manhattan, row, col)."""
    best = None
    best_key = None
    for q, u in state.units.items():
        if not pred(q, u):
            continue
        key = (_dist(pos, q), q[0], q[1])
        if best_key is None or key < best_key:
            best, best_key = q, key
    return best


def oracle_free_neighbors(state: GameState, pos):
    out = []
    for dr, dc in _DIRS:
        q = (pos[0] + dr, pos[1] + dc)
        if 0 <= q[0] < state.height and 0 <= q[1] < state.width and q not in state.units:
            out.append(q)
    return out


def oracle_step_toward(state: GameState, src, dst):
    """The free neighbor first by (distance to dst, row, col), if it is closer."""
    options = oracle_free_neighbors(state, src)
    if not options:
        return None
    best = min(options, key=lambda q: (_dist(q, dst), q[0], q[1]))
    if _dist(best, dst) >= _dist(src, dst):
        return None
    return Action("move", src, best)


def oracle_attack_or_advance(state: GameState, player: int, pos, reach: int):
    """Two scans: the nearest enemy in reach to attack, else the nearest
    enemy to step toward."""
    enemy = 3 - player
    in_reach = oracle_nearest(
        state, pos, lambda q, u: u.owner == enemy and _dist(pos, q) <= reach
    )
    if in_reach is not None:
        return Action("attack", pos, in_reach)
    target = oracle_nearest(state, pos, lambda q, u: u.owner == enemy)
    if target is None:
        return None
    return oracle_step_toward(state, pos, target)
