"""Independent re-implementations used as test oracles.

These deliberately re-derive each formula from scratch instead of calling
the library code they check. Accumulation runs in the same row-major order
as the library so exact float equality is meaningful.
"""

import math

from rtslab import tensor as T
from rtslab.baselines import EvalWeights
from rtslab.rng import SplitMix64
from rtslab.sim import UnitKind
from rtslab.sim.rules import MAX_HP, P1, P2
from rtslab.sim.state import GameState, Unit, empty_state

COMBAT = (UnitKind.WORKER, UnitKind.LIGHT, UnitKind.HEAVY, UnitKind.RANGED)


def oracle_simple(state: GameState, player: int, w: EvalWeights) -> float:
    total = w.resources * state.store[player]
    for pos in sorted(state.units):
        u = state.units[pos]
        if u.owner != player:
            continue
        if u.kind == UnitKind.WORKER:
            total += w.worker_cargo * u.carried
        total += w.unit_value * w.unit_cost.get(u.kind, 0.0) * (u.hp / MAX_HP[u.kind])
    return total


def oracle_lanchester(state: GameState, player: int, w: EvalWeights) -> float:
    total = w.resources * state.store[player]
    army = 0.0
    n = 0
    for pos in sorted(state.units):
        u = state.units[pos]
        if u.owner != player:
            continue
        frac = u.hp / MAX_HP[u.kind]
        if u.kind == UnitKind.WORKER:
            total += w.worker_cargo * u.carried
        if u.kind == UnitKind.BASE:
            total += w.base_value * frac
        elif u.kind == UnitKind.BARRACKS:
            total += w.barracks_value * frac
        elif u.kind in COMBAT:
            army += w.combat_strength.get(u.kind, 0.0) * frac
            n += 1
    return total + army * n ** w.concentration_exponent


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


def composed_layer_norm(a, gamma, beta, eps=1e-5):
    """LayerNorm over the last axis from primitive tape ops."""
    mu = T.mean(a, axis=-1, keepdims=True)
    centered = T.sub(a, mu)
    var = T.mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.power(T.add(var, eps), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gamma), beta)
