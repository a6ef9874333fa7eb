"""Classical weighted-scoring evaluators and the sign-based winner pick.

Two stateless scoring rules over a game state:

* simple score: linear blend of banked resources, cargo in worker
  transport, and cost-weighted unit health.
* attrition-law score: adds explicit base/barracks health terms and scales
  the combat-unit term by N^0.7 (force concentration: strength grows
  superlinearly with army size).

The published source defers the weight values to engine internals it never
prints. The module constants below are this lab's own documented choice,
fixed for every run; the unit costs are the simulator's build costs
(`sim.rules.COST`). Scores accumulate cell contributions in row-major scan
order, so independent re-implementations that follow the same order can
compare bit-exactly.
"""

from __future__ import annotations

from .sim.rules import COMBAT_KINDS, COST, MAX_HP, UnitKind
from .sim.state import GameState

RESOURCE_WEIGHT = 20.0
CARGO_WEIGHT = 10.0
UNIT_WEIGHT = 40.0
BASE_WEIGHT = 50.0
BARRACKS_WEIGHT = 25.0
COMBAT_STRENGTH: dict[UnitKind, float] = {
    UnitKind.WORKER: 1.0,
    UnitKind.LIGHT: 4.0,
    UnitKind.HEAVY: 8.0,
    UnitKind.RANGED: 2.0,
}
CONCENTRATION_EXPONENT = 0.7


def simple_eval(state: GameState, player: int) -> float:
    """Linear score: resources + carried cargo + cost-weighted unit health.

    A unit weighs its build cost from the simulator's table; bases are never
    built, so they weigh 0 (their loss still ends the match).
    """
    score = RESOURCE_WEIGHT * state.store[player]
    for _, u in state.units_of(player):
        if u.kind == UnitKind.WORKER:
            score += CARGO_WEIGHT * u.carried
        score += UNIT_WEIGHT * COST.get(u.kind, 0) * u.hp / MAX_HP[u.kind]
    return score


def lanchester_eval(state: GameState, player: int) -> float:
    """Attrition-law score with an N^0.7 force-concentration factor."""
    score = RESOURCE_WEIGHT * state.store[player]
    strength = 0.0
    n_combat = 0
    for _, u in state.units_of(player):
        ratio = u.hp / MAX_HP[u.kind]
        if u.kind == UnitKind.WORKER:
            score += CARGO_WEIGHT * u.carried
        if u.kind == UnitKind.BASE:
            score += BASE_WEIGHT * ratio
        elif u.kind == UnitKind.BARRACKS:
            score += BARRACKS_WEIGHT * ratio
        elif u.kind in COMBAT_KINDS:
            strength += COMBAT_STRENGTH[u.kind] * ratio
            n_combat += 1
    score += strength * n_combat ** CONCENTRATION_EXPONENT
    return score


def winner_by_score(score_p1: float, score_p2: float) -> str:
    """'p1' when player 1 scores higher, 'p2' when lower, 'tie' on equality.

    Ties count as incorrect predictions wherever accuracy is scored.
    """
    diff = score_p1 - score_p2
    if diff > 0:
        return "p1"
    if diff < 0:
        return "p2"
    return "tie"
