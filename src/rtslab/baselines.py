"""Classical weighted-scoring evaluators and the sign-based winner pick.

Two stateless scoring rules over a game state:

* simple score: linear blend of banked resources, cargo in worker
  transport, and cost-weighted unit health.
* attrition-law score: adds explicit base/barracks health terms and scales
  the combat-unit term by N^0.7 (force concentration: strength grows
  superlinearly with army size).

The published source defers the weight values to engine internals it never
prints; the defaults here are this lab's own documented choice and every
one of them is configurable. Scores accumulate cell contributions in
row-major scan order, so independent re-implementations that follow the
same order can compare bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .sim.rules import COMBAT_KINDS, MAX_HP, UnitKind
from .sim.state import GameState


def _default_combat_strength() -> dict[UnitKind, float]:
    return {
        UnitKind.WORKER: 1.0,
        UnitKind.LIGHT: 4.0,
        UnitKind.HEAVY: 8.0,
        UnitKind.RANGED: 2.0,
    }


def _default_unit_cost() -> dict[UnitKind, float]:
    # build costs from the simulator's table; bases are never built, so the
    # simple score gives them weight 0 (their loss still ends the match)
    return {
        UnitKind.BASE: 0.0,
        UnitKind.BARRACKS: 4.0,
        UnitKind.WORKER: 1.0,
        UnitKind.LIGHT: 2.0,
        UnitKind.HEAVY: 3.0,
        UnitKind.RANGED: 2.0,
    }


@dataclass(frozen=True)
class EvalWeights:
    resources: float = 20.0
    worker_cargo: float = 10.0
    unit_value: float = 40.0
    base_value: float = 50.0
    barracks_value: float = 25.0
    combat_strength: dict[UnitKind, float] = field(default_factory=_default_combat_strength)
    unit_cost: dict[UnitKind, float] = field(default_factory=_default_unit_cost)
    concentration_exponent: float = 0.7

    def __post_init__(self):
        scalars = (
            self.resources,
            self.worker_cargo,
            self.unit_value,
            self.base_value,
            self.barracks_value,
            *self.combat_strength.values(),
            *self.unit_cost.values(),
        )
        if any(w < 0 or w != w for w in scalars):
            raise ValueError("all evaluator weights must be finite and >= 0")
        if not 0.0 < self.concentration_exponent <= 1.0:
            raise ValueError(
                f"concentration exponent must be in (0, 1], got {self.concentration_exponent}"
            )


DEFAULT_WEIGHTS = EvalWeights()


def simple_eval(state: GameState, player: int, weights: EvalWeights = DEFAULT_WEIGHTS) -> float:
    """Linear score: resources + carried cargo + cost-weighted unit health."""
    score = weights.resources * state.store[player]
    for _, u in state.units_of(player):
        if u.kind == UnitKind.WORKER:
            score += weights.worker_cargo * u.carried
        score += (
            weights.unit_value
            * weights.unit_cost.get(u.kind, 0.0)
            * u.hp
            / MAX_HP[u.kind]
        )
    return score


def lanchester_eval(
    state: GameState, player: int, weights: EvalWeights = DEFAULT_WEIGHTS
) -> float:
    """Attrition-law score with an N^0.7 force-concentration factor."""
    score = weights.resources * state.store[player]
    strength = 0.0
    n_combat = 0
    for _, u in state.units_of(player):
        ratio = u.hp / MAX_HP[u.kind]
        if u.kind == UnitKind.WORKER:
            score += weights.worker_cargo * u.carried
        if u.kind == UnitKind.BASE:
            score += weights.base_value * ratio
        elif u.kind == UnitKind.BARRACKS:
            score += weights.barracks_value * ratio
        elif u.kind in COMBAT_KINDS:
            strength += weights.combat_strength.get(u.kind, 0.0) * ratio
            n_combat += 1
    score += strength * n_combat ** weights.concentration_exponent
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


def predict_winner_classical(
    state: GameState, evaluator, weights: EvalWeights = DEFAULT_WEIGHTS
) -> str:
    """The sign rule of `winner_by_score` applied to both players' scores."""
    return winner_by_score(evaluator(state, 1, weights), evaluator(state, 2, weights))
