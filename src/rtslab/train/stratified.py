"""Progress-stratified evaluation: one predictions table and its summaries.

For each progress fraction rho, every test match is re-evaluated as if
only the first ceil(rho * duration) steps had been observed: the neural
models resample their frame window from that prefix, the classical
evaluators score the last visible state. `progress_stratified_eval` keeps
each prediction as one row of a table; every summary (`stratified_metrics`,
`op_stability`) is computed from that table, scoring each prediction
against the record's final winner label. A classical tie scores as wrong.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from ..baselines import lanchester_eval, simple_eval, winner_by_score
from ..model.network import WinPredictor
from ..sim.dataset import winner_label
from ..sim.engine import MatchRecord, sample_timeline
from ..sim.state import GameState
from .loop import THRESHOLD, predict_probs
from .metrics import MetricsReport, compute_metrics

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.04, 0.2, 0.4, 0.6, 0.8, 1.0)
PHASE_SPLIT = 0.4


class Prediction(NamedTuple):
    """`evaluator`'s verdict on the test record at dataset index `record`
    seen up to progress `fraction`: one row of the predictions table."""

    evaluator: str
    fraction: float
    record: int
    label: int  # 1: player 1 won, 0: player 2 won
    prediction: int | None  # 1 or 0; None for a classical tie
    prob: float | None  # the neural win probability; None for a classical row


def progress_stratified_eval(
    models: list[tuple[str, WinPredictor]],
    records: dict[int, MatchRecord],
    fractions: tuple[float, ...],
    states: dict[tuple[int, float], GameState] | None,
) -> list[Prediction]:
    """The predictions table of `records` (test records by dataset index) at
    each of `fractions`, in evaluator x fraction x record order: each
    (name, model) of `models`, then, unless `states` is None, the classical
    rules "simple" and "lanchester".

    A model resamples each clip from the visible prefix (`sample_timeline`)
    and predicts 1 when `predict_probs` gives at least THRESHOLD; one cache
    serves all its fractions, so a recurring clip is forwarded once. A
    classical rule scores `states[index, rho]`, the last visible state.
    """
    labels = {i: winner_label(r) for i, r in records.items()}
    table = []
    for name, model in models:
        cache: dict[bytes, float] = {}
        for rho in fractions:
            clips = (sample_timeline(r, model.config.time_steps, rho) for r in records.values())
            probs = predict_probs(model, clips, cache).tolist()
            table += [Prediction(name, rho, i, labels[i], int(p >= THRESHOLD), p)
                      for i, p in zip(records, probs)]
    if states is not None:
        # looked up per call, so a wrapper installed on either score sees every call
        for name, evaluator in (("simple", simple_eval), ("lanchester", lanchester_eval)):
            for rho in fractions:
                for i in records:
                    state = states[i, rho]
                    winner = winner_by_score(evaluator(state, 1), evaluator(state, 2))
                    prediction = None if winner == "tie" else int(winner == "p1")
                    table.append(Prediction(name, rho, i, labels[i], prediction, None))
    return table


def stratified_metrics(table: list[Prediction]) -> dict[str, list[tuple[float, MetricsReport]]]:
    """Each evaluator's MetricsReport at each of its fractions, in table
    order. A tie scores as wrong: it counts as the opposite of its label."""
    scored: dict[str, dict[float, tuple[list[int], list[int]]]] = {}
    for row in table:
        preds, labels = scored.setdefault(row.evaluator, {}).setdefault(row.fraction, ([], []))
        preds.append(1 - row.label if row.prediction is None else row.prediction)
        labels.append(row.label)
    return {name: [(rho, compute_metrics(*pair)) for rho, pair in by_fraction.items()]
            for name, by_fraction in scored.items()}


def op_stability(rows: list[tuple[float, MetricsReport]]) -> dict[str, float | None]:
    """Population std of the combined index, early (rho <= PHASE_SPLIT) vs late.

    Phases with fewer than two points are omitted (None) with a warning.
    """
    early = [m.op for rho, m in rows if rho <= PHASE_SPLIT]
    late = [m.op for rho, m in rows if rho > PHASE_SPLIT]
    out: dict[str, float | None] = {}
    for phase, values in (("early", early), ("late", late)):
        if len(values) < 2:
            log.warning("op_stability: %s phase has %d point(s); omitted", phase, len(values))
            out[phase] = None
        else:
            out[phase] = float(np.std(np.asarray(values)))  # ddof=0
    return out
