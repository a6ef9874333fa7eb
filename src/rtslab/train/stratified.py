"""Progress-stratified evaluation and stability of the combined index.

For each progress fraction rho, every test match is re-evaluated as if
only the first ceil(rho * duration) steps had been observed: the neural
models resample their frame window from that prefix, the classical
evaluators score the last visible state. Predictions are scored against
the final winner label; a classical tie counts as an incorrect prediction.
"""

from __future__ import annotations

import logging

import numpy as np

from ..baselines import predict_winner_classical
from ..model.network import WinPredictor
from ..sim.dataset import winner_label
from ..sim.encode import decode_planes
from ..sim.engine import MatchRecord, sample_timeline, visible_prefix
from .loop import THRESHOLD, predict_probs
from .metrics import MetricsReport, compute_metrics

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.04, 0.2, 0.4, 0.6, 0.8, 1.0)
PHASE_SPLIT = 0.4


def neural_predictor(model: WinPredictor):
    """predict(records, rho) -> list of 0/1, one per record.

    Each record's clip of `model.config.time_steps` frames is resampled
    from its visible prefix with `sample_timeline` and scored by
    `predict_probs` against THRESHOLD. One digest->probability cache
    serves every call, so a clip that recurs across records or fractions
    is forwarded once.
    """
    cache: dict[bytes, float] = {}

    def predict(records: list[MatchRecord], rho: float) -> list[int]:
        clips = (sample_timeline(r, model.config.time_steps, rho) for r in records)
        return [1 if p >= THRESHOLD else 0 for p in predict_probs(model, clips, cache)]

    return predict


def classical_predictor(evaluator):
    """predict(records, rho) -> list of 0/1/None (None = tie, scored as
    wrong), from the state decoded at the end of each visible prefix."""

    def verdict(record: MatchRecord, rho: float) -> int | None:
        state = decode_planes(visible_prefix(record, rho)[-1][1])
        winner = predict_winner_classical(state, evaluator)
        return None if winner == "tie" else int(winner == "p1")

    return lambda records, rho: [verdict(r, rho) for r in records]


def progress_stratified_eval(
    predict,
    records: list[MatchRecord],
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
) -> list[tuple[float, MetricsReport]]:
    """One MetricsReport per fraction, scored against the recorded winners.
    `predict(records, rho)` returns one 0/1/None per record (None scores as
    wrong)."""
    labels = [winner_label(r) for r in records]
    rows = []
    for rho in fractions:
        preds = predict(records, rho)
        if len(preds) != len(records):
            raise ValueError(
                f"predict returned {len(preds)} predictions for {len(records)} records"
            )
        # a tie can never score as correct
        preds = [1 - truth if p is None else p for p, truth in zip(preds, labels)]
        rows.append((rho, compute_metrics(preds, labels)))
    return rows


def op_stability(
    rows: list[tuple[float, MetricsReport]], split: float = PHASE_SPLIT
) -> dict[str, float | None]:
    """Population std of the combined index, early (rho <= split) vs late.

    Phases with fewer than two points are omitted (None) with a warning.
    """
    early = [m.op for rho, m in rows if rho <= split]
    late = [m.op for rho, m in rows if rho > split]
    out: dict[str, float | None] = {}
    for phase, values in (("early", early), ("late", late)):
        if len(values) < 2:
            log.warning("op_stability: %s phase has %d point(s); omitted", phase, len(values))
            out[phase] = None
        else:
            out[phase] = float(np.std(np.asarray(values)))  # ddof=0
    return out
