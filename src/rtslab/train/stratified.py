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
from .metrics import MetricsReport, compute_metrics

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.04, 0.2, 0.4, 0.6, 0.8, 1.0)
PHASE_SPLIT = 0.4


def neural_predictor(model: WinPredictor, frame_count: int, threshold: float = 0.5):
    """predict(record, rho) -> 0/1 via prefix resampling + forward pass."""

    def predict(record: MatchRecord, rho: float) -> int:
        clip = sample_timeline(record, frame_count, rho)
        prob = float(model.forward(clip[None]).data[0])
        return 1 if prob >= threshold else 0

    return predict


def prefix_state(record: MatchRecord, rho: float):
    """Decoded game state at the end of the visible prefix."""
    return decode_planes(visible_prefix(record, rho)[-1][1])


def classical_predictor(evaluator):
    """predict(record, rho) -> 0/1/None (None = tie, scored as wrong)."""

    def predict(record: MatchRecord, rho: float) -> int | None:
        verdict = predict_winner_classical(prefix_state(record, rho), evaluator)
        if verdict == "tie":
            return None
        return 1 if verdict == "p1" else 0

    return predict


def progress_stratified_eval(
    predict,
    records: list[MatchRecord],
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    labels: list[int] | None = None,
) -> list[tuple[float, MetricsReport]]:
    """One MetricsReport per fraction. `labels` defaults to recorded winners."""
    if labels is None:
        labels = [winner_label(r) for r in records]
    if len(labels) != len(records):
        raise ValueError("labels must align with records")
    rows = []
    for rho in fractions:
        preds = []
        for rec, truth in zip(records, labels):
            p = predict(rec, rho)
            if p is None:
                p = 1 - truth  # a tie can never score as correct
            preds.append(p)
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
