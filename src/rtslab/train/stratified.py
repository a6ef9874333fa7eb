"""Progress-stratified evaluation: one scorer of cuts, one predictions
table and its summaries.

A cut of a match is the frames seen up to some step (`frames_until`); at
progress fraction rho it is the visible prefix up to step
ceil(rho * duration) (`visible_prefix`, `fraction_cuts`).
`progress_stratified_eval` is the one scorer of cuts, for `compare` and
`eval` (a group per fraction) and for `timeline` (one group, a cut at
each frame's step): the neural models resample their frame window from
the cut, the classical evaluators score its last state. Each prediction
is one row of a table; every summary (`stratified_metrics`,
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
from ..sim.encode import decode_planes
from ..sim.engine import MatchRecord, sample_timeline, visible_prefix
from .loop import THRESHOLD, predict_probs
from .metrics import MetricsReport, compute_metrics

log = logging.getLogger(__name__)

DEFAULT_FRACTIONS = (0.04, 0.2, 0.4, 0.6, 0.8, 1.0)
PHASE_SPLIT = 0.4

# (cut key, dataset index, the visible frames): one cut of one record
Cut = tuple[float, int, list[tuple[int, np.ndarray]]]


class Prediction(NamedTuple):
    """`evaluator`'s verdict on the record at dataset index `record` seen
    up to the cut `fraction` (a progress fraction, or a step in a
    timeline): one row of the predictions table."""

    evaluator: str
    fraction: float
    record: int
    label: int | None  # 1: player 1 won, 0: player 2 won, None: a draw
    prediction: int | None  # 1 or 0; None for a classical tie
    prob: float | None  # the neural win probability; None for a classical row
    scores: tuple[float, float]  # (P1, P2): (prob, 1 - prob), or a rule's two state scores


class UndecodableFrame(ValueError):
    """The last visible frame of the record at dataset index `index` is not
    the encoding of a legal state (`decode_planes` rejects it)."""

    def __init__(self, index: int, reason: ValueError):
        super().__init__(str(reason))
        self.index = index


def fraction_cuts(records: dict[int, MatchRecord], fractions: tuple[float, ...]) -> list[list[Cut]]:
    """One group per fraction of `fractions`: each record's visible prefix at it."""
    return [[(rho, i, visible_prefix(r, rho)) for i, r in records.items()] for rho in fractions]


def progress_stratified_eval(
    models: list[tuple[str, WinPredictor]],
    records: dict[int, MatchRecord],
    groups: list[list[Cut]],
    classical: bool = True,
) -> list[Prediction]:
    """The predictions table of the cuts in `groups` of `records` (by
    dataset index), in evaluator x group x cut order: each (name, model)
    of `models`, then, if `classical`, the rules "simple" and "lanchester".

    A model resamples each clip from the cut (`sample_timeline`) and
    predicts 1 when `predict_probs` gives at least THRESHOLD; it takes one
    `predict_probs` call per group, and one cache serves all its groups,
    so a recurring clip is forwarded once. A classical rule scores the
    state of the cut's last frame; each distinct (index, step) is decoded
    once, and a frame `decode_planes` rejects raises UndecodableFrame.
    """
    labels = {i: winner_label(r) for i, r in records.items()}
    table = []
    for name, model in models:
        cache: dict[bytes, float] = {}
        for group in groups:
            clips = (sample_timeline(frames, model.config.time_steps) for _, _, frames in group)
            probs = predict_probs(model, clips, cache).tolist()
            table += [Prediction(name, key, i, labels[i], int(p >= THRESHOLD), p, (p, 1.0 - p))
                      for (key, i, _), p in zip(group, probs)]
    if not classical:
        return table
    states = {}
    # looked up per call, so a wrapper installed on either score sees every call
    for name, evaluator in (("simple", simple_eval), ("lanchester", lanchester_eval)):
        for key, i, frames in (cut for group in groups for cut in group):
            step, planes = frames[-1]
            if (i, step) not in states:
                try:
                    states[i, step] = decode_planes(planes)
                except ValueError as exc:
                    raise UndecodableFrame(i, exc) from None
            scores = evaluator(states[i, step], 1), evaluator(states[i, step], 2)
            winner = winner_by_score(*scores)
            prediction = None if winner == "tie" else int(winner == "p1")
            table.append(Prediction(name, key, i, labels[i], prediction, None, scores))
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
