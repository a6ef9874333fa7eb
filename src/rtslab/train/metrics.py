"""Binary classification metrics and the combined-performance index.

Zero-denominator conventions: precision is 0 when nothing was predicted
positive, recall is 0 when nothing is positive, F1 is 0 when P + R = 0.
The combined index `op` is the plain sum accuracy+precision+recall+f1,
range [0, 4].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    op: float
    confusion: tuple[int, int, int, int]  # (tp, fp, fn, tn)


def metrics_from_confusion(tp: int, fp: int, fn: int, tn: int) -> MetricsReport:
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        op=accuracy + precision + recall + f1,
        confusion=(tp, fp, fn, tn),
    )


def compute_metrics(pred_labels, true_labels) -> MetricsReport:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError(f"label vectors must match: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ValueError("empty label vectors")
    for v in (pred, true):
        if not np.all((v == 0) | (v == 1)):
            raise ValueError("labels must be 0 or 1")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    return metrics_from_confusion(tp, fp, fn, tn)
