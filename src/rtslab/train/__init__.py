"""Loss, optimizer, metrics, training loop, stratified evaluation."""

from .loop import (
    EpochLog,
    TrainResult,
    dataset_to_examples,
    evaluate_accuracy,
    predict_probs,
    train_model,
)
from .loss import bce_loss
from .metrics import MetricsReport, compute_metrics, metrics_from_confusion
from .optim import AdamW, TrainConfig
from .stratified import (
    DEFAULT_FRACTIONS,
    Prediction,
    op_stability,
    progress_stratified_eval,
    stratified_metrics,
)

__all__ = [
    "AdamW",
    "DEFAULT_FRACTIONS",
    "EpochLog",
    "MetricsReport",
    "Prediction",
    "TrainConfig",
    "TrainResult",
    "bce_loss",
    "compute_metrics",
    "dataset_to_examples",
    "evaluate_accuracy",
    "metrics_from_confusion",
    "op_stability",
    "predict_probs",
    "progress_stratified_eval",
    "stratified_metrics",
    "train_model",
]
