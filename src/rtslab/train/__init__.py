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
    classical_predictor,
    neural_predictor,
    op_stability,
    progress_stratified_eval,
)

__all__ = [
    "AdamW",
    "DEFAULT_FRACTIONS",
    "EpochLog",
    "MetricsReport",
    "TrainConfig",
    "TrainResult",
    "bce_loss",
    "classical_predictor",
    "compute_metrics",
    "dataset_to_examples",
    "evaluate_accuracy",
    "metrics_from_confusion",
    "neural_predictor",
    "op_stability",
    "predict_probs",
    "progress_stratified_eval",
    "train_model",
]
