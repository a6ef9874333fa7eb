"""Mini-batch training loop with best-validation checkpointing."""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..model.network import WinPredictor
from ..rng import SplitMix64, derive_seed
from ..sim.dataset import winner_label
from ..sim.encode import normalize_planes
from ..sim.engine import sample_timeline
from ..tensor import Tape, Tensor
from .loss import bce_loss
from .optim import AdamW, TrainConfig

Example = tuple[np.ndarray, int]  # ((T, C, H, W) uint8 clip, label)


@dataclass(frozen=True)
class EpochLog:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float


@dataclass
class TrainResult:
    log: list[EpochLog]
    best_params: dict[str, np.ndarray]
    best_epoch: int
    best_val_acc: float


# Clips per tape-free forward. A desk forward costs 1.39 / 0.96 / 1.03 / 1.31
# ms per sample at B = 1 / 4 / 8 / 32 on a 2-core Xeon VM, allocator page
# faults included, and adds 0.5 / 1.8 / 10.1 MB of peak RSS at B = 4 / 8 /
# 32 over B = 1 (README, "Training and evaluation").
INFER_BATCH = 4

THRESHOLD = 0.5  # a win probability at or above it predicts player 1


def _require_raw(clip: np.ndarray) -> None:
    # a float clip would be normalized a second time without any error
    if clip.dtype != np.uint8:
        raise ValueError(f"clips must hold raw uint8 planes, got dtype {clip.dtype}")


def predict_probs(
    model: WinPredictor, clips: Iterable[np.ndarray], cache: dict[bytes, float] | None = None
) -> np.ndarray:
    """Win probability of each raw uint8 clip, in input order, from
    tape-free forwards.

    Each clip is keyed by the sha256 of its uint8 bytes, and only clips
    whose key is neither in `cache` nor already pending are forwarded, in
    batches of INFER_BATCH; each batch is normalized once, as it is
    forwarded. A clip of any other dtype raises ValueError. The input is
    streamed: at most INFER_BATCH clips are held at a time, so `clips` may
    be a generator. `cache` maps digest to probability and is filled in
    place; pass one dict to several calls on the same model to forward each
    distinct clip once across them. A batched probability can differ from a
    B=1 forward in the last bits.
    """
    if cache is None:
        cache = {}
    keys: list[bytes] = []
    pending: dict[bytes, np.ndarray] = {}

    def flush() -> None:
        probs = model.forward(normalize_planes(np.stack(list(pending.values())))).data
        cache.update(zip(pending, probs.tolist()))
        pending.clear()

    for clip in clips:
        _require_raw(clip)
        key = hashlib.sha256(clip).digest()
        keys.append(key)
        if key not in cache and key not in pending:
            pending[key] = clip
            if len(pending) == INFER_BATCH:
                flush()
    if pending:
        flush()
    return np.array([cache[k] for k in keys])


def evaluate_accuracy(model: WinPredictor, dataset: list[Example]) -> float:
    probs = predict_probs(model, (x for x, _ in dataset))
    preds = (probs >= THRESHOLD).astype(int)
    labels = np.array([y for _, y in dataset])
    return float((preds == labels).mean())


def train_model(
    model: WinPredictor,
    train_set: list[Example],
    val_set: list[Example],
    config: TrainConfig,
    progress=None,
) -> TrainResult:
    """Seeded shuffled mini-batches; retains the best-validation parameters.

    Every clip must be raw uint8 planes (checked before the first step);
    each stacked batch is normalized once, as it is forwarded. `progress`,
    when given, is called with each EpochLog row as it lands.
    """
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    for clip, _ in (*train_set, *val_set):
        _require_raw(clip)
    opt = AdamW(model.params, config)
    history: list[EpochLog] = []
    best = (-1.0, -1, None)  # (val_acc, epoch, snapshot)
    for epoch in range(config.epochs):
        order = list(range(len(train_set)))
        SplitMix64(derive_seed(config.seed, epoch)).shuffle(order)
        loss_sum = 0.0
        hits = 0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[i] for i in order[start : start + config.batch_size]]
            x = normalize_planes(np.stack([ex[0] for ex in batch]))
            y = np.array([ex[1] for ex in batch], dtype=np.float64)
            with Tape() as tape:
                probs = model.forward(x)
                loss = bce_loss(probs, y)
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            loss_sum += float(loss.data.reshape(())) * len(batch)
            hits += int(((probs.data >= THRESHOLD).astype(int) == y).sum())
        row = EpochLog(
            epoch=epoch,
            train_loss=loss_sum / len(train_set),
            train_acc=hits / len(train_set),
            val_acc=evaluate_accuracy(model, val_set),
        )
        history.append(row)
        if progress is not None:
            progress(row)
        if row.val_acc > best[0]:
            best = (row.val_acc, epoch, {k: p.data.copy() for k, p in model.params.items()})
    assert best[2] is not None
    return TrainResult(
        log=history,
        best_params=best[2],
        best_epoch=best[1],
        best_val_acc=best[0],
    )


def dataset_to_examples(records, frame_count: int) -> list[Example]:
    """Materialize (clip, label) pairs at full progress, labelled by
    `winner_label`; draws are dropped. Clips are the records' raw frames
    (uint8 for a played or read record), as `train_model` takes them."""
    out: list[Example] = []
    for rec in records:
        label = winner_label(rec)
        if label is not None:
            out.append((sample_timeline(rec, frame_count, 1.0), label))
    return out
