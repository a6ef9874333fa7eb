"""Binary cross-entropy over predicted win probabilities."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, _result

CLAMP = 1e-12


def bce_loss(probs: Tensor, labels: np.ndarray) -> Tensor:
    """-(1/M) sum[y*log p + (1-y)*log(1-p)], differentiable through `probs`.

    Probabilities are clamped to [1e-12, 1-1e-12] before the logs; labels
    must be exactly 0 or 1. One tape node with a closed-form backward: for
    an upstream gradient g and c = -g/M, dL/dp = c*y/p - c*(1-y)/(1-p) on
    the clamped p, and exactly 0 wherever the clamp moved p.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != probs.shape:
        raise ValueError(f"labels shape {y.shape} != probs shape {probs.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("labels must be 0 or 1")
    p = np.clip(probs.data, CLAMP, 1.0 - CLAMP)
    q = -p + 1.0
    data = -(np.log(p) * y + np.log(q) * (1.0 - y)).mean()

    def backward(g):
        if probs.requires_grad:
            c = float(-g) / probs.size
            grad = -(c * (1.0 - y) / q)
            grad += c * y / p
            grad *= (probs.data >= CLAMP) & (probs.data <= 1.0 - CLAMP)
            probs.accumulate_grad(grad)

    return _result(data, (probs,), backward)
