"""Adam with decoupled weight decay.

Per step t (bias-corrected moments, decay applied to the pre-update value):

    m <- b1*m + (1-b1)*g          mhat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2        vhat = v / (1 - b2^t)
    theta <- theta*(1 - lr*wd) - lr * mhat / (sqrt(vhat) + eps)

With zero gradient at every step this reduces exactly to the multiplicative
shrink theta * (1 - lr*wd).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import Tensor


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    batch_size: int = 2
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        # the decay factor 1 - lr*wd must lie in (0, 1]: at -1 a
        # zero-gradient step flips every parameter's sign
        if not 0 <= self.lr * self.weight_decay < 1:
            raise ValueError(
                f"weight_decay must satisfy 0 <= lr*weight_decay < 1 (lr={self.lr:g}), "
                f"got {self.weight_decay}"
            )
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


class AdamW:
    """Owns the parameter dict during training; updates it in place.

    Every parameter lives in one flat buffer, in dict order: construction
    copies each value in and makes the parameter's `.data` a view into it.
    Gradients likewise live in one flat buffer: a gradient already set is
    shape-checked and copied in, and each `.grad` becomes a view into it,
    so a tape's backward accumulates straight into the buffer and
    `zero_grad` is one fill. The moments are two more flat vectors, so a
    step is one vectorized pass over all parameters rather than one per
    parameter. Elementwise, the arithmetic is exactly the formula above.
    A gradient reaches the optimizer only through those views: write into
    `.grad` (`p.grad[...] = g`), never replace it; `step` raises
    ValueError naming a parameter whose `.grad` is another array or None.
    A dict holding one Tensor under two names is rejected, since one
    `.grad` cannot be the view of two buffer slots.
    """

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        if len({id(p) for p in params.values()}) != len(params):
            raise ValueError("AdamW params hold one Tensor under two names")
        self.params = params
        self.config = config
        self.step_count = 0
        n = sum(p.data.size for p in params.values())
        self._theta = np.empty(n)
        self._grad = np.zeros(n)
        self._m = np.zeros(n)
        self._v = np.zeros(n)
        self._grad_views: list[np.ndarray] = []
        start = 0
        for name, p in params.items():
            end = start + p.data.size
            theta = self._theta[start:end].reshape(p.data.shape)
            theta[...] = p.data
            p.data = theta
            grad = self._grad[start:end].reshape(p.data.shape)
            if p.grad is not None:
                if p.grad.shape != grad.shape:
                    raise ValueError(f"gradient shape {p.grad.shape} != parameter shape "
                                     f"{grad.shape} for {name}")
                grad[...] = p.grad
            p.grad = grad
            self._grad_views.append(grad)
            start = end

    def step(self) -> None:
        """Apply one update from the gradients accumulated in the views."""
        for (name, p), view in zip(self.params.items(), self._grad_views):
            if p.grad is not view:
                raise ValueError(
                    f"{name}: .grad was replaced; write gradients into the optimizer's view"
                )
        c = self.config
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - c.beta1 ** t
        bc2 = 1.0 - c.beta2 ** t
        g, m, v = self._grad, self._m, self._v
        m *= c.beta1
        m += (1.0 - c.beta1) * g
        v *= c.beta2
        v += (1.0 - c.beta2) * g * g
        update = c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)
        self._theta *= 1.0 - c.lr * c.weight_decay
        self._theta -= update

    def zero_grad(self) -> None:
        """Zero every gradient: one fill of the buffer."""
        self._grad.fill(0.0)
