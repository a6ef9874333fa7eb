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
    threshold: float = 0.5

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
    """Owns the parameter dict during training; updates data in place.

    The moments are two flat vectors over every parameter in dict order, so
    a step is one vectorized pass over all of them rather than one per
    parameter. Elementwise, the arithmetic is exactly the formula above.
    """

    def __init__(self, params: dict[str, Tensor], config: TrainConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        n = sum(p.data.size for p in params.values())
        self._m = np.zeros(n)
        self._v = np.zeros(n)

    def step(self) -> None:
        """Apply one update from the accumulated gradients (missing -> 0)."""
        c = self.config
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - c.beta1 ** t
        bc2 = 1.0 - c.beta2 ** t
        grads, thetas = [], []
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros(p.data.size)  # missing -> 0, so decay still applies
            elif g.shape != p.data.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}"
                )
            grads.append(g.reshape(-1))
            thetas.append(p.data.reshape(-1))  # data is contiguous: a view
        g = np.concatenate(grads)
        m, v = self._m, self._v
        m *= c.beta1
        m += (1.0 - c.beta1) * g
        v *= c.beta2
        v += (1.0 - c.beta2) * g * g
        update = c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)
        theta = np.concatenate(thetas) * (1.0 - c.lr * c.weight_decay) - update
        start = 0
        for flat in thetas:
            end = start + flat.size
            flat[:] = theta[start:end]
            start = end

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

