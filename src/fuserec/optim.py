"""AdamW with decoupled weight decay, operating on named parameter tensors."""

from __future__ import annotations

import numpy as np

from .numerics import NumericError, Tensor


class AdamW:
    """Adam moments with bias correction; weight decay is applied directly to
    every parameter it updates, not through the gradient.

    Parameter tensors are updated in place; this is the one sanctioned
    mutation of tensor data, serialized between tape builds.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1c = 1.0 - self.BETA1**self.step_count
        b2c = 1.0 - self.BETA2**self.step_count
        for name in self.params:
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(self.params[name].data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * (g * g)
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)
            p = self.params[name].data
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            p -= update
