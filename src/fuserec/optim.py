"""AdamW with decoupled weight decay, operating on named parameter tensors."""

from __future__ import annotations

import numpy as np

from .numerics import NumericError, Tensor


class AdamW:
    """Adam moments with bias correction; weight decay is applied directly to
    the parameter, not through the gradient, and only to names in decay_names.

    Parameter tensors are updated in place; this is the one sanctioned
    mutation of tensor data, serialized between tape builds.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        decay_names: set[str] | None = None,
    ):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay_names = set(self.params) if decay_names is None else set(decay_names)
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1c = 1.0 - self.beta1**self.step_count
        b2c = 1.0 - self.beta2**self.step_count
        for name in self.params:
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(self.params[name].data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p = self.params[name].data
            if self.weight_decay and name in self.decay_names:
                p -= self.lr * self.weight_decay * p
            p -= update
