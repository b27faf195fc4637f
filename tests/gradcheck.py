"""Finite-difference oracle for the tape's gradients, used by the test suite.

Central differences only measure a gradient when the perturbed function is
computed in f64: in f32 the difference of two nearby losses is round-off, so
the oracle refuses any other dtype.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fuserec import numerics as nm
from fuserec.numerics import ContractError, Tensor


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5, order: int = 2) -> float:
    """Max gap between the tape gradient of f at x and central differences,
    relative to the gradient's size.

    Each coordinate's gap |analytic - central| is divided by the largest
    |analytic| coordinate plus 1e-12, not by its own size: a coordinate whose
    true gradient is round-off small next to the others would read its own
    round-off as a relative error of order 1. f must be deterministic; x.data
    is perturbed in place and restored, so f may close over x directly.
    order=4 switches to the five-point stencil, which tolerates larger eps and
    so a smaller round-off floor; use it when the gradient sits near the noise
    level of the plain central difference. x must be f64.
    """
    if eps <= 0:
        raise ContractError("finite_diff_check requires eps > 0")
    if order not in (2, 4):
        raise ContractError("order must be 2 or 4")
    if x.data.dtype != np.float64:
        raise ContractError(f"finite_diff_check needs an f64 tensor, got {x.data.dtype}")
    was_grad = x.requires_grad
    x.requires_grad = True
    try:
        with nm.Tape() as tape:
            loss = f(x)
            grads = nm.backward(loss, tape)
        analytic = nm.grad_of(grads, x)
    finally:
        x.requires_grad = was_grad
    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)

    def at(i: int, offset: float) -> float:
        orig = flat[i]
        flat[i] = orig + offset
        value = f(x).item()
        flat[i] = orig
        return value

    for i in range(flat.size):
        if order == 2:
            numeric[i] = (at(i, eps) - at(i, -eps)) / (2.0 * eps)
        else:
            numeric[i] = (
                8.0 * (at(i, eps) - at(i, -eps)) - (at(i, 2 * eps) - at(i, -2 * eps))
            ) / (12.0 * eps)
    a = analytic.reshape(-1)
    if not a.size:
        return 0.0
    return float(np.abs(a - numeric).max() / (np.abs(a).max() + 1e-12))
