"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment estimates plus step counter for a set of named parameters."""

    def __init__(self, params: dict[str, Tensor]):
        self.step = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update in place; missing gradients count as zero."""
    if set(params) != set(state.m):
        raise ShapeError("optimizer state does not cover the same parameter names")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        m, v = state.m[name], state.v[name]
        if m.shape != p.data.shape:
            raise ShapeError(f"moment shape {m.shape} does not match parameter {name} {p.data.shape}")
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {name} {p.data.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm; returns the pre-clip norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total ** 0.5
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
