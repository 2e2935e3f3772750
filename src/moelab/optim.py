"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
CLIP_NORM = 1.0  # global gradient-norm bound applied before every Adam step


class AdamState:
    """First/second moment estimates for a set of named parameters; adam_step takes the step."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float, step: int) -> None:
    """Adam update in place for the caller's step (0 first); missing gradients count as zero.

    The bias correction is 1 - beta ** t for t = step + 1. Names and shapes of
    both moments and of every gradient are checked before anything is
    written, so a mismatch raises ShapeError naming the first one and leaves
    parameters and moments as they were.
    """
    for kind, moments in (("m", state.m), ("v", state.v)):
        missing = next((name for name in params if name not in moments), None)
        if missing is not None:
            raise ShapeError(f"optimizer state's {kind} moments lack parameter {missing!r}")
        extra = next((name for name in moments if name not in params), None)
        if extra is not None:
            raise ShapeError(f"optimizer state's {kind} moments include {extra!r}, "
                             "which is not a parameter")
    for name, p in params.items():
        for what, arr in (("m moment", state.m[name]), ("v moment", state.v[name]),
                          ("gradient", p.grad)):
            if arr is not None and arr.shape != p.data.shape:
                raise ShapeError(f"{what} shape {arr.shape} does not match parameter "
                                 f"{name!r} {p.data.shape}")
    t = step + 1
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        m, v = state.m[name], state.v[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def clip_global_norm(params: dict[str, Tensor]) -> float:
    """Scale all gradients so their joint L2 norm is at most CLIP_NORM; returns the pre-clip norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total ** 0.5
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
