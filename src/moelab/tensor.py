"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation on tracked tensors records a backward closure; backward()
walks the graph in reverse topological order and accumulates d(loss)/d(node)
into .grad. Gradients add into existing .grad buffers until zero_grad() is
called, so repeated backward passes require an explicit reset.

All compute is 64-bit: the finite-difference gradient checks in grad_check()
need the headroom.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ShapeError

_grad_enabled = True
_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf detection on every op output (debug mode; off by default)."""
    global _debug_checks
    _debug_checks = enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _checked(data: np.ndarray) -> np.ndarray:
    if _debug_checks and not np.isfinite(data).all():
        raise FloatingPointError("operation produced non-finite values")
    return data


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense multi-dimensional float64 array, optionally tracked for autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)  # copy: callers may reuse g
        else:
            self.grad += g

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: tuple["Tensor", ...],
            backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(_checked(data))
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad for every tracked ancestor.

        The root must be a scalar. Calling backward twice without zeroing
        gradients adds the second pass on top of the first.
        """
        if self.data.size != 1:
            raise ValueError(f"backward root must be a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            nxt = next((p for p in parents if id(p) not in visited), None)
            if nxt is None:
                topo.append(node)
                stack.pop()
            else:
                visited.add(id(nxt))
                stack.append((nxt, iter(nxt._parents)))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g: np.ndarray) -> None:
            a._accum(_unbroadcast(g, a.data.shape))
            b._accum(_unbroadcast(g, b.data.shape))

        return Tensor._op(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self
        return Tensor._op(-a.data, (a,), lambda g: a._accum(-g))

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g: np.ndarray) -> None:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
            b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._op(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g: np.ndarray) -> None:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return Tensor._op(a.data / b.data, (a, b), bwd)

    def __pow__(self, exponent: float) -> "Tensor":
        a = self
        p = float(exponent)

        def bwd(g: np.ndarray) -> None:
            a._accum(g * p * a.data ** (p - 1.0))

        return Tensor._op(a.data ** p, (a,), bwd)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ShapeError(f"matmul needs rank >= 2 operands, got {a.data.shape} @ {b.data.shape}")
        if a.data.shape[-1] != b.data.shape[-2]:
            raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

        def bwd(g: np.ndarray) -> None:
            a._accum(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
            b._accum(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

        return Tensor._op(a.data @ b.data, (a, b), bwd)

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape
        return Tensor._op(a.data.reshape(shape), (a,),
                          lambda g: a._accum(g.reshape(orig)))

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        a = self
        if axes is None:
            axes = tuple(reversed(range(a.data.ndim)))
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        return Tensor._op(a.data.transpose(axes), (a,),
                          lambda g: a._accum(g.transpose(inverse)))

    def __getitem__(self, key) -> "Tensor":
        """numpy indexing (slices, integer arrays, index tuples); backward
        scatter-adds, so rows picked more than once sum their gradients."""
        a = self

        def bwd(g: np.ndarray) -> None:
            ga = np.zeros_like(a.data)
            np.add.at(ga, key, g)
            a._accum(ga)

        return Tensor._op(a.data[key], (a,), bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        a = self

        def bwd(g: np.ndarray) -> None:
            if axis is None:
                a._accum(np.broadcast_to(g, a.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a._accum(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._op(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)
        return Tensor._op(out_data, (a,), lambda g: a._accum(g * out_data))

    def log(self) -> "Tensor":
        a = self
        return Tensor._op(np.log(a.data), (a,), lambda g: a._accum(g / a.data))

    def tanh(self) -> "Tensor":
        a = self
        t = np.tanh(a.data)
        return Tensor._op(t, (a,), lambda g: a._accum(g * (1.0 - t * t)))


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


# -- fused operations ---------------------------------------------------------


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, x * CDF(x), with the exact Gaussian CDF."""
    x = as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * (1.0 / math.sqrt(2.0))))

    def bwd(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / math.sqrt(2.0 * math.pi))
        x._accum(g * (phi + x.data * pdf))

    return Tensor._op(x.data * phi, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along `axis` (max subtraction)."""
    x = as_tensor(x)
    if x.data.size == 0:
        raise ValueError("softmax of empty input")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=axis, keepdims=True)
        x._accum(p * (g - inner))

    return Tensor._op(p, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bwd(g: np.ndarray) -> None:
        gain._accum(_unbroadcast(g * xhat, gain.data.shape))
        bias._accum(_unbroadcast(g, bias.data.shape))
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accum(term * inv)

    return Tensor._op(xhat * gain.data + bias.data, (x, gain, bias), bwd)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer `targets` under row-softmax of `logits`.

    Backward is the fused (softmax - one_hot) / rows form.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects a rank-2 logits matrix, got {logits.data.shape}")
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits rows {logits.data.shape[0]}")
    if not np.issubdtype(targets.dtype, np.integer):
        targets = targets.astype(np.int64)
    n, v = logits.data.shape
    bad = np.nonzero((targets < 0) | (targets >= v))[0]
    if bad.size:
        raise ValueError(f"target id {targets[bad[0]]} at position {bad[0]} outside [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    p = np.exp(z)
    norm = p.sum(axis=1, keepdims=True)
    p /= norm
    nll = np.log(norm[:, 0]) - z[np.arange(n), targets]
    loss = nll.mean()

    def bwd(g: np.ndarray) -> None:
        scale = float(g) / n
        gp = p * scale
        gp[np.arange(n), targets] -= scale
        logits._accum(gp)

    return Tensor._op(np.asarray(loss), (logits,), bwd)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup weight[ids], with every id checked against the table size."""
    weight = as_tensor(weight)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.data.shape[0]):
        raise ValueError(
            f"embedding id outside [0, {weight.data.shape[0]}): min={ids.min()}, max={ids.max()}")
    return weight[ids]


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join tensors along the first axis; backward hands each part its own rows."""
    parts = tuple(as_tensor(p) for p in parts)
    ends = np.cumsum([p.data.shape[0] for p in parts])[:-1]

    def bwd(g: np.ndarray) -> None:
        for p, gp in zip(parts, np.split(g, ends)):
            p._accum(gp)

    return Tensor._op(np.concatenate([p.data for p in parts]), parts, bwd)


# -- gradient verification -----------------------------------------------------


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5,
               samples: int = 100, seed: int = 0) -> float:
    """Compare analytic gradients of the scalar f() against central differences.

    Samples roughly `samples` coordinates spread over all params (at least one
    per parameter) and returns the maximum relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise ValueError("finite-difference step h must be positive")
    params = list(params)
    if not params:
        raise ValueError("no parameters to check")
    for p in params:
        p.zero_grad()
    loss = f()
    if not np.isfinite(loss.data).all():
        raise FloatingPointError("f() evaluated to a non-finite value")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    per_param = max(1, samples // len(params))
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        k = min(per_param, flat.size)
        coords = rng.choice(flat.size, size=k, replace=False)
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + h
                f_plus = float(f().data)
                flat[c] = orig - h
                f_minus = float(f().data)
            flat[c] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError("f() evaluated to a non-finite value during perturbation")
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(ana.reshape(-1)[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst
