"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation on tracked tensors records a backward closure; backward()
walks the graph in reverse topological order and accumulates d(loss)/d(node)
into .grad. One backward pass uses its graph up: once a node's closure has
run, the node drops its gradient, closure and parents, so interior gradients
and the arrays only a closure saved are freed as the pass goes. Leaves keep
their .grad, and a later pass over a newly built graph adds into it until
zero_grad() is called. A backward that reaches a used node raises
GraphConsumedError.

Gradient ownership: a backward closure hands each parent an array that no
other gradient holds (a freshly computed one, one of its own saved buffers,
or a view of a part of the node's own gradient that no other parent gets;
the node never reads it again), and _accum keeps that array as the parent's
.grad without copying it. An op that hands one array to two parents
(__add__) copies it for the second. An op that adds a residual into its
output (linear, feed_forward, moe.combine) serves every other parent first
and then hands the residual its own gradient whole, with no copy. So no two
leaves' gradients share memory, and in-place updates of a leaf's .grad
(clipping, the next +=) touch only that leaf.

Saved arrays: a node keeps only the arrays its backward reads, and rebuilds
what it can recompute bitwise in an elementwise pass or two from arrays the
graph already holds. Nodes read their parents' .data in backward instead of
saving a copy: linear and feed_forward their input x, layer_norm its input x
(to rebuild the normalized rows from the kept mean and 1/sigma). So a
parent's .data must not be written between a forward and its backward.
A residual block's last op takes the residual stream as `residual` and adds
it into its own output buffer, so the graph holds one array per block, the
new stream, and no branch output that only a separate add would read.

All compute is 64-bit: the finite-difference gradient checks in grad_check()
need the headroom.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.random import default_rng

from .errors import GraphConsumedError, ShapeError

_grad_enabled = True
LN_EPS = 1e-5  # added to the variance in layer_norm
GELU_CUBIC = 0.044715  # weight of u**3 inside feed_forward's GELU tanh
GELU_SCALE = math.sqrt(2.0 / math.pi)


@contextmanager
def set_grad_enabled(enabled: bool):
    """Record the graph inside the block exactly when `enabled`, then restore the mode."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = enabled
    try:
        yield
    finally:
        _grad_enabled = prev


def no_grad():
    """Disable graph recording inside the block (inference, finite differences)."""
    return set_grad_enabled(False)


def grad_enabled() -> bool:
    """Whether ops record the graph for backward (False inside no_grad())."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the leading axes that broadcasting added to `shape`; the
    product broadcasts no other way, and a size-1 axis fails in the reshape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad.reshape(shape)


class Tensor:
    """A dense multi-dimensional float64 array, optionally tracked for autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] | None = ()  # None once a backward used the node
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        """Add g into .grad, taking ownership of g when .grad is empty.

        The caller hands over g: no other gradient may hold it and the caller
        must not write it afterwards, because a later accumulation adds into
        it in place. Only a non-float64, read-only or non-array g is copied.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            owned = (isinstance(g, np.ndarray) and g.dtype == np.float64
                     and g.flags.writeable)
            self.grad = g if owned else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents: tuple["Tensor", ...],
            backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad for every tracked ancestor, using the graph up.

        The root must be a scalar. Each interior node drops its .grad, closure
        and parents as soon as its closure has run; leaves keep their .grad,
        and a later backward over a new graph adds on top of it. Reaching a
        node an earlier backward used (this root again, or a new graph built
        on one of its nodes) raises GraphConsumedError before any gradient
        is touched.
        """
        if self.data.size != 1:
            raise ValueError(f"backward root must be a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited = {id(self)}
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents or ()))]
        while stack:
            node, parents = stack[-1]
            nxt = next((p for p in parents if id(p) not in visited), None)
            if nxt is None:
                topo.append(node)
                stack.pop()
            else:
                visited.add(id(nxt))
                stack.append((nxt, iter(nxt._parents or ())))
        used = next((node for node in topo if node._parents is None), None)
        if used is not None:
            raise GraphConsumedError(
                f"backward reached a {used!r} whose graph an earlier backward() used up "
                "and freed; run the forward again to build a new graph")
        self._accum(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf or constant
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = node._parents = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g: np.ndarray) -> None:
            ga = _unbroadcast(g, a.data.shape)
            a._accum(ga)
            gb = _unbroadcast(g, b.data.shape)
            b._accum(gb.copy() if gb is ga and a.requires_grad else gb)  # one owner per array

        return Tensor._op(a.data + b.data, (a, b), bwd)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self, other

        def bwd(g: np.ndarray) -> None:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
            b._accum(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._op(a.data * b.data, (a, b), bwd)

    # -- shape manipulation --------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        orig = a.data.shape
        return Tensor._op(a.data.reshape(shape), (a,),
                          lambda g: a._accum(g.reshape(orig)))

    def transpose(self) -> "Tensor":
        """All axes reversed; backward reverses them back."""
        a = self
        return Tensor._op(a.data.transpose(), (a,), lambda g: a._accum(g.transpose()))

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

    def sum(self, axis: int | None = None) -> "Tensor":
        a = self

        def bwd(g: np.ndarray) -> None:
            gg = g if axis is None else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.data.shape).copy())

        return Tensor._op(a.data.sum(axis=axis), (a,), bwd)


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


# -- fused operations ---------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None,
           residual: Tensor | None = None) -> Tensor:
    """x @ w (+ b) (+ residual) as one node, for x (..., n_in) and w (n_in, n_out).

    All leading axes of x fold into the rows of one GEMM and the bias is added
    in place. Backward: gx = g @ w^T, gw = x2^T @ g2 as one product over all
    rows (x2, g2 are x and g with leading axes folded), gb = column sums of g2.
    A residual, of the output's shape, is added as _add_residual describes.
    """
    if x.data.ndim < 1 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"linear needs x (..., n) and w (n, m), got {x.data.shape} and {w.data.shape}")
    parents = (x, w)
    if b is not None:
        if b.data.shape != (w.data.shape[1],):
            raise ShapeError(
                f"linear bias must have shape ({w.data.shape[1]},), got {b.data.shape}")
        parents = (x, w, b)
    x2 = x.data.reshape(-1, w.data.shape[0])
    out = (x2 @ w.data).reshape(x.data.shape[:-1] + (w.data.shape[1],))
    if b is not None:
        out += b.data
    parents += _add_residual(out, residual, "linear")

    def bwd(g: np.ndarray) -> None:
        g2 = g.reshape(-1, w.data.shape[1])
        if x.requires_grad:
            x._accum((g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w._accum(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accum(g2.sum(axis=0))
        if residual is not None:
            residual._accum(g)

    return Tensor._op(out, parents, bwd)


def _add_residual(out: np.ndarray, residual: Tensor | None, op: str) -> tuple[Tensor, ...]:
    """Add `residual` into the op's fresh output `out` in place, last, so each element
    is the sum __add__ would round; return it as the op's extra parent, or ().
    The op's backward hands it g itself, last (the module docstring says why)."""
    if residual is None:
        return ()
    if residual.data.shape != out.shape:
        raise ShapeError(f"{op} residual must have the output's shape {out.shape}, "
                         f"got {residual.data.shape}")
    out += residual.data
    return (residual,)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                 residual: Tensor | None = None) -> Tensor:
    """The two-layer MLP a @ w2 + b2 (+ residual), a = gelu(u), u = x @ w1 + b1, as
    one node, for x of shape (..., n_in), w1 (n_in, hidden) and w2 (hidden, n_out).

    The activation is GELU in its tanh form (GPT-2's): gelu(u) = u * phi, where
    phi = 0.5 * (1 + tanh(c * (u + 0.044715 u^3))) and c = sqrt(2 / pi), computed
    in place in one buffer. The node keeps u and phi and rebuilds a = u * phi
    in backward for gw2 = a^T @ g2. The gradient through the activation reuses
    phi via 1 - tanh^2 = 4 phi (1 - phi):
    d(u phi)/du = phi + 2c phi (1 - phi) (u + 3 * 0.044715 u^3).
    Leading axes of x fold into the rows of each GEMM, as in linear(). A
    residual, of the output's shape, is added as _add_residual describes.
    """
    xs, w1s, b1s, w2s, b2s = (t.data.shape for t in (x, w1, b1, w2, b2))
    if (len(w1s) != 2 or len(w2s) != 2 or xs[-1:] != w1s[:1] or b1s != w1s[1:]
            or w2s[:1] != w1s[1:] or b2s != w2s[1:]):
        raise ShapeError(f"feed_forward needs x (..., n), w1 (n, h), b1 (h,), w2 (h, m) and "
                         f"b2 (m,), got {xs}, {w1s}, {b1s}, {w2s} and {b2s}")
    x2 = x.data.reshape(-1, w1s[0])
    u = x2 @ w1.data
    u += b1.data
    phi = np.multiply(u, u, out=np.empty_like(u))
    phi *= GELU_SCALE * GELU_CUBIC
    phi += GELU_SCALE
    phi *= u
    np.tanh(phi, out=phi)
    phi *= 0.5
    phi += 0.5
    out = (np.multiply(u, phi) @ w2.data).reshape(xs[:-1] + b2s)
    out += b2.data
    parents = (x, w1, b1, w2, b2) + _add_residual(out, residual, "feed_forward")

    def bwd(g: np.ndarray) -> None:
        g2 = g.reshape(-1, b2s[0])
        if w2.requires_grad:
            w2._accum(np.multiply(u, phi).T @ g2)
        if b2.requires_grad:
            b2._accum(g2.sum(axis=0))
        gu = g2 @ w2.data.T
        slope = np.multiply(u, u, out=np.empty_like(u))  # 2c (u + 3 * 0.044715 u^3)
        slope *= 3.0 * GELU_CUBIC
        slope += 1.0
        slope *= u
        slope *= 2.0 * GELU_SCALE
        dphi = np.multiply(phi, phi, out=np.empty_like(phi))
        np.subtract(phi, dphi, out=dphi)  # phi (1 - phi)
        dphi *= slope
        dphi += phi
        gu *= dphi  # the gradient at u
        if x.requires_grad:
            x._accum((gu @ w1.data.T).reshape(xs))
        if w1.requires_grad:
            w1._accum(x2.T @ gu)
        if b1.requires_grad:
            b1._accum(gu.sum(axis=0))
        if residual is not None:
            residual._accum(g)

    return Tensor._op(out, parents, bwd)


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilized softmax along the last axis (max subtraction)."""
    if x.data.size == 0:
        raise ValueError("softmax of empty input")
    p = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def bwd(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        x._accum(p * (g - inner))

    return Tensor._op(p, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (LN_EPS added to it), then affine.

    The node keeps each row's mean and 1/sigma, not the normalized rows xhat:
    backward rebuilds xhat = (x - mean) * inv from x, and the output is built
    in xhat's buffer.
    """
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}")
    mean = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    out = x.data - mean
    inv = 1.0 / np.sqrt(np.add.reduce(out * out, axis=-1, keepdims=True) / d + LN_EPS)
    out *= inv  # xhat
    out *= gain.data
    out += bias.data

    def bwd(g: np.ndarray) -> None:
        xhat = x.data - mean
        xhat *= inv
        gain._accum(_unbroadcast(g * xhat, gain.data.shape))
        bias._accum(_unbroadcast(g, bias.data.shape))
        dxhat = g * gain.data
        term = dxhat - np.add.reduce(dxhat, axis=-1, keepdims=True) / d \
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        x._accum(term * inv)

    return Tensor._op(out, (x, gain, bias), bwd)


def cross_entropy(x: Tensor, weight: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer `targets` under row-softmax of the
    tied logits x @ weight^T, for (..., d) hidden states x and a (V, d) table weight.

    Targets have x's leading shape. The head projection and the loss are one
    node: the forward computes the logits into one (rows, V) buffer and turns
    it in place into their unnormalized exponentials, since the loss needs
    only each row's normalizer. Backward divides that buffer into
    probabilities, forms the fused G = (softmax - one_hot) / rows in it, and
    then gx = G @ weight and gweight = (x2^T @ G)^T, with x2 the rows of x. So
    the op holds one logits-sized array, and no logits outlive it.
    """
    shape, w = x.data.shape, weight.data
    if not shape or w.ndim != 2 or shape[-1] != w.shape[1]:
        raise ShapeError(f"cross_entropy needs x (..., d) and weight (V, d), "
                         f"got {shape} and {w.shape}")
    targets = check_ids(targets, w.shape[0], "target")  # names a ragged row
    if targets.shape != shape[:-1]:
        raise ShapeError(f"targets shape {targets.shape} does not align with x {shape}")
    if not math.prod(shape[:-1]):
        raise ValueError("cross_entropy needs at least one target")
    targets = targets.reshape(-1)
    n = targets.size
    x2 = x.data.reshape(n, w.shape[1])
    p = x2 @ w.T
    p -= p.max(axis=1, keepdims=True)
    picked = p[np.arange(n), targets]
    np.exp(p, out=p)
    norm = p.sum(axis=1, keepdims=True)
    nll = np.log(norm[:, 0]) - picked
    loss = nll.mean()

    def bwd(g: np.ndarray) -> None:  # runs once, so p can become the gradient
        scale = float(g) / n
        np.divide(p, norm, out=p)
        np.multiply(p, scale, out=p)
        p[np.arange(n), targets] -= scale
        if x.requires_grad:
            x._accum((p @ w).reshape(shape))
        if weight.requires_grad:
            weight._accum((x2.T @ p).T)

    return Tensor._op(np.asarray(loss), (x, weight), bwd)


def check_ids(ids, bound: int, noun: str) -> np.ndarray:
    """`ids` as an int64 array whose every entry is an integer in [0, bound).

    Anything but an integer ndarray is walked element by element before numpy
    can cast it, so a bool, a float or any other non-int is refused as it
    stands. ValueError names the first bad id, in the words of `noun`, by its
    position: an index for a sequence and an index tuple for a batch.
    """
    if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
        ids = np.asarray(ids, dtype=object)
        for pos, x in np.ndenumerate(ids):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"{noun} at position {pos[0] if ids.ndim == 1 else pos} "
                                 f"is not an integer: {x!r}")
    bad = (ids < 0) | (ids >= bound)
    if bad.any():
        pos = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{noun} {ids[pos]} at position {pos[0] if ids.ndim == 1 else pos} "
                         f"outside [0, {bound})")
    return ids.astype(np.int64, copy=False)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup weight[ids], with check_ids vetting `ids` as the caller passed them."""
    return weight[check_ids(ids, weight.data.shape[0], "token id")]


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

    rng = default_rng(seed)
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
