"""Sparse Mixture-of-Experts feed-forward layer with top-1 gating.

Each token's representation is scored against every expert by a linear gate,
the scores are softmaxed into per-expert probabilities, and the token is
dispatched to the single most probable expert. The selected expert's output
is scaled by its gate probability, so gradients reach the gate weights
through that scalar factor while the argmax choice itself is non-differentiable
and treated as constant.

Dispatch is dropless: one stable sort by expert groups the tokens into
contiguous runs, and each expert runs once on its run. An expert that
receives no token is not called. One combine node then scatters the runs'
rows back to token order, scales each by its token's gate probability and
adds the block's residual input into the same buffer, so the layer's output
is the residual stream itself and no expert-only sum outlives the forward.
It keeps no array of its own: backward gathers the output gradient g by the
sort order and scales it by the gathered probabilities into each run's
gradient, the probability gradient at each token's selected expert is the
row sum of g times the run's own output, read from the run, and the
residual, served last, takes g itself, as tensor._add_residual describes.

Each call also yields one RoutingStats record: the selection, the fraction
f_i of tokens routed to each expert, the gate probabilities, and from them,
when first read, the Switch load-balancing loss N * sum_i f_i * P_i as a
graph node, with P_i the mean gate probability of expert i. Only P carries
gradient; f enters as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, feed_forward, linear, set_grad_enabled, softmax


@dataclass
class FeedForward:
    """Two-layer MLP d -> hidden -> d; used for dense blocks and for each expert."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def ffn_forward(x: Tensor, ffn: FeedForward, residual: Tensor | None = None) -> Tensor:
    return feed_forward(x, ffn.w1, ffn.b1, ffn.w2, ffn.b2, residual)


@dataclass
class MoeLayer:
    """Gate weights (n_experts x d) plus the expert feed-forward blocks."""

    gate_weight: Tensor
    experts: list[FeedForward]

    @property
    def n_experts(self) -> int:
        return len(self.experts)


@dataclass
class RoutingStats:
    """One MoE layer's routing record for one forward pass over T tokens.

    selected holds each token's expert index, token_fraction the length-N
    vector f, the share of tokens each expert received, and probs the (T, N)
    gate probabilities. balance is the load-balancing loss
    N * sum_i f_i * P_i as a graph node: it equals 1.0 when both f and the
    mean gate probabilities P are uniform and grows toward N as routing
    concentrates on fewer experts. It is built on first read and then kept,
    recorded for backward exactly when probs was, so a pass that nothing
    asks for its balance (a decode step) builds no balance node.
    """

    selected: np.ndarray
    token_fraction: np.ndarray
    probs: Tensor

    @cached_property
    def balance(self) -> Tensor:
        with set_grad_enabled(self.probs.requires_grad):
            mean_prob = self.probs.sum(axis=0) * (1.0 / len(self.selected))  # P
            return (mean_prob * self.token_fraction).sum() * float(len(self.token_fraction))

    @property
    def balance_loss(self) -> float:
        """balance as a float, read by collect_activations' finiteness check and the
        benchmark's trace (perfbench/moebench/layers.py)."""
        return self.balance.item()


def gate(x: Tensor, gate_weight: Tensor) -> Tensor:
    """Score tokens against experts: row softmax of x @ W^T."""
    return softmax(linear(x, gate_weight.transpose()))


def combine(runs: list[Tensor], order: np.ndarray, probs: Tensor,
            selected: np.ndarray, residual: Tensor) -> Tensor:
    """residual plus the expert runs back in token order, each row times its gate
    probability, as one node.

    runs are the active experts' outputs in expert order; row k of them stacked
    belongs to token order[k]. residual holds the tokens' rows in token order
    under any leading shape, and the output takes that shape. The module
    docstring gives the backward.
    """
    n_tokens, width = len(order), runs[0].shape[1]
    if residual.data.size != n_tokens * width or residual.data.shape[-1:] != (width,):
        raise ShapeError(f"combine residual must hold {n_tokens} rows of width {width}, "
                         f"got shape {residual.data.shape}")
    picked = probs.data[np.arange(n_tokens), selected][:, None]
    splits = np.cumsum([run.shape[0] for run in runs])[:-1]
    out = np.empty((n_tokens, width))
    for run, tokens in zip(runs, np.split(order, splits)):
        out[tokens] = run.data
    out *= picked
    out = out.reshape(residual.data.shape)
    out += residual.data

    def bwd(g: np.ndarray) -> None:
        gathered = g.reshape(n_tokens, width)[order]
        parts = np.split(gathered, splits)  # one view per run
        if probs.requires_grad:
            gprobs = np.zeros_like(probs.data)
            gprobs[order, selected[order]] = np.concatenate(
                [(part * run.data).sum(axis=1) for part, run in zip(parts, runs)])
            probs._accum(gprobs)
        gathered *= picked[order]
        for run, part in zip(runs, parts):
            run._accum(part)
        residual._accum(g)

    return Tensor._op(out, (*runs, probs, residual), bwd)


def moe_forward(x: Tensor, layer: MoeLayer, residual: Tensor) -> tuple[Tensor, RoutingStats]:
    """Route each of the T tokens in x (T x d) through its top-1 expert.

    Returns residual plus the combined expert outputs, in residual's shape
    (its T rows in token order), and the layer's routing record.
    """
    n_tokens = x.shape[0]
    probs = gate(x, layer.gate_weight)
    selected = probs.data.argmax(axis=-1)  # ties resolve to the lowest expert index
    counts = np.bincount(selected, minlength=layer.n_experts)
    order = np.argsort(selected, kind="stable")  # keeps token order within each expert
    ends = np.cumsum(counts)
    runs = [ffn_forward(x[order[end - count:end]], expert)
            for expert, count, end in zip(layer.experts, counts, ends) if count]
    out = combine(runs, order, probs, selected, residual)
    return out, RoutingStats(selected, counts / n_tokens, probs)
