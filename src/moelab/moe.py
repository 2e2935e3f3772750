"""Sparse Mixture-of-Experts feed-forward layer with top-1 gating.

Each token's representation is scored against every expert by a linear gate,
the scores are softmaxed into per-expert probabilities, and the token is
dispatched to the single most probable expert. The selected expert's output
is scaled by its gate probability, so gradients reach the gate weights
through that scalar factor while the argmax choice itself is non-differentiable
and treated as constant.

Dispatch is dropless: one stable sort by expert groups the tokens into
contiguous runs, each expert runs once on its run, and the inverse
permutation puts the outputs back in token order. An expert that receives no
token is not called.

moe_forward also returns the Switch load-balancing loss N * sum_i f_i * P_i
(aux_loss), where f is the fraction of tokens routed to each expert and P the
mean gate probability per expert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, as_tensor, concat, gelu, linear, softmax


@dataclass
class FeedForward:
    """Two-layer MLP d -> hidden -> d; used for dense blocks and for each expert."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def ffn_forward(x: Tensor, ffn: FeedForward) -> Tensor:
    return linear(gelu(linear(x, ffn.w1, ffn.b1)), ffn.w2, ffn.b2)


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
    """Per-layer routing snapshot for one forward pass over T tokens.

    selected holds each token's expert index. avg_gate_prob and
    token_fraction are the length-N vectors P and f whose scaled dot product
    is balance_loss.
    """

    selected: np.ndarray
    avg_gate_prob: np.ndarray
    token_fraction: np.ndarray
    balance_loss: float


def gate(x: Tensor, gate_weight: Tensor) -> tuple[Tensor, Tensor]:
    """Score tokens against experts: logits = x @ W^T, probs = row softmax."""
    logits = linear(x, gate_weight.transpose())
    return logits, softmax(logits)


def aux_loss(avg_gate_prob, token_fraction) -> Tensor:
    """Load-balancing loss: n_experts times the dot product of the two vectors.

    Equals 1.0 when both are uniform and grows toward n_experts as routing
    concentrates on fewer experts. Gradient flows through avg_gate_prob only.
    """
    p = as_tensor(avg_gate_prob)
    f = np.asarray(token_fraction, dtype=np.float64)
    if p.shape != f.shape or p.ndim != 1:
        raise ShapeError(f"expected matching vectors, got {p.shape} and {f.shape}")
    return (p * f).sum() * float(len(f))


def moe_forward(x: Tensor, layer: MoeLayer) -> tuple[Tensor, RoutingStats, Tensor]:
    """Route each of the T tokens in x (T x d) through its top-1 expert.

    Returns the combined layer output, the routing statistics, and the
    differentiable balance-loss node. The token fraction enters that node as
    a constant: only the mean gate probability carries gradient.
    """
    n_tokens = x.shape[0]
    _, probs = gate(x, layer.gate_weight)
    selected = probs.data.argmax(axis=-1)  # ties resolve to the lowest expert index
    counts = np.bincount(selected, minlength=layer.n_experts)
    order = np.argsort(selected, kind="stable")  # keeps token order within each expert
    ends = np.cumsum(counts)
    grouped = concat([ffn_forward(x[order[end - count:end]], expert)
                      for expert, count, end in zip(layer.experts, counts, ends) if count])
    rows = np.arange(n_tokens)[:, None]
    out = grouped[np.argsort(order)] * probs[rows, selected[:, None]]

    token_fraction = counts / n_tokens
    avg_gate_prob = probs.mean(axis=0)  # Tensor: keeps the gate on the loss path
    balance = aux_loss(avg_gate_prob, token_fraction)
    stats = RoutingStats(selected=selected, avg_gate_prob=avg_gate_prob.data.copy(),
                         token_fraction=token_fraction, balance_loss=balance.item())
    return out, stats, balance
