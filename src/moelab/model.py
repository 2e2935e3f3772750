"""GPT-style decoder-only transformer with alternating dense and MoE blocks.

Layers come in pairs: even layers keep the standard dense feed-forward block
and odd layers host a mixture-of-experts block, so half of the layers are MoE
layers, as in LOLA. Embeddings are tied between input and output, and
positions use a learned absolute table. Blocks are pre-norm residual with a
final layer norm; the attention out projection, the dense feed-forward and
the MoE combine each add the residual stream into their own output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError, FormatError, ShapeError
from .moe import FeedForward, MoeLayer, RoutingStats, ffn_forward, moe_forward
from .tensor import (Tensor, check_ids, embedding, grad_enabled, layer_norm, linear, no_grad,
                     set_grad_enabled, softmax)

INIT_STD = 0.02
FFN_MULTIPLIER = 4  # feed-forward hidden width, in units of d_model
MASKED_SCORE = -1e30  # added to the scores of future keys; exp() underflows to exactly 0


@dataclass
class ModelConfig:
    """The eight settings of a model: six sizes, the balance-loss weight, the init seed.

    The feed-forward width (FFN_MULTIPLIER * d_model), the MoE placement (odd
    layers) and the activation (tanh-form GELU) are fixed. A dict or file that
    sets any other field is rejected as unknown.
    """

    n_layers: int
    d_model: int
    n_heads: int
    max_seq_len: int
    vocab_size: int
    n_experts: int
    alpha: float = 0.01
    seed: int = 0

    def validate(self) -> None:
        problems = []
        for name in ("n_layers", "d_model", "n_heads", "max_seq_len", "vocab_size",
                     "n_experts", "seed"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if type(value) is not int or value < least:
                problems.append(f"{name} must be an integer >= {least}, got {value!r}")
        sizes_ok = not problems
        if sizes_ok and self.n_layers % 2 != 0:
            problems.append(f"n_layers must be even, got {self.n_layers}")
        if sizes_ok and self.d_model % self.n_heads != 0:
            problems.append(f"n_heads={self.n_heads} does not divide d_model={self.d_model}")
        alpha = self.alpha
        if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
                or not math.isfinite(alpha) or alpha < 0):
            problems.append(f"alpha must be a finite number >= 0, got {alpha!r}")
        if problems:
            raise ConfigError("; ".join(problems))

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            cfg = cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    @classmethod
    def load(cls, path: str) -> "ModelConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        try:
            return cls.from_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None


def desk_config(**overrides) -> ModelConfig:
    """A small configuration that trains in minutes on one CPU."""
    base = dict(n_layers=4, d_model=128, n_heads=4, max_seq_len=128,
                vocab_size=4096, n_experts=8)
    base.update(overrides)
    return ModelConfig(**base)


def moe_layer_indices(config: ModelConfig) -> list[int]:
    return list(range(1, config.n_layers, 2))


def param_count(config: ModelConfig) -> tuple[int, int]:
    """(active, total) parameter counts by closed form.

    Matches exhaustive enumeration of the allocated arrays: active counts all
    shared weights plus the gate matrices plus exactly one expert per MoE
    layer; total additionally counts the remaining experts.
    """
    config.validate()
    d, v, s, n = config.d_model, config.vocab_size, config.max_seq_len, config.n_experts
    hidden = FFN_MULTIPLIER * d
    ffn = 2 * d * hidden + hidden + d  # w1 + b1 + w2 + b2
    attn = 4 * d * d + 4 * d
    ln = 2 * d
    n_moe = len(moe_layer_indices(config))
    n_dense = config.n_layers - n_moe
    total = (v * d + s * d
             + config.n_layers * (attn + 2 * ln)
             + n_dense * ffn
             + n_moe * (n * ffn + n * d)
             + ln)
    active = total - n_moe * (n - 1) * ffn
    return active, total


@dataclass
class AttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor


@dataclass
class DecoderLayer:
    ln1_gain: Tensor
    ln1_bias: Tensor
    attn: AttentionParams
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn: FeedForward | None = None
    moe: MoeLayer | None = None


@dataclass
class ForwardOutput:
    """The final hidden states, the tied head, and one routing record per MoE layer, in layer order.

    hidden is the final layer norm's output, (T, d) for a sequence or
    (B, T, d) for a batch. head is the tied (vocab_size, d) embedding.
    logits, hidden @ head^T, are built on first read, recorded for backward
    exactly when hidden was, and kept; total_loss never reads them.
    total_loss also sums the records' balance-loss nodes.
    """

    hidden: Tensor
    head: Tensor
    moe_stats: list[RoutingStats]

    @cached_property
    def logits(self) -> Tensor:
        with set_grad_enabled(self.hidden.requires_grad):
            return linear(self.hidden, self.head.transpose())


class KVCache:
    """The attention keys and values of the positions a model has already seen.

    keys[i] and values[i] are preallocated (batch, max_seq_len, d_model)
    buffers for layer i. Rows 0..length-1 hold the projected K/V of positions
    0..length-1 of each sequence in the batch; later rows are unused. A prefix
    of rows is the (batch, rows, d_model) layout attention() takes, with no
    copy. Model.forward(tokens, cache) writes the rows of its new positions
    and then advances length. The arrays carry no gradient.
    """

    def __init__(self, config: ModelConfig, batch: int):
        shape = (batch, config.max_seq_len, config.d_model)
        self.keys = [np.zeros(shape) for _ in range(config.n_layers)]
        self.values = [np.zeros(shape) for _ in range(config.n_layers)]
        self.length = 0


class Model:
    """Decoder-only language model with seed-determined N(0, 0.02) weights and zero biases.

    __init__ is the one place that names the parameters: each is created by
    param(), which registers it under its dotted name. Creation order is the
    order of named_parameters(), of the init draws, of the checkpoint tensors
    and of the optimizer. With `weights` (name -> array, as read_checkpoint
    returns it) every parameter takes its stored array instead, and nothing
    is drawn; a missing or wrongly shaped array raises FormatError, and names
    the model does not have are ignored.

    The caller hands the weight arrays over: a parameter keeps an array that
    is already float64, C-contiguous, aligned and writeable as its .data
    without copying it, so no other parameter may hold that array and the
    caller must not write it afterwards, because training updates it in place.
    Any other array (float32, a strided view, read-only) is copied.
    """

    def __init__(self, config: ModelConfig, weights: dict[str, np.ndarray] | None = None):
        config.validate()
        self.config = config
        rng = default_rng(config.seed)
        d = config.d_model
        hidden = FFN_MULTIPLIER * d
        self._params: dict[str, Tensor] = {}

        def param(name: str, shape: tuple[int, ...], fill: float | None = None) -> Tensor:
            if weights is not None:
                if name not in weights:
                    raise FormatError(f"weights lack tensor {name!r}")
                if weights[name].shape != shape:
                    raise FormatError(
                        f"tensor {name!r} has shape {weights[name].shape}, expected {shape}")
                data = np.require(weights[name], np.float64, "CAW")
            elif fill is None:
                data = rng.normal(0.0, INIT_STD, size=shape)
            else:
                data = np.full(shape, fill)
            self._params[name] = Tensor(data, requires_grad=True)
            return self._params[name]

        def ffn(prefix: str) -> FeedForward:
            return FeedForward(w1=param(f"{prefix}.w1", (d, hidden)),
                               b1=param(f"{prefix}.b1", (hidden,), 0.0),
                               w2=param(f"{prefix}.w2", (hidden, d)),
                               b2=param(f"{prefix}.b2", (d,), 0.0))

        self.tok_emb = param("tok_emb", (config.vocab_size, d))
        self.pos_emb = param("pos_emb", (config.max_seq_len, d))
        moe_at = set(moe_layer_indices(config))
        self.layers: list[DecoderLayer] = []
        for i in range(config.n_layers):
            p = f"layers.{i}"
            layer = DecoderLayer(
                ln1_gain=param(f"{p}.ln1.gain", (d,), 1.0),
                ln1_bias=param(f"{p}.ln1.bias", (d,), 0.0),
                attn=AttentionParams(
                    **{n: param(f"{p}.attn.{n}", (d, d)) for n in ("wq", "wk", "wv", "wo")},
                    **{n: param(f"{p}.attn.{n}", (d,), 0.0) for n in ("bq", "bk", "bv", "bo")}),
                ln2_gain=param(f"{p}.ln2.gain", (d,), 1.0),
                ln2_bias=param(f"{p}.ln2.bias", (d,), 0.0))
            if i in moe_at:
                layer.moe = MoeLayer(
                    gate_weight=param(f"{p}.moe.gate", (config.n_experts, d)),
                    experts=[ffn(f"{p}.moe.experts.{e}") for e in range(config.n_experts)])
            else:
                layer.ffn = ffn(f"{p}.ffn")
            self.layers.append(layer)
        self.lnf_gain = param("lnf.gain", (d,), 1.0)
        self.lnf_bias = param("lnf.bias", (d,), 0.0)

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter by dotted name, in creation order (a new dict; the same Tensors)."""
        return dict(self._params)

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    # -- forward -----------------------------------------------------------------

    def forward(self, tokens, cache: KVCache | None = None) -> ForwardOutput:
        """Causal forward pass over one sequence (T,) or a batch (B, T) of integer ids.

        Without a cache the T tokens are positions 0..T-1. With a cache that
        holds s positions they are positions s..s+T-1: each attention layer
        writes their keys and values into cache rows s..s+T-1 and attends over
        rows 0..s+T-1, and the cache's length becomes s+T after the last
        layer. Hidden states, logits and MoE statistics cover the T new
        positions only.

        A cached forward must run under no_grad() (cached K/V are plain
        arrays, so gradients would stop at them), with a cache built for this
        model's layers, width and batch size, and with s+T <=
        max_seq_len; all of this is checked before any cache row is written.
        Logits at position p depend only on tokens at positions <= p.

        The forward itself never projects onto the vocabulary: the output
        builds the (positions x vocab_size) logits when they are first read.
        """
        x = embedding(self.tok_emb, tokens)  # checks each id as the caller passed it
        shape = x.shape[:-1]
        if len(shape) not in (1, 2):
            raise ValueError(f"tokens must be a sequence or batch of sequences, got shape {shape}")
        if not math.prod(shape):
            raise ValueError("empty token sequence")
        cfg = self.config
        squeeze = len(shape) == 1
        b, t = (1, *shape) if squeeze else shape
        d = cfg.d_model
        s = 0
        if cache is not None:
            if grad_enabled():
                raise RuntimeError("a cached forward must run under no_grad(): "
                                   "cached keys and values carry no gradient")
            needed = (b, cfg.max_seq_len, d)
            if len(cache.keys) != cfg.n_layers or cache.keys[0].shape != needed:
                raise ShapeError(
                    f"cache holds {len(cache.keys)} layers of shape {cache.keys[0].shape}, this "
                    f"call needs {cfg.n_layers} layers of shape {needed} "
                    f"(batch, max_seq_len, d_model)")
            s = cache.length
        if s + t > cfg.max_seq_len:
            held = f"cache length {s} + " if cache is not None else ""
            raise ValueError(f"{held}sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")

        if squeeze:
            x = x.reshape(1, t, d)
        x = x + self.pos_emb[s:s + t]
        stats: list[RoutingStats] = []
        for i, layer in enumerate(self.layers):
            h = layer_norm(x, layer.ln1_gain, layer.ln1_bias)
            a = layer.attn
            q = linear(h, a.wq, a.bq)
            k = linear(h, a.wk, a.bk)
            v = linear(h, a.wv, a.bv)
            if cache is not None:
                cache.keys[i][:, s:s + t] = k.data
                cache.values[i][:, s:s + t] = v.data
                k = Tensor(cache.keys[i][:, :s + t])
                v = Tensor(cache.values[i][:, :s + t])
            x = linear(attention(q, k, v, cfg.n_heads), a.wo, a.bo, residual=x)

            h = layer_norm(x, layer.ln2_gain, layer.ln2_bias)
            if layer.moe is not None:
                x, layer_stats = moe_forward(h.reshape(b * t, d), layer.moe, x)
                stats.append(layer_stats)
            else:
                x = ffn_forward(h, layer.ffn, x)
        if cache is not None:
            cache.length = s + t
        x = layer_norm(x, self.lnf_gain, self.lnf_bias)
        if squeeze:
            x = x.reshape(t, d)
        return ForwardOutput(hidden=x, head=self.tok_emb, moe_stats=stats)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Causal multi-head attention as one graph node.

    q is (B, T, d); k and v are (B, S+T, d), and the T queries are the last T
    of the S+T key positions: query i attends to keys 0..S+i (S is 0 without
    a cache). The result is the (B, T, d) context with heads merged. Heads
    are numpy views (B, n_heads, rows, d / n_heads) of the inputs, not graph
    nodes, and the probabilities come from softmax(). Backward, with P the
    probabilities, C the context per head and c = 1/sqrt(head width):
    dV = P^T dC, dP = dC V^T, dS = P * (dP - rowsum(dP * P)) * c,
    dQ = dS K, dK = dS^T Q.
    """
    b, t, d = q.shape
    rows = k.shape[1]
    head = d // n_heads

    def split(m: np.ndarray) -> np.ndarray:
        return m.reshape(b, m.shape[1], n_heads, head).transpose(0, 2, 1, 3)

    def merge(m: np.ndarray) -> np.ndarray:
        return m.transpose(0, 2, 1, 3).reshape(b, m.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(head)
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    if t > 1:  # one query (a cached decode step) sees every key: nothing to mask
        scores += np.triu(np.full((t, rows), MASKED_SCORE), k=rows - t + 1)
    p = softmax(Tensor(scores)).data

    def bwd(g: np.ndarray) -> None:
        gc = split(g)
        v._accum(merge(p.swapaxes(-1, -2) @ gc))
        gp = gc @ vh.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        gs *= scale
        q._accum(merge(gs @ kh))
        k._accum(merge((qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)))

    return Tensor._op(merge(p @ vh), (q, k, v), bwd)


def generate(model: Model, prompt_ids, max_new_tokens: int, temperature: float = 0.0,
             seed: int = 0) -> list[int]:
    """Autoregressive sampling; temperature 0 is greedy argmax.

    The prompt must be one non-empty sequence of ids that check_ids accepts;
    otherwise ValueError names the first bad position or the shape, before any forward.
    One forward over all prompt ids but the last fills a KVCache, reading no
    logits; each step then feeds one token (the last prompt id, then the
    token just chosen) and projects only its row onto the vocabulary. Every
    position is computed once: len(prompt) + max_new_tokens - 1 positions for
    max_new_tokens >= 1, and none for max_new_tokens = 0.
    A non-finite temperature raises ValueError before any forward, and
    non-finite logits raise FloatingPointError naming their position. A
    temperature so small that logits / temperature overflows raises
    ValueError naming it before that token is drawn.
    """
    step = check_ids(prompt_ids, model.config.vocab_size, "prompt id")
    if step.ndim != 1:
        raise ValueError(f"a prompt is one sequence of ids, got shape {step.shape}")
    if not step.size:
        raise ValueError("empty prompt")
    ids = step.tolist()
    if max_new_tokens < 0:
        raise ValueError(f"max_new_tokens must be non-negative, got {max_new_tokens}")
    if len(ids) + max_new_tokens > model.config.max_seq_len:
        raise ValueError(
            f"prompt length {len(ids)} + max_new_tokens {max_new_tokens} exceeds "
            f"max_seq_len {model.config.max_seq_len}")
    if not math.isfinite(temperature) or temperature < 0:
        raise ValueError(f"temperature must be a finite number >= 0, got {temperature}")
    rng = default_rng(seed)
    cache = KVCache(model.config, batch=1)
    with no_grad():
        if max_new_tokens and len(ids) > 1:
            model.forward(step[:-1], cache)  # fills the cache; no logits are read
        step = step[-1:]
        for _ in range(max_new_tokens):
            last = model.forward(step, cache).logits.data[0]
            if not np.isfinite(last).all():
                raise FloatingPointError(f"logits at position {len(ids) - 1} are not finite")
            if temperature == 0.0:
                nxt = int(last.argmax())
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    scaled = last / temperature
                    spread = scaled.max() - scaled.min()  # inf or nan if anything overflowed
                if not math.isfinite(spread):
                    raise ValueError(f"temperature {temperature} is too small: the logits at "
                                     f"position {len(ids) - 1} divided by it overflow")
                p = softmax(Tensor(scaled)).data
                nxt = int(rng.choice(len(p), p=p))
            ids.append(nxt)
            step = np.asarray([nxt])
    return ids
