"""GPT-style decoder-only transformer with alternating dense and MoE blocks.

Layers come in pairs: one parity of layer indices keeps the standard dense
feed-forward block, the other hosts a mixture-of-experts block, so half of
the layers are MoE layers. Embeddings are tied between input and output, and
positions use a learned absolute table. Blocks are pre-norm residual with a
final layer norm.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .moe import FeedForward, MoeLayer, RoutingStats, ffn_forward, moe_forward
from .tensor import Tensor, embedding, layer_norm, no_grad, softmax

INIT_STD = 0.02
LN_EPS = 1e-5
MASKED_SCORE = -1e30  # finite so debug NaN/Inf checks stay usable; exp() underflows to exactly 0


@dataclass
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    max_seq_len: int
    vocab_size: int
    n_experts: int
    ffn_multiplier: int = 4
    moe_placement: str = "odd"
    alpha: float = 0.01
    gelu_variant: str = "exact"
    seed: int = 0

    def validate(self) -> None:
        problems = []
        for name in ("n_layers", "d_model", "n_heads", "max_seq_len", "vocab_size",
                     "n_experts", "ffn_multiplier"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_layers % 2 != 0:
            problems.append(f"n_layers must be even, got {self.n_layers}")
        if self.n_heads >= 1 and self.d_model % self.n_heads != 0:
            problems.append(f"n_heads={self.n_heads} does not divide d_model={self.d_model}")
        if self.moe_placement not in ("odd", "even"):
            problems.append(f"moe_placement must be 'odd' or 'even', got {self.moe_placement!r}")
        if self.gelu_variant not in ("exact", "tanh"):
            problems.append(f"gelu_variant must be 'exact' or 'tanh', got {self.gelu_variant!r}")
        if self.alpha < 0:
            problems.append(f"alpha must be non-negative, got {self.alpha}")
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        return asdict(self)

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
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)


def paper_config() -> ModelConfig:
    """The reference full-scale instantiation (not buildable on a desk; countable)."""
    return ModelConfig(n_layers=24, d_model=2048, n_heads=16, max_seq_len=2048,
                       vocab_size=100_000, n_experts=16)


def desk_config(**overrides) -> ModelConfig:
    """A small configuration that trains in minutes on one CPU."""
    base = dict(n_layers=4, d_model=128, n_heads=4, max_seq_len=128,
                vocab_size=4096, n_experts=8)
    base.update(overrides)
    return ModelConfig(**base)


def moe_layer_indices(config: ModelConfig) -> list[int]:
    parity = 1 if config.moe_placement == "odd" else 0
    return [i for i in range(config.n_layers) if i % 2 == parity]


def param_count(config: ModelConfig) -> tuple[int, int]:
    """(active, total) parameter counts by closed form.

    Matches exhaustive enumeration of the allocated arrays: active counts all
    shared weights plus the gate matrices plus exactly one expert per MoE
    layer; total additionally counts the remaining experts.
    """
    config.validate()
    d, v, s, n = config.d_model, config.vocab_size, config.max_seq_len, config.n_experts
    hidden = config.ffn_multiplier * d
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
    """Logits plus the per-MoE-layer routing snapshots and balance-loss nodes."""

    logits: Tensor
    moe_stats: list[RoutingStats] = field(default_factory=list)
    balance_losses: list[Tensor] = field(default_factory=list)


class Model:
    """Decoder-only language model with seed-determined N(0, 0.02) weights and zero biases."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        hidden = config.ffn_multiplier * d

        def weight(*shape) -> Tensor:
            return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)

        def zeros(*shape) -> Tensor:
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(*shape) -> Tensor:
            return Tensor(np.ones(shape), requires_grad=True)

        def make_ffn() -> FeedForward:
            return FeedForward(w1=weight(d, hidden), b1=zeros(hidden),
                               w2=weight(hidden, d), b2=zeros(d))

        self.tok_emb = weight(config.vocab_size, d)
        self.pos_emb = weight(config.max_seq_len, d)
        moe_at = set(moe_layer_indices(config))
        self.layers: list[DecoderLayer] = []
        for i in range(config.n_layers):
            attn = AttentionParams(
                wq=weight(d, d), wk=weight(d, d), wv=weight(d, d), wo=weight(d, d),
                bq=zeros(d), bk=zeros(d), bv=zeros(d), bo=zeros(d))
            layer = DecoderLayer(ln1_gain=ones(d), ln1_bias=zeros(d), attn=attn,
                                 ln2_gain=ones(d), ln2_bias=zeros(d))
            if i in moe_at:
                layer.moe = MoeLayer(
                    gate_weight=weight(config.n_experts, d),
                    experts=[make_ffn() for _ in range(config.n_experts)])
            else:
                layer.ffn = make_ffn()
            self.layers.append(layer)
        self.lnf_gain = ones(d)
        self.lnf_bias = zeros(d)

    # -- parameter registry ----------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        out = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        for i, layer in enumerate(self.layers):
            p = f"layers.{i}"
            out[f"{p}.ln1.gain"] = layer.ln1_gain
            out[f"{p}.ln1.bias"] = layer.ln1_bias
            for name in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo"):
                out[f"{p}.attn.{name}"] = getattr(layer.attn, name)
            out[f"{p}.ln2.gain"] = layer.ln2_gain
            out[f"{p}.ln2.bias"] = layer.ln2_bias
            if layer.moe is not None:
                out.update(layer.moe.named(f"{p}.moe"))
            else:
                out.update(layer.ffn.named(f"{p}.ffn"))
        out["lnf.gain"] = self.lnf_gain
        out["lnf.bias"] = self.lnf_bias
        return out

    def zero_grad(self) -> None:
        for p in self.named_parameters().values():
            p.zero_grad()

    def param_count(self) -> tuple[int, int]:
        return param_count(self.config)

    # -- forward -----------------------------------------------------------------

    def forward(self, tokens) -> ForwardOutput:
        """Causal forward pass over one sequence (T,) or a batch (B, T).

        Logits at position t depend only on tokens at positions <= t. MoE
        statistics aggregate over all tokens of the call.
        """
        ids = np.asarray(tokens)
        squeeze = ids.ndim == 1
        if squeeze:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise ValueError(f"tokens must be a sequence or batch of sequences, got shape {ids.shape}")
        b, t = ids.shape
        if t == 0:
            raise ValueError("empty token sequence")
        if t > self.config.max_seq_len:
            raise ValueError(f"sequence length {t} exceeds max_seq_len {self.config.max_seq_len}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError(
                f"token id outside [0, {self.config.vocab_size}): min={ids.min()}, max={ids.max()}")

        cfg = self.config
        d = cfg.d_model
        n_heads = cfg.n_heads
        head = d // n_heads
        scale = 1.0 / np.sqrt(head)
        mask = np.triu(np.full((t, t), MASKED_SCORE), k=1)

        x = embedding(self.tok_emb, ids) + embedding(self.pos_emb, np.arange(t))
        stats: list[RoutingStats] = []
        balances: list[Tensor] = []
        for layer in self.layers:
            h = layer_norm(x, layer.ln1_gain, layer.ln1_bias, LN_EPS)
            a = layer.attn

            def split(m: Tensor) -> Tensor:
                return m.reshape(b, t, n_heads, head).transpose((0, 2, 1, 3))

            q = split(h @ a.wq + a.bq)
            k = split(h @ a.wk + a.bk)
            v = split(h @ a.wv + a.bv)
            scores = (q @ k.transpose((0, 1, 3, 2))) * scale + mask
            ctx = softmax(scores, axis=-1) @ v
            ctx = ctx.transpose((0, 2, 1, 3)).reshape(b, t, d)
            x = x + (ctx @ a.wo + a.bo)

            h = layer_norm(x, layer.ln2_gain, layer.ln2_bias, LN_EPS)
            if layer.moe is not None:
                y, layer_stats, balance = moe_forward(
                    h.reshape(b * t, d), layer.moe, cfg.gelu_variant)
                x = x + y.reshape(b, t, d)
                stats.append(layer_stats)
                balances.append(balance)
            else:
                x = x + ffn_forward(h, layer.ffn, cfg.gelu_variant)

        x = layer_norm(x, self.lnf_gain, self.lnf_bias, LN_EPS)
        logits = x @ self.tok_emb.transpose()
        if squeeze:
            logits = logits.reshape(t, cfg.vocab_size)
        return ForwardOutput(logits=logits, moe_stats=stats, balance_losses=balances)


def generate(model: Model, prompt_ids, max_new_tokens: int, temperature: float = 0.0,
             seed: int = 0) -> list[int]:
    """Autoregressive sampling; temperature 0 is greedy argmax."""
    ids = [int(i) for i in prompt_ids]
    if max_new_tokens < 0:
        raise ValueError(f"max_new_tokens must be non-negative, got {max_new_tokens}")
    if len(ids) + max_new_tokens > model.config.max_seq_len:
        raise ValueError(
            f"prompt length {len(ids)} + max_new_tokens {max_new_tokens} exceeds "
            f"max_seq_len {model.config.max_seq_len}")
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    rng = np.random.default_rng(seed)
    for _ in range(max_new_tokens):
        with no_grad():
            out = model.forward(np.asarray(ids))
        last = out.logits.data[-1]
        if temperature == 0.0:
            nxt = int(last.argmax())
        else:
            z = last / temperature
            z -= z.max()
            p = np.exp(z)
            p /= p.sum()
            nxt = int(rng.choice(len(p), p=p))
        ids.append(nxt)
    return ids
