"""Causal-LM training loop: cross-entropy plus the scaled load-balancing loss.

The objective is lm_loss + alpha * sum of per-MoE-layer balance losses, with
alpha from the model config. Optimization is Adam with global-norm gradient
clipping and a warmup-then-cosine learning-rate schedule. Batches are a pure
function of (seed, step), so a run checkpointed at step k and resumed follows
the original trajectory exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .corpus import Document, sample_batch
from .errors import FormatError, ShapeError
from .fileio import atomic_write_text
from .model import ForwardOutput, Model, ModelConfig
from .optim import AdamState, adam_step, clip_global_norm
from .tensor import Tensor, as_tensor, cross_entropy

LOG_HEADER = "step\tlm_loss\tmoe_loss\ttotal_loss\tlr\ttokens_seen"
CLIP_NORM = 1.0  # global gradient-norm bound applied before every Adam step


@dataclass
class LossBreakdown:
    lm_loss: float
    moe_loss: float
    total_loss: float
    node: Tensor | None = None  # backward entry point; None for detached evaluations


def total_loss(output: ForwardOutput, targets, alpha: float) -> LossBreakdown:
    """Combine cross-entropy with alpha times the summed per-layer balance losses."""
    logits = as_tensor(output.logits)
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not align with logits {logits.shape}")
    if logits.ndim == 3:
        logits = logits.reshape(targets.size, logits.shape[-1])
        targets = targets.reshape(-1)
    lm = cross_entropy(logits, targets)
    balances = output.balance_losses
    if balances:
        aux_sum = balances[0]
        for b in balances[1:]:
            aux_sum = aux_sum + b
        moe = as_tensor(aux_sum) * alpha
    else:
        moe = as_tensor(0.0)
    node = lm + moe
    return LossBreakdown(lm_loss=lm.item(), moe_loss=moe.item(),
                         total_loss=node.item(), node=node)


@dataclass
class LrSchedule:
    """Linear warmup from zero to peak, cosine decay to min_lr, then flat."""

    peak: float
    warmup_steps: int
    decay_steps: int
    min_lr: float

    @classmethod
    def for_total_steps(cls, peak: float, total_steps: int,
                        warmup_frac: float = 0.01, floor_frac: float = 0.1) -> "LrSchedule":
        warmup = max(1, round(total_steps * warmup_frac))
        return cls(peak=peak, warmup_steps=warmup,
                   decay_steps=max(1, total_steps - warmup), min_lr=peak * floor_frac)


def lr_at_step(step: int, schedule: LrSchedule) -> float:
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    if step <= schedule.warmup_steps:
        return schedule.peak * step / schedule.warmup_steps
    done = step - schedule.warmup_steps
    if done >= schedule.decay_steps:
        return schedule.min_lr
    cos = 0.5 * (1.0 + math.cos(math.pi * done / schedule.decay_steps))
    return schedule.min_lr + (schedule.peak - schedule.min_lr) * cos


@dataclass
class LogRow:
    step: int
    lm_loss: float
    moe_loss: float
    total_loss: float
    lr: float
    tokens_seen: int

    def format(self) -> str:
        return (f"{self.step}\t{self.lm_loss:.6f}\t{self.moe_loss:.6f}\t"
                f"{self.total_loss:.6f}\t{self.lr:.6e}\t{self.tokens_seen}")


def write_log_tsv(rows: list[LogRow], path: str) -> None:
    atomic_write_text(path, "\n".join([LOG_HEADER] + [r.format() for r in rows]) + "\n")


class _EncodeCache:
    """Tokenizer wrapper memoizing encode() for repeatedly sampled documents."""

    def __init__(self, tokenizer):
        self._tok = tokenizer
        self._memo: dict[str, list[int]] = {}

    def encode(self, text: str) -> list[int]:
        ids = self._memo.get(text)
        if ids is None:
            ids = self._tok.encode(text)
            self._memo[text] = ids
        return ids


class Trainer:
    """Owns one model plus its optimizer state for a deterministic run."""

    def __init__(self, model: Model, docs: list[Document], tokenizer,
                 schedule: LrSchedule, batch_size: int, seed: int,
                 seq_len: int | None = None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.docs = docs
        self.tokenizer = _EncodeCache(tokenizer)
        self.schedule = schedule
        self.batch_size = batch_size
        self.seq_len = seq_len if seq_len is not None else model.config.max_seq_len
        self.seed = seed
        self.params = model.named_parameters()
        self.adam = AdamState(self.params)
        self.step = 0
        self.tokens_seen = 0

    def train_step(self, batch: np.ndarray, step: int) -> LossBreakdown:
        """One forward/backward/Adam update on a (B, L+1) id batch.

        A non-finite loss or gradient norm raises FloatingPointError before
        the update, so parameters and optimizer state stay as they were.
        """
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] < 2:
            raise ValueError(f"batch must be (B, L+1) with B >= 1 and L >= 1, got {batch.shape}")
        inputs, targets = batch[:, :-1], batch[:, 1:]
        out = self.model.forward(inputs)
        breakdown = total_loss(out, targets, self.model.config.alpha)
        if not math.isfinite(breakdown.total_loss):
            raise FloatingPointError(f"step {step}: total loss is {breakdown.total_loss}")
        self.model.zero_grad()
        breakdown.node.backward()
        norm = clip_global_norm(self.params, CLIP_NORM)
        if not math.isfinite(norm):
            bad = next((name for name, p in self.params.items()
                        if p.grad is not None and not np.isfinite(p.grad).all()), None)
            self.model.zero_grad()
            raise FloatingPointError(f"step {step}: gradient norm is {norm}"
                                     + (f", first non-finite gradient in {bad!r}" if bad else ""))
        adam_step(self.params, self.adam, lr=lr_at_step(step, self.schedule))
        self.model.zero_grad()
        return breakdown

    def run(self, steps: int, log_path: str | None = None,
            stop_lm_loss: float | None = None) -> list[LogRow]:
        """Train for up to `steps` steps; optionally stop once lm_loss dips below a target."""
        rows: list[LogRow] = []
        for _ in range(steps):
            step = self.step
            batch = sample_batch(self.docs, self.batch_size, self.seq_len,
                                 self.tokenizer, self.seed, step)
            breakdown = self.train_step(batch, step)
            self.step += 1
            self.tokens_seen += batch.shape[0] * (batch.shape[1] - 1)
            rows.append(LogRow(step, breakdown.lm_loss, breakdown.moe_loss,
                               breakdown.total_loss, lr_at_step(step, self.schedule),
                               self.tokens_seen))
            if stop_lm_loss is not None and breakdown.lm_loss < stop_lm_loss:
                break
        if log_path is not None:
            write_log_tsv(rows, log_path)
        return rows

    # -- persistence -----------------------------------------------------------

    @classmethod
    def resume(cls, path: str, docs: list[Document], tokenizer, schedule: LrSchedule,
               batch_size: int, **kwargs) -> "Trainer":
        model, state = load_checkpoint(path)
        if state is None:
            raise FormatError(f"{path}: checkpoint carries no trainer state to resume from")
        trainer = cls(model, docs, tokenizer, schedule, batch_size,
                      seed=state["seed"], **kwargs)
        trainer.step = state["step"]
        trainer.tokens_seen = state["tokens_seen"]
        trainer.adam.step = state["adam"]["step"]
        for name in trainer.params:
            trainer.adam.m[name] = state["moments_m"][name]
            trainer.adam.v[name] = state["moments_v"][name]
        return trainer


def save_checkpoint(model: Model, path: str, trainer: Trainer | None = None) -> None:
    """Write config + parameters (and, when given, optimizer state) to `path`."""
    header: dict = {"model": model.config.to_dict(), "state": None}
    tensors = {name: p.data for name, p in model.named_parameters().items()}
    if trainer is not None:
        header["state"] = {
            "step": trainer.step,
            "seed": trainer.seed,
            "tokens_seen": trainer.tokens_seen,
            "adam": {"step": trainer.adam.step},
        }
        for name in trainer.params:
            tensors[f"adam.m.{name}"] = trainer.adam.m[name]
            tensors[f"adam.v.{name}"] = trainer.adam.v[name]
    write_checkpoint(path, header, tensors)


def load_checkpoint(path: str) -> tuple[Model, dict | None]:
    """Build the model from the stored parameters (bitwise, no init draw) plus any trainer state."""
    header, tensors = read_checkpoint(path)
    if "model" not in header:
        raise FormatError(f"{path}: checkpoint header lacks a model config")
    config = ModelConfig.from_dict(header["model"])
    try:
        model = Model(config, tensors)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    state = header.get("state")
    if state is not None:
        state = dict(state)
        state["moments_m"] = {}
        state["moments_v"] = {}
        for name in model.named_parameters():
            for kind, dest in (("m", "moments_m"), ("v", "moments_v")):
                key = f"adam.{kind}.{name}"
                if key not in tensors:
                    raise FormatError(f"{path}: checkpoint is missing optimizer tensor {key!r}")
                state[dest][name] = tensors[key].astype(np.float64)
    return model, state
