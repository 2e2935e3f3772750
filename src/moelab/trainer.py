"""Causal-LM training and scoring: cross-entropy plus the scaled load-balancing loss.

The objective is lm_loss + alpha * sum of per-MoE-layer balance losses, with
alpha from the model config. Optimization is Adam with global-norm gradient
clipping and a warmup-then-cosine learning-rate schedule. Batches are a pure
function of (seed, step), so a run checkpointed at step k and resumed follows
the original trajectory exactly. Scoring takes the cross-entropy alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .corpus import Document, group_by_language, sample_batch
from .errors import ConfigError, FormatError
from .fileio import atomic_write_text
from .model import ForwardOutput, Model, ModelConfig
from .optim import AdamState, adam_step, clip_global_norm
from .tensor import Tensor, cross_entropy, no_grad
from .tokenizer import BOS_ID, EOS_ID

LOG_HEADER = "step\tlm_loss\tmoe_loss\ttotal_loss\tlr\ttokens_seen"
WARMUP_FRAC = 0.01  # share of a run's steps spent warming the learning rate up
FLOOR_FRAC = 0.1  # the learning rate the cosine decays to, as a share of the peak
_STATE_FIELDS = ("step", "seed", "tokens_seen")  # a checkpoint's trainer state, all ints >= 0
SCORE_BATCH = 4  # documents per scoring forward; 8 ran no faster and held 19 MB more


@dataclass
class LossBreakdown:
    lm_loss: float
    moe_loss: float
    total_loss: float
    node: Tensor  # backward entry point


def total_loss(output: ForwardOutput, targets, alpha: float) -> LossBreakdown:
    """Cross-entropy plus alpha times the MoE layers' balance losses, summed in layer order.

    The hidden states are (T, d) for targets (T,) or (B, T, d) for targets
    (B, T); cross_entropy projects them onto the tied head itself, so the
    output's logits are never built.
    """
    lm = cross_entropy(output.hidden, output.head, targets)
    moe = output.moe_stats[0].balance
    for stats in output.moe_stats[1:]:
        moe = moe + stats.balance
    moe = moe * alpha
    node = lm + moe
    return LossBreakdown(lm_loss=lm.item(), moe_loss=moe.item(),
                         total_loss=node.item(), node=node)


def score_documents(model: Model, tokenizer, docs: list[Document], lang: str | None = None
                    ) -> tuple[dict[str, float], dict[str, int], int, int]:
    """Per-language summed next-token NLL and scored tokens, then the documents cut
    and the tokens past the window. A `lang` limits scoring to its documents.

    A document is BOS + text + EOS, cut to its first max_seq_len + 1 ids. Up to
    SCORE_BATCH consecutive documents of equal cut length share a no-grad forward;
    unequal ones are never padded together, because a non-finite key or value at a
    padded position would reach earlier rows through 0 * NaN in p @ v. The first
    non-finite loss raises FloatingPointError naming the document's index in
    `docs` and its language; a `lang` with no documents raises ValueError.
    """
    max_len = model.config.max_seq_len
    cut_docs = cut_tokens = 0
    groups = []  # [(index in docs, language, ids)] of one length each, in corpus order
    for index, doc in enumerate(docs):
        if lang is not None and doc.lang != lang:
            continue
        ids = [BOS_ID] + tokenizer.encode(doc.text) + [EOS_ID]
        if len(ids) > max_len + 1:  # score the first window; count what lies past it
            cut_docs += 1
            cut_tokens += len(ids) - (max_len + 1)
            ids = ids[:max_len + 1]
        if groups and len(groups[-1]) < SCORE_BATCH and len(groups[-1][0][2]) == len(ids):
            groups[-1].append((index, doc.lang, ids))
        else:
            groups.append([(index, doc.lang, ids)])
    if lang is not None and not groups:
        raise ValueError(f"no documents for language {lang!r}")
    nll_sum, tokens = {}, {}
    for group in groups:
        batch = np.array([ids for _, _, ids in group])
        n = batch.shape[1] - 1
        with no_grad():
            out = model.forward(batch[:, :-1])
            for row, (index, doc_lang, _) in enumerate(group):
                lm = total_loss(replace(out, hidden=out.hidden[row]), batch[row, 1:], 0.0).lm_loss
                if not math.isfinite(lm):
                    raise FloatingPointError(f"document {index} (counting from 0, language "
                                             f"{doc_lang!r}) has non-finite loss {lm}")
                nll_sum[doc_lang] = nll_sum.get(doc_lang, 0.0) + lm * n
                tokens[doc_lang] = tokens.get(doc_lang, 0) + n
    return nll_sum, tokens, cut_docs, cut_tokens


@dataclass
class LrSchedule:
    """Linear warmup to peak, cosine decay to peak * FLOOR_FRAC, then flat.

    Warmup step s runs at peak * (s + 1) / (warmup_steps + 1), so step 0 already trains.
    """

    peak: float
    warmup_steps: int
    decay_steps: int

    @classmethod
    def for_total_steps(cls, peak: float, total_steps: int) -> "LrSchedule":
        warmup = max(1, round(total_steps * WARMUP_FRAC))
        return cls(peak=peak, warmup_steps=warmup, decay_steps=max(1, total_steps - warmup))


def lr_at_step(step: int, schedule: LrSchedule) -> float:
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    if step <= schedule.warmup_steps:
        return schedule.peak * ((step + 1) / (schedule.warmup_steps + 1))
    floor = schedule.peak * FLOOR_FRAC
    done = step - schedule.warmup_steps
    if done >= schedule.decay_steps:
        return floor
    cos = 0.5 * (1.0 + math.cos(math.pi * done / schedule.decay_steps))
    return floor + (schedule.peak - floor) * cos


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
    """Owns one model plus its optimizer state for a deterministic run.

    Every batch row holds max_seq_len + 1 ids: max_seq_len inputs and their
    shifted targets, drawn from the corpus as grouped by language here, once.
    Adam starts from zero moments unless `adam` hands over the state to
    continue from, as Trainer.resume does.
    """

    def __init__(self, model: Model, docs: list[Document], tokenizer,
                 schedule: LrSchedule, batch_size: int, seed: int,
                 adam: AdamState | None = None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.groups = group_by_language(docs)
        self.tokenizer = _EncodeCache(tokenizer)
        self.schedule = schedule
        self.batch_size = batch_size
        self.seq_len = model.config.max_seq_len
        self.seed = seed
        self.params = model.named_parameters()
        self.adam = AdamState(self.params) if adam is None else adam
        self.step = 0
        self.tokens_seen = 0

    def train_step(self, batch: np.ndarray) -> LogRow:
        """Step self.step on a (B, L+1) id batch: forward, backward, Adam; returns its log row.

        step and tokens_seen advance after the update: a bad batch or a
        non-finite loss or gradient norm raises before it, leaving parameters,
        optimizer state and both counters as they were.
        """
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[0] == 0 or batch.shape[1] < 2:
            raise ValueError(f"batch must be (B, L+1) with B >= 1 and L >= 1, got {batch.shape}")
        step = self.step
        out = self.model.forward(batch[:, :-1])
        breakdown = total_loss(out, batch[:, 1:], self.model.config.alpha)
        if not math.isfinite(breakdown.total_loss):
            raise FloatingPointError(f"step {step}: total loss is {breakdown.total_loss}")
        self.model.zero_grad()
        breakdown.node.backward()
        norm = clip_global_norm(self.params)
        if not math.isfinite(norm):
            bad = next((name for name, p in self.params.items()
                        if p.grad is not None and not np.isfinite(p.grad).all()), None)
            self.model.zero_grad()
            raise FloatingPointError(f"step {step}: gradient norm is {norm}"
                                     + (f", first non-finite gradient in {bad!r}" if bad else ""))
        lr = lr_at_step(step, self.schedule)
        adam_step(self.params, self.adam, lr=lr, step=step)
        self.model.zero_grad()
        self.step += 1
        self.tokens_seen += batch.shape[0] * (batch.shape[1] - 1)
        return LogRow(step, breakdown.lm_loss, breakdown.moe_loss, breakdown.total_loss, lr,
                      self.tokens_seen)

    def run(self, steps: int) -> list[LogRow]:
        """Train for `steps` steps (at least 1; checked before any step)."""
        if steps < 1:
            raise ValueError(f"steps must be at least 1, got {steps}")
        return [self.train_step(sample_batch(self.groups, self.batch_size, self.seq_len,
                                             self.tokenizer, self.seed, self.step))
                for _ in range(steps)]

    # -- persistence -----------------------------------------------------------

    @classmethod
    def resume(cls, path: str, docs: list[Document], tokenizer, schedule: LrSchedule,
               batch_size: int) -> "Trainer":
        model, state = load_checkpoint(path)
        if state is None:
            raise FormatError(f"{path}: checkpoint carries no trainer state to resume from")
        trainer = cls(model, docs, tokenizer, schedule, batch_size, seed=state["seed"],
                      adam=state["moments"])
        trainer.step, trainer.tokens_seen = state["step"], state["tokens_seen"]
        return trainer


def save_checkpoint(source: Model | Trainer, path: str) -> None:
    """Write a Model's config + parameters to `path`; a Trainer's adds its state.

    The state is the trainer's step, seed and tokens_seen in the header and
    its Adam moments as tensors. A non-finite value in any tensor raises
    FloatingPointError naming the first before anything is written, so a
    file at `path` stays as it was.
    """
    trainer = source if isinstance(source, Trainer) else None
    model = source if trainer is None else trainer.model
    header: dict = {"model": asdict(model.config), "state": None}
    tensors = {name: p.data for name, p in model.named_parameters().items()}
    if trainer is not None:
        header["state"] = {field: getattr(trainer, field) for field in _STATE_FIELDS}
        for name in trainer.params:
            tensors[f"adam.m.{name}"] = trainer.adam.m[name]
            tensors[f"adam.v.{name}"] = trainer.adam.v[name]
    bad = next((name for name, arr in tensors.items() if not np.isfinite(arr).all()), None)
    if bad is not None:
        raise FloatingPointError(f"{path}: tensor {bad!r} holds a non-finite value; "
                                 "no checkpoint written")
    write_checkpoint(path, header, tensors)


def load_checkpoint(path: str) -> tuple[Model, dict | None]:
    """Build the model from the stored parameters (bitwise, no init draw) plus any trainer state.

    The state is None for a weights-only file, else the header's step, seed
    and tokens_seen plus "moments", the AdamState to continue from. The
    arrays read from the file become the parameters and Adam moments
    themselves, so a float64 checkpoint is held once in memory. A trainer
    state must be an object whose step, seed and tokens_seen are non-negative
    integers; anything else raises FormatError naming the field, and any
    other key (the "adam" object of older files, say) is ignored.
    Every tensor must be a parameter of the model the header describes or,
    when the header has a trainer state, one of its Adam moments; the first
    tensor that is neither, and the first moment whose shape is not its
    parameter's, raises FormatError naming it.
    """
    header, tensors = read_checkpoint(path)
    if not isinstance(header.get("model"), dict):
        raise FormatError(f"{path}: checkpoint header lacks a model config")
    try:
        config = ModelConfig.from_dict(header["model"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    state = header.get("state")
    if state is not None:
        _check_state(path, state)
    try:
        model = Model(config, tensors)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    known = set(model.named_parameters())
    if state is not None:
        known |= {f"adam.{kind}.{name}" for name in known for kind in "mv"}
    extra = next((name for name in tensors if name not in known), None)
    if extra is not None:
        raise FormatError(f"{path}: tensor {extra!r} is neither a parameter of the model the "
                          "header describes nor an Adam moment of its trainer state"
                          + ("" if state is not None else " (the header has none)"))
    if state is not None:
        adam = AdamState({})  # allocates nothing; the loaded moments become its state
        for name in model.named_parameters():
            for kind, moments in (("m", adam.m), ("v", adam.v)):
                key = f"adam.{kind}.{name}"
                if key not in tensors:
                    raise FormatError(f"{path}: checkpoint is missing optimizer tensor {key!r}")
                if tensors[key].shape != tensors[name].shape:
                    raise FormatError(f"{path}: optimizer tensor {key!r} has shape "
                                      f"{tensors[key].shape}, expected {tensors[name].shape}")
                moments[name] = np.require(tensors[key], np.float64, "CAW")
        state = {**{field: state[field] for field in _STATE_FIELDS}, "moments": adam}
    return model, state


def _check_state(path: str, state) -> None:
    """FormatError naming the first of _STATE_FIELDS that is not a non-negative int."""
    if not isinstance(state, dict):
        raise FormatError(f"{path}: checkpoint state must be an object, got {state!r}")
    for field in _STATE_FIELDS:
        value = state.get(field)
        if type(value) is not int or value < 0:
            raise FormatError(f"{path}: checkpoint state field {field!r} must be a "
                              f"non-negative integer, got {value!r}")
