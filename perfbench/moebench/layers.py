"""Which moelab calls the traced run wraps, and the per-layer metrics derived from them.

Each function is wrapped in the module where its call site looks it up:
model.py, moe.py and trainer.py import softmax, layer_norm, embedding,
moe_forward, ffn_forward, cross_entropy, adam_step, clip_global_norm,
sample_batch and read_checkpoint by name, so those names are patched in the
importing module, not in the module that defines them.

Metric naming:
    <span>.busy_s    seconds inside the call per timed op (unit s/op)
    <span>.self_s    the same minus the time of wrapped calls inside it
    <span>.calls     calls per timed op
    <span>.setup_s   seconds inside the call per set-up (unit s/setup)
Only ops that ran traced count; `trace.overhead_*` compares them with the
untraced ops of the same run.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict

import numpy as np

from .stats import median
from .tracer import SETUP_OP, Tracer, self_times

# Spans whose per-op busy time is reported.
BUSY = [
    "tensor.backward", "tensor.softmax", "tensor.layer_norm", "tensor.cross_entropy",
    "tensor.embedding", "model.forward", "model.init", "moe.moe_forward", "moe.expert_ffn",
    "optim.adam_step", "optim.clip_global_norm", "trainer.total_loss",
    "trainer.encode_cache", "corpus.sample_batch", "corpus.pack_sequences",
    "corpus.load_jsonl", "tokenizer.encode", "tokenizer.load", "checkpoint.read",
    "analysis.collect_activations", "analysis.distance_matrix", "analysis.pearson",
    "cli.cmd_perplexity",
]
SELF = ["model.forward", "moe.moe_forward", "cli.cmd_perplexity"]
CALLS = ["model.forward", "moe.expert_ffn", "tokenizer.encode"]
SETUP = ["tokenizer.train", "model.init", "checkpoint.read", "tokenizer.load",
         "corpus.load_jsonl"]

PER_LAYER: list[tuple[str, str]] = (
    [(f"{s}.busy_s", "s/op") for s in BUSY]
    + [(f"{s}.self_s", "s/op") for s in SELF]
    + [(f"{s}.calls", "count/op") for s in CALLS]
    + [(f"{s}.setup_s", "s/setup") for s in SETUP]
    + [
        ("tensor.graph_nodes", "count/op"),
        ("model.forward.positions", "count/op"),
        ("model.forward.positions_per_output_token", "ratio"),
        ("moe.expert_load_max_frac", "ratio"),
        ("moe.dead_experts", "count"),
        ("moe.balance_loss", "ratio"),
        ("trainer.encode_cache.hit_ratio", "ratio"),
        ("checkpoint.bytes", "bytes"),
        ("trace.overhead_ms", "ms/op"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _count_graph(tracer: Tracer, args, kwargs) -> None:
    """Nodes reachable from the loss that backward() is about to walk."""
    seen = {id(args[0])}
    stack = [args[0]]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.counts["tensor.graph_nodes"] += len(seen)


def _count_forward(tracer: Tracer, out, args, kwargs) -> None:
    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    tracer.counts["model.forward.positions"] += np.asarray(tokens).size
    for stats in out.moe_stats:
        tracer.counts["moe.layer_calls"] += 1
        tracer.counts["moe.expert_load_max_frac"] += float(stats.token_fraction.max())
        tracer.counts["moe.dead_experts"] += int((stats.token_fraction == 0).sum())
        tracer.counts["moe.balance_loss"] += stats.balance_loss


def _count_bytes(tracer: Tracer, args, kwargs) -> None:
    tracer.counts["checkpoint.bytes"] += os.path.getsize(args[0])


def layer_tracer() -> Tracer:
    """A Tracer over every moelab layer the benchmark measures."""
    from moelab import analysis, cli, corpus, model, moe, tensor, tokenizer, trainer

    t = Tracer()
    t.wrap(tensor.Tensor, "backward", "tensor.backward", before=_count_graph)
    t.wrap(model, "softmax", "tensor.softmax")
    t.wrap(moe, "softmax", "tensor.softmax")
    t.wrap(model, "layer_norm", "tensor.layer_norm")
    t.wrap(model, "embedding", "tensor.embedding")
    t.wrap(trainer, "cross_entropy", "tensor.cross_entropy")
    t.wrap(model.Model, "forward", "model.forward", after=_count_forward)
    t.wrap(model.Model, "__init__", "model.init")
    t.wrap(model, "moe_forward", "moe.moe_forward")
    t.wrap(moe, "ffn_forward", "moe.expert_ffn")
    t.wrap(trainer, "adam_step", "optim.adam_step")
    t.wrap(trainer, "clip_global_norm", "optim.clip_global_norm")
    t.wrap(trainer, "total_loss", "trainer.total_loss")
    t.wrap(trainer._EncodeCache, "encode", "trainer.encode_cache")
    t.wrap(trainer, "sample_batch", "corpus.sample_batch")
    t.wrap(corpus, "pack_sequences", "corpus.pack_sequences")
    t.wrap(corpus, "load_jsonl", "corpus.load_jsonl")
    t.wrap(tokenizer.Tokenizer, "encode", "tokenizer.encode")
    t.wrap(tokenizer.Tokenizer, "train", "tokenizer.train")
    t.wrap(tokenizer.Tokenizer, "load", "tokenizer.load")
    t.wrap(trainer, "read_checkpoint", "checkpoint.read", before=_count_bytes)
    t.wrap(analysis, "collect_activations", "analysis.collect_activations")
    t.wrap(analysis, "distance_matrix", "analysis.distance_matrix")
    t.wrap(analysis, "pearson", "analysis.pearson")
    t.wrap(cli, "cmd_perplexity", "cli.cmd_perplexity")
    return t


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run) -> dict[str, float]:
    """Every PER_LAYER metric of a run whose set-up and even ops were traced."""
    spans = tracer.spans
    op_tokens = [n for n, traced in zip(run.op_tokens, run.op_traced) if traced]
    traced_s = median([s for s, traced in zip(run.op_s, run.op_traced) if traced])
    plain_s = median([s for s, traced in zip(run.op_s, run.op_traced) if not traced])
    n_setups = len(run.setup_s)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    setup: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        if span.op == SETUP_OP:
            setup[span.name] += span.end - span.start
        else:
            busy[span.name] += span.end - span.start
            own[span.name] += self_s
            calls[span.name] += 1
    n_ops = len(op_tokens)
    counts = tracer.counts
    misses = sum(1 for s in spans if s.name == "tokenizer.encode" and s.parent >= 0
                 and spans[s.parent].name == "trainer.encode_cache")
    lookups = sum(1 for s in spans if s.name == "trainer.encode_cache")
    reads = sum(1 for s in spans if s.name == "checkpoint.read")
    layer_calls = counts["moe.layer_calls"]

    out = {f"{s}.busy_s": _ratio(busy[s], n_ops) for s in BUSY}
    out.update({f"{s}.self_s": _ratio(own[s], n_ops) for s in SELF})
    out.update({f"{s}.calls": _ratio(calls[s], n_ops) for s in CALLS})
    out.update({f"{s}.setup_s": _ratio(setup[s], n_setups) for s in SETUP})
    out.update({
        "tensor.graph_nodes": _ratio(counts["tensor.graph_nodes"], n_ops),
        "model.forward.positions": _ratio(counts["model.forward.positions"], n_ops),
        "model.forward.positions_per_output_token":
            _ratio(counts["model.forward.positions"], sum(op_tokens)),
        "moe.expert_load_max_frac": _ratio(counts["moe.expert_load_max_frac"], layer_calls),
        "moe.dead_experts": _ratio(counts["moe.dead_experts"], layer_calls),
        "moe.balance_loss": _ratio(counts["moe.balance_loss"], layer_calls),
        "trainer.encode_cache.hit_ratio": _ratio(lookups - misses, lookups),
        "checkpoint.bytes": _ratio(counts["checkpoint.bytes"], reads),
        "trace.overhead_ms": (traced_s - plain_s) * 1e3,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    return out
