"""Command-line entry point.

One binary, eight subcommands: tokenizer training, model training, sampling,
perplexity, parameter counting, synthetic corpus generation, routing
analysis, and matrix correlation. Every file the CLI writes is written
atomically, and all randomness hangs off an explicit --seed flag.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, corpus as corpus_mod, model as model_mod, trainer as trainer_mod
from .errors import ConfigError, FormatError, ShapeError
from .tensor import no_grad
from .tokenizer import BOS_ID, EOS_ID, Tokenizer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moelab",
                                     description="Desk-scale MoE language-model lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenizer-train", help="train a byte-level BPE tokenizer")
    p.add_argument("--input", required=True, help="corpus JSONL with lang/text fields")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--output", required=True, help="tokenizer JSON output path")
    p.set_defaults(func=cmd_tokenizer_train)

    p = sub.add_parser("train", help="train a model and write checkpoint + log")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--corpus", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="overrides the config seed for init and batch sampling")
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--log", required=True, help="training log TSV path")
    p.add_argument("--lr", type=float, default=1e-3, help="peak learning rate")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample a continuation from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-new-tokens", type=int, required=True)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("perplexity", help="per-language and overall perplexity")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lang", default=None, help="restrict to one language code")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("param-count", help="active/total parameter counts for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("synth-corpus", help="generate a family-structured synthetic corpus")
    p.add_argument("--families", type=int, required=True)
    p.add_argument("--langs-per-family", type=int, required=True)
    p.add_argument("--docs-per-lang", type=int, required=True)
    p.add_argument("--doc-len", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="corpus JSONL output")
    p.add_argument("--truth", required=True, help="ground-truth distance matrix TSV output")
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("analyze-routing", help="collect activation vectors and distances")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--sequences-per-lang", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_analyze_routing)

    p = sub.add_parser("correlate", help="Pearson r between two distance matrices")
    p.add_argument("--a", required=True, help="matrix TSV")
    p.add_argument("--b", required=True, help="matrix TSV")
    p.add_argument("--doc-counts", default=None, help="doc-count TSV enabling a threshold sweep")
    p.add_argument("--thresholds", default=None, help="comma-separated ascending thresholds")
    p.set_defaults(func=cmd_correlate)

    return parser


def cmd_tokenizer_train(args) -> int:
    docs, _ = corpus_mod.load_jsonl(args.input)
    tok = Tokenizer.train((d.text for d in docs), args.vocab_size)
    tok.save(args.output)
    print(f"trained tokenizer: vocab_size={tok.vocab_size} merges={len(tok.merges)}")
    return 0


def cmd_train(args) -> int:
    config = model_mod.ModelConfig.load(args.config)
    config.seed = args.seed
    docs, _ = corpus_mod.load_jsonl(args.corpus)
    tok = Tokenizer.load(args.tokenizer)
    net = model_mod.Model(config)
    schedule = trainer_mod.LrSchedule.for_total_steps(args.lr, args.steps)
    trainer = trainer_mod.Trainer(net, docs, tok, schedule,
                                  batch_size=args.batch_size, seed=args.seed)
    rows = trainer.run(args.steps, log_path=args.log)
    trainer_mod.save_checkpoint(trainer.model, args.checkpoint_out, trainer)
    last = rows[-1]
    print(f"step {last.step}: lm_loss={last.lm_loss:.4f} moe_loss={last.moe_loss:.4f} "
          f"total={last.total_loss:.4f}")
    return 0


def cmd_generate(args) -> int:
    net, _ = trainer_mod.load_checkpoint(args.checkpoint)
    tok = Tokenizer.load(args.tokenizer)
    prompt = [BOS_ID] + tok.encode(args.prompt)
    ids = model_mod.generate(net, prompt, args.max_new_tokens,
                             temperature=args.temperature, seed=args.seed)
    print(tok.decode(ids[1:]))
    return 0


def cmd_perplexity(args) -> int:
    net, _ = trainer_mod.load_checkpoint(args.checkpoint)
    tok = Tokenizer.load(args.tokenizer)
    docs, _ = corpus_mod.load_jsonl(args.corpus)
    if args.lang is not None:
        docs = [d for d in docs if d.lang == args.lang]
        if not docs:
            raise ValueError(f"no documents for language {args.lang!r}")
    nll_sum: dict[str, float] = {}
    tok_count: dict[str, int] = {}
    max_len = net.config.max_seq_len
    cut_docs = cut_tokens = 0
    for doc in docs:
        ids = [BOS_ID] + tok.encode(doc.text) + [EOS_ID]
        if len(ids) > max_len + 1:  # score the first window; count what lies past it
            cut_docs += 1
            cut_tokens += len(ids) - (max_len + 1)
            ids = ids[:max_len + 1]
        if len(ids) < 2:
            continue
        arr = np.asarray(ids)
        with no_grad():
            out = net.forward(arr[:-1])
        breakdown = trainer_mod.total_loss(out, arr[1:], alpha=0.0)
        n = len(ids) - 1
        nll_sum[doc.lang] = nll_sum.get(doc.lang, 0.0) + breakdown.lm_loss * n
        tok_count[doc.lang] = tok_count.get(doc.lang, 0) + n
    print("lang\tperplexity\ttokens")
    for lang in sorted(nll_sum):
        print(f"{lang}\t{math.exp(nll_sum[lang] / tok_count[lang]):.4f}\t{tok_count[lang]}")
    total_nll = sum(nll_sum.values())
    total_tok = sum(tok_count.values())
    if total_tok == 0:
        raise ValueError("corpus contained no scorable tokens")
    print(f"overall\t{math.exp(total_nll / total_tok):.4f}\t{total_tok}")
    if cut_docs:
        print(f"warning: {cut_docs} documents exceed the {max_len}-token window; "
              f"{cut_tokens} tokens past it were not scored", file=sys.stderr)
    return 0


def cmd_param_count(args) -> int:
    config = model_mod.ModelConfig.load(args.config)
    active, total = model_mod.param_count(config)
    print(f"active={active} total={total}")
    return 0


def cmd_synth_corpus(args) -> int:
    docs, truth = corpus_mod.synth_corpus(args.families, args.langs_per_family,
                                          args.docs_per_lang, args.doc_len, args.seed)
    corpus_mod.write_jsonl(docs, args.out)
    analysis.write_matrix_tsv(truth, args.truth)
    print(f"wrote {len(docs)} documents in {len(truth.codes)} languages")
    return 0


def cmd_analyze_routing(args) -> int:
    net, _ = trainer_mod.load_checkpoint(args.checkpoint)
    tok = Tokenizer.load(args.tokenizer)
    docs, stats = corpus_mod.load_jsonl(args.corpus)
    os.makedirs(args.out_dir, exist_ok=True)
    vectors = analysis.collect_activations(net, tok, docs, args.sequences_per_lang,
                                           net.config.max_seq_len, args.seed)
    analysis.write_vectors_tsv(vectors, os.path.join(args.out_dir, "vectors.tsv"))
    analysis.write_matrix_tsv(analysis.distance_matrix(vectors),
                              os.path.join(args.out_dir, "distance.tsv"))
    analysis.write_heatmap_tsv(vectors, os.path.join(args.out_dir, "heatmap.tsv"))
    print(f"analyzed {len(vectors)} languages -> {args.out_dir}")
    return 0


def cmd_correlate(args) -> int:
    a = analysis.read_matrix_tsv(args.a)
    b = analysis.read_matrix_tsv(args.b)
    if (args.doc_counts is None) != (args.thresholds is None):
        raise ValueError("--doc-counts and --thresholds must be given together")
    if args.doc_counts is None:
        print(f"{analysis.pearson(a, b):.6f}")
        return 0
    counts = corpus_mod.read_doc_counts_tsv(args.doc_counts)
    thresholds = [float(t) for t in args.thresholds.split(",") if t.strip()]
    rows = analysis.correlation_sweep(a, b, counts, thresholds)
    print(analysis.format_sweep_tsv(rows), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ConfigError, FormatError, ShapeError, OSError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
