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

from . import analysis, corpus as corpus_mod, model as model_mod, trainer as trainer_mod
from .tokenizer import BOS_ID, Tokenizer


def _seed_arg(text: str) -> int:
    """The argparse type of every --seed: an integer >= 0, as numpy's generators need."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # refused below, with the text as given
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


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
    p.add_argument("--seed", type=_seed_arg, required=True,
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
    p.add_argument("--seed", type=_seed_arg, default=0)
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
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("--out", required=True, help="corpus JSONL output")
    p.add_argument("--truth", required=True, help="ground-truth distance matrix TSV output")
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("analyze-routing", help="collect activation vectors and distances")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--sequences-per-lang", type=int, required=True)
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_analyze_routing)

    p = sub.add_parser("correlate", help="Pearson r between two distance matrices")
    p.add_argument("--a", required=True, help="matrix TSV")
    p.add_argument("--b", required=True, help="matrix TSV")
    p.add_argument("--corpus", default=None, help="corpus JSONL whose per-language "
                   "document counts the threshold sweep reads")
    p.add_argument("--thresholds", default=None, help="comma-separated ascending document-"
                   "count thresholds; a row keeps languages with at least that many")
    p.set_defaults(func=cmd_correlate)

    return parser


def _check_vocab(vocab_size: int, source: str, tok: Tokenizer) -> None:
    if vocab_size != tok.vocab_size:
        raise ValueError(f"{source} has vocab_size {vocab_size} but the tokenizer has "
                         f"{tok.vocab_size}; they must be equal")


def _check_tokenizer_fits(net: model_mod.Model, tok: Tokenizer, args) -> None:
    """Refuse a tokenizer with ids that the checkpoint's embedding has no row for."""
    if tok.vocab_size > net.config.vocab_size:
        raise ValueError(f"tokenizer {args.tokenizer} has vocab_size {tok.vocab_size} but "
                         f"checkpoint {args.checkpoint} embeds only {net.config.vocab_size} ids")


def _check_output_dirs(*outputs: tuple[str, str]) -> None:
    """Refuse a (flag, path) output that can never be written, before any work."""
    for flag, path in outputs:
        if not path or os.path.isdir(path):
            raise ValueError(f"{flag} {path}: {'a directory' if path else 'empty'}, not a file")
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise ValueError(f"{flag} {path}: directory {directory} does not exist")


def _check_out_dir(path: str) -> None:
    """Refuse an --out-dir that is empty, or is or lies under a non-directory."""
    if not path:
        raise ValueError("--out-dir : empty, not a directory")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValueError(f"--out-dir {path}: {existing} is not a directory")


def cmd_tokenizer_train(args) -> int:
    _check_output_dirs(("--output", args.output))
    docs, _ = corpus_mod.load_jsonl(args.input)
    tok = Tokenizer.train((d.text for d in docs), args.vocab_size)
    tok.save(args.output)
    print(f"trained tokenizer: vocab_size={tok.vocab_size} merges={len(tok.merges)}")
    return 0


def cmd_train(args) -> int:
    if not (math.isfinite(args.lr) and args.lr > 0):
        raise ValueError(f"--lr must be a finite number > 0, got {args.lr}")
    _check_output_dirs(("--log", args.log), ("--checkpoint-out", args.checkpoint_out))
    config = model_mod.ModelConfig.load(args.config)
    config.seed = args.seed
    docs, _ = corpus_mod.load_jsonl(args.corpus)
    tok = Tokenizer.load(args.tokenizer)
    _check_vocab(config.vocab_size, args.config, tok)
    net = model_mod.Model(config)
    schedule = trainer_mod.LrSchedule.for_total_steps(args.lr, args.steps)
    trainer = trainer_mod.Trainer(net, docs, tok, schedule,
                                  batch_size=args.batch_size, seed=args.seed)
    rows = trainer.run(args.steps)
    trainer_mod.write_log_tsv(rows, args.log)
    trainer_mod.save_checkpoint(trainer, args.checkpoint_out)
    last = rows[-1]
    print(f"step {last.step}: lm_loss={last.lm_loss:.4f} moe_loss={last.moe_loss:.4f} "
          f"total={last.total_loss:.4f}")
    return 0


def cmd_generate(args) -> int:
    net, _ = trainer_mod.load_checkpoint(args.checkpoint)
    tok = Tokenizer.load(args.tokenizer)
    _check_vocab(net.config.vocab_size, args.checkpoint, tok)
    prompt = [BOS_ID] + tok.encode(args.prompt)
    ids = model_mod.generate(net, prompt, args.max_new_tokens,
                             temperature=args.temperature, seed=args.seed)
    print(tok.decode(ids[1:]))
    return 0


def cmd_perplexity(args) -> int:
    """Per-language and overall perplexity of trainer.score_documents, every row
    computed before any is printed (inf past float range); cuts counted on stderr."""
    lang = None if args.lang is None else corpus_mod.normalize_lang(args.lang, "--lang")
    net, _ = trainer_mod.load_checkpoint(args.checkpoint)
    tok = Tokenizer.load(args.tokenizer)
    _check_tokenizer_fits(net, tok, args)
    docs, _ = corpus_mod.load_jsonl(args.corpus)
    try:
        nll_sum, tokens, cut_docs, cut_tokens = trainer_mod.score_documents(net, tok, docs, lang)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{args.corpus}: {exc}") from None
    rows = [(name, nll_sum[name], tokens[name]) for name in sorted(nll_sum)]
    rows.append(("overall", sum(nll_sum.values()), sum(tokens.values())))
    table = ["lang\tperplexity\ttokens"]
    for name, nll, count in rows:
        try:
            perplexity = math.exp(nll / count)
        except OverflowError:
            perplexity = math.inf
        table.append(f"{name}\t{perplexity:.4f}\t{count}")
    print("\n".join(table))
    if cut_docs:
        print(f"warning: {cut_docs} documents exceed the {net.config.max_seq_len}-token "
              f"window; {cut_tokens} tokens past it were not scored", file=sys.stderr)
    return 0


def cmd_param_count(args) -> int:
    config = model_mod.ModelConfig.load(args.config)
    active, total = model_mod.param_count(config)
    print(f"active={active} total={total}")
    return 0


def cmd_synth_corpus(args) -> int:
    _check_output_dirs(("--out", args.out), ("--truth", args.truth))
    docs, truth = corpus_mod.synth_corpus(args.families, args.langs_per_family,
                                          args.docs_per_lang, args.doc_len, args.seed)
    corpus_mod.write_jsonl(docs, args.out)
    analysis.write_matrix_tsv(truth, args.truth)
    print(f"wrote {len(docs)} documents in {len(truth.codes)} languages")
    return 0


def cmd_analyze_routing(args) -> int:
    _check_out_dir(args.out_dir)
    net, _ = trainer_mod.load_checkpoint(args.checkpoint)
    tok = Tokenizer.load(args.tokenizer)
    _check_tokenizer_fits(net, tok, args)
    docs, _ = corpus_mod.load_jsonl(args.corpus)
    vectors = analysis.collect_activations(net, tok, docs, args.sequences_per_lang,
                                           net.config.max_seq_len, args.seed)
    matrix = analysis.distance_matrix(vectors)  # before any write: it may refuse the vectors
    os.makedirs(args.out_dir, exist_ok=True)
    analysis.write_vectors_tsv(vectors, os.path.join(args.out_dir, "vectors.tsv"))
    analysis.write_matrix_tsv(matrix, os.path.join(args.out_dir, "distance.tsv"))
    analysis.write_heatmap_tsv(vectors, os.path.join(args.out_dir, "heatmap.tsv"))
    print(f"analyzed {len(vectors)} languages -> {args.out_dir}")
    return 0


def cmd_correlate(args) -> int:
    if (args.corpus is None) != (args.thresholds is None):
        raise ValueError("--corpus and --thresholds must be given together")
    thresholds = []
    for item in (args.thresholds or "").split(","):
        if item.strip():
            try:
                thresholds.append(float(item))
            except ValueError:
                raise ValueError(f"--thresholds item {item!r} is not a number") from None
    a = analysis.read_matrix_tsv(args.a)
    b = analysis.read_matrix_tsv(args.b)
    if args.corpus is None:
        print(f"{analysis.pearson(a, b):.6f}")
        return 0
    _, counts = corpus_mod.load_jsonl(args.corpus)
    rows = analysis.correlation_sweep(a, b, counts, thresholds, f"--corpus {args.corpus}")
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
    except (ValueError, OSError, FloatingPointError) as exc:  # errors.py types are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
