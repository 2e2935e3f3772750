"""CLI surface: subcommands, exit codes, file outputs, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import moelab
from moelab.analysis import DistanceMatrix, write_matrix_tsv
from moelab.cli import main
from moelab.corpus import Document, load_jsonl, write_jsonl
from moelab.model import Model, ModelConfig, param_count
from moelab.trainer import load_checkpoint

SUBCOMMANDS = ["tokenizer-train", "train", "generate", "perplexity", "param-count",
               "synth-corpus", "analyze-routing", "correlate"]


# The paper's full-scale shape: not buildable on a desk, but countable.
PAPER = ModelConfig(n_layers=24, d_model=2048, n_heads=16, max_seq_len=2048,
                    vocab_size=100_000, n_experts=16)


def small_config(tmp_path, **overrides):
    cfg = dict(n_layers=2, d_model=32, n_heads=2, max_seq_len=32,
               vocab_size=300, n_experts=2, seed=0)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus + tokenizer + a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus.jsonl")
    truth = str(root / "truth.tsv")
    assert main(["synth-corpus", "--families", "2", "--langs-per-family", "2",
                 "--docs-per-lang", "8", "--doc-len", "80", "--seed", "3",
                 "--out", corpus, "--truth", truth]) == 0
    tok = str(root / "tok.json")
    assert main(["tokenizer-train", "--input", corpus, "--vocab-size", "300",
                 "--output", tok]) == 0
    config = small_config(root)
    ckpt = str(root / "model.ckpt")
    log = str(root / "train.tsv")
    assert main(["train", "--config", config, "--corpus", corpus, "--tokenizer", tok,
                 "--steps", "6", "--batch-size", "2", "--seed", "11",
                 "--checkpoint-out", ckpt, "--log", log]) == 0
    return {"root": root, "corpus": corpus, "truth": truth, "tok": tok,
            "config": config, "ckpt": ckpt, "log": log}


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["param-count", "--config", "x.json", "--frobnicate"]) == 2

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--" in out

    @pytest.mark.parametrize("sub", ["train", "generate", "synth-corpus", "analyze-routing"])
    def test_a_negative_seed_is_a_usage_error_that_names_it(self, workspace, tmp_path, capsys,
                                                             sub):
        common = ["--checkpoint", workspace["ckpt"], "--tokenizer", workspace["tok"]]
        args = {
            "train": ["--config", workspace["config"], "--corpus", workspace["corpus"],
                      "--tokenizer", workspace["tok"], "--steps", "1", "--batch-size", "2",
                      "--checkpoint-out", str(tmp_path / "m.ckpt"),
                      "--log", str(tmp_path / "log.tsv")],
            "generate": [*common, "--prompt", "ab", "--max-new-tokens", "1"],
            "synth-corpus": ["--families", "2", "--langs-per-family", "2", "--docs-per-lang",
                             "2", "--doc-len", "10", "--out", str(tmp_path / "c.jsonl"),
                             "--truth", str(tmp_path / "t.tsv")],
            "analyze-routing": [*common, "--corpus", workspace["corpus"],
                                "--sequences-per-lang", "1", "--out-dir",
                                str(tmp_path / "routing")],
        }[sub]
        assert main([sub, *args, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"moelab {sub}: error: argument --seed: must be an integer >= 0, got '-1'\n")
        assert not any(tmp_path.iterdir())

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        assert main(["param-count", "--config", str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_runs_as_module(self):
        src = os.path.dirname(os.path.dirname(moelab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "moelab", "frobnicate"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 2


class TestParamCount:
    def test_paper_config_totals(self, tmp_path, capsys):
        path = tmp_path / "paper.json"
        path.write_text(json.dumps(asdict(PAPER)))
        assert main(["param-count", "--config", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("active=") and " total=" in out
        total = int(out.split("total=")[1])
        active = int(out.split("active=")[1].split()[0])
        assert (active, total) == param_count(PAPER)
        assert abs(total - 7.46e9) / 7.46e9 < 0.01


class TestRuntimeFailures:
    @pytest.mark.parametrize("value", ["4", None, 4.0, True])
    def test_param_count_rejects_a_non_integer_size(self, tmp_path, capsys, value):
        path = small_config(tmp_path, n_experts=value)
        assert main(["param-count", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: config file {path}: n_experts must be an integer "
                                f">= 1, got {value!r}\n")

    def test_diverging_train_exits_one(self, workspace, tmp_path, capsys):
        # a huge peak lr blows the weights up at step 0; step 1 then sees a NaN loss
        ckpt = tmp_path / "never.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", workspace["config"],
                         "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                         "--steps", "4", "--batch-size", "2", "--seed", "7", "--lr", "1e300",
                         "--checkpoint-out", str(ckpt), "--log", str(tmp_path / "log.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step 1: total loss is nan")
        assert not ckpt.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-5", "0"])
    def test_train_refuses_a_learning_rate_that_is_not_positive(self, workspace, tmp_path,
                                                                 capsys, lr):
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.tsv"
        assert main(["train", "--config", workspace["config"],
                     "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                     "--steps", "1", "--batch-size", "2", "--seed", "7", "--lr", lr,
                     "--checkpoint-out", str(ckpt), "--log", str(log)]) == 1
        assert capsys.readouterr().err == (f"error: --lr must be a finite number > 0, "
                                           f"got {float(lr)}\n")
        assert not ckpt.exists() and not log.exists()

    def test_inference_on_overflowing_weights_names_where(self, workspace, tmp_path, capsys):
        # one step at lr 5e299 (half the peak) leaves finite weights near 5e299, whose
        # logits overflow
        ckpt = str(tmp_path / "huge.ckpt")
        with np.errstate(all="ignore"):
            assert main(["train", "--config", workspace["config"],
                         "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                         "--steps", "1", "--batch-size", "2", "--seed", "7", "--lr", "1e300",
                         "--checkpoint-out", ckpt, "--log", str(tmp_path / "log.tsv")]) == 0
            capsys.readouterr()
            assert main(["perplexity", "--checkpoint", ckpt, "--tokenizer", workspace["tok"],
                         "--corpus", workspace["corpus"]]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {workspace['corpus']}: document 0 "
                                           "(counting from 0, language 'aa') has non-finite "
                                           "loss ")
            assert main(["perplexity", "--checkpoint", ckpt, "--tokenizer", workspace["tok"],
                         "--corpus", workspace["corpus"], "--lang", "ba"]) == 1
            assert capsys.readouterr().err.startswith(  # 8 documents per language, in order
                f"error: {workspace['corpus']}: document 16 (counting from 0, language 'ba')")
            assert main(["generate", "--checkpoint", ckpt, "--tokenizer", workspace["tok"],
                         "--prompt", "ab", "--max-new-tokens", "3"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: logits at position ")
            assert captured.err.endswith(" are not finite\n")

    def test_perplexity_past_float_range_prints_inf(self, workspace, tmp_path, capsys):
        # one step at lr 100 leaves finite weights whose per-token NLL is far above
        # 709, where math.exp overflows
        ckpt = str(tmp_path / "steep.ckpt")
        assert main(["train", "--config", workspace["config"],
                     "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                     "--steps", "1", "--batch-size", "2", "--seed", "7", "--lr", "100",
                     "--checkpoint-out", ckpt, "--log", str(tmp_path / "log.tsv")]) == 0
        capsys.readouterr()
        assert main(["perplexity", "--checkpoint", workspace["ckpt"], "--tokenizer",
                     workspace["tok"], "--corpus", workspace["corpus"]]) == 0
        finite = capsys.readouterr()
        assert main(["perplexity", "--checkpoint", ckpt, "--tokenizer", workspace["tok"],
                     "--corpus", workspace["corpus"]]) == 0
        captured = capsys.readouterr()
        assert captured.err == finite.err  # the truncation warning, and no traceback
        rows = [line.split("\t") for line in captured.out.splitlines()]
        assert [[name, "inf", count] for name, _, count in rows[1:]] == rows[1:]
        assert rows[0] == ["lang", "perplexity", "tokens"] and rows[-1][0] == "overall"
        assert len(rows) == len(finite.out.splitlines())

    def test_perplexity_names_a_bad_document_that_is_not_first_in_its_forward(
            self, workspace, monkeypatch, capsys):
        from moelab import trainer
        from moelab.corpus import load_jsonl
        from moelab.tensor import Tensor
        from moelab.tokenizer import Tokenizer
        tok = Tokenizer.load(workspace["tok"])
        config = json.loads(Path(workspace["config"]).read_text())
        window = config["max_seq_len"]
        docs, _ = load_jsonl(workspace["corpus"])
        scored = [index for index, d in enumerate(docs) if d.lang == "ab"][:3]
        # all three are cut to one window, so they share a forward as rows 0, 1 and 2
        assert all(len(tok.encode(docs[index].text)) + 2 > window + 1 for index in scored)
        real, calls = trainer.cross_entropy, []

        def poisoned(x, weight, targets):
            calls.append(x.shape)
            out = real(x, weight, targets)
            return Tensor(np.nan) if len(calls) == 3 else out

        monkeypatch.setattr(trainer, "cross_entropy", poisoned)
        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                     "--lang", "ab"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {workspace['corpus']}: document {scored[2]} (counting "
                                "from 0, language 'ab') has non-finite loss nan\n")
        assert calls == [(window, config["d_model"])] * 3  # one document each, none after

    @pytest.mark.parametrize("temperature", ["nan", "inf", "-1"])
    def test_generate_refuses_a_temperature_before_any_forward(self, workspace, capsys,
                                                               monkeypatch, temperature):
        from moelab.model import Model
        monkeypatch.setattr(Model, "forward", None)  # any forward would raise TypeError
        assert main(["generate", "--checkpoint", workspace["ckpt"], "--tokenizer",
                     workspace["tok"], "--prompt", "ab", "--max-new-tokens", "2",
                     "--temperature", temperature]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: temperature must be a finite number >= 0, "
                                f"got {float(temperature)}\n")

    def test_generate_names_a_temperature_too_small_for_the_logits(self, workspace, capsys):
        assert main(["generate", "--checkpoint", workspace["ckpt"], "--tokenizer",
                     workspace["tok"], "--prompt", "ab", "--max-new-tokens", "2",
                     "--temperature", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: temperature 1e-320 is too small: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, kind", [
        ("--log", "missing"), ("--checkpoint-out", "missing"),
        ("--log", "directory"), ("--checkpoint-out", "directory"),
        ("--log", "empty"), ("--checkpoint-out", "empty"),
    ], ids=["--log", "--checkpoint-out", "--log-directory", "--checkpoint-out-directory",
            "--log-empty", "--checkpoint-out-empty"])
    def test_train_refuses_an_output_in_a_missing_directory_before_any_step(
            self, workspace, tmp_path, tmp_path_factory, capsys, monkeypatch, flag, kind):
        from moelab.trainer import Trainer

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(Trainer, "train_step", no_step)
        outputs = {"--log": str(tmp_path / "log.tsv"),
                   "--checkpoint-out": str(tmp_path / "m.ckpt")}
        missing = tmp_path / "typo"
        existing = tmp_path_factory.mktemp("outdir")
        bad, problem = {"missing": (str(missing / "out"), f"directory {missing} does not exist"),
                        "directory": (str(existing), "a directory, not a file"),
                        "empty": ("", "empty, not a file")}[kind]
        outputs[flag] = bad
        assert main(["train", "--config", workspace["config"], "--corpus", workspace["corpus"],
                     "--tokenizer", workspace["tok"], "--steps", "2", "--batch-size", "2",
                     "--seed", "7", *(x for item in outputs.items() for x in item)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} {bad}: {problem}\n"
        assert not any(tmp_path.iterdir())
        assert not any(existing.iterdir())

    @pytest.mark.parametrize("sub, flag, kind", [
        ("tokenizer-train", "--output", "missing"), ("synth-corpus", "--out", "missing"),
        ("synth-corpus", "--truth", "missing"), ("analyze-routing", "--out-dir", "missing"),
        ("tokenizer-train", "--output", "directory"), ("synth-corpus", "--truth", "directory"),
        ("tokenizer-train", "--output", "empty"), ("synth-corpus", "--out", "empty"),
        ("analyze-routing", "--out-dir", "empty"),
    ], ids=["tokenizer-train---output", "synth-corpus---out", "synth-corpus---truth",
            "analyze-routing---out-dir", "tokenizer-train---output-directory",
            "synth-corpus---truth-directory", "tokenizer-train---output-empty",
            "synth-corpus---out-empty", "analyze-routing---out-dir-empty"])
    def test_an_output_in_a_missing_directory_is_refused_before_any_work(
            self, workspace, tmp_path, tmp_path_factory, capsys, monkeypatch, sub, flag, kind):
        from moelab import cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        monkeypatch.setattr(cli.corpus_mod, "load_jsonl", no_work)
        monkeypatch.setattr(cli.corpus_mod, "synth_corpus", no_work)
        monkeypatch.setattr(cli.Tokenizer, "train", no_work)
        monkeypatch.setattr(cli.trainer_mod, "load_checkpoint", no_work)
        args, outputs = {
            "tokenizer-train": (["--input", workspace["corpus"], "--vocab-size", "300"],
                                {"--output": str(tmp_path / "tok.json")}),
            "synth-corpus": (["--families", "2", "--langs-per-family", "2", "--docs-per-lang",
                              "2", "--doc-len", "10", "--seed", "1"],
                             {"--out": str(tmp_path / "c.jsonl"),
                              "--truth": str(tmp_path / "t.tsv")}),
            "analyze-routing": (["--checkpoint", workspace["ckpt"], "--tokenizer",
                                 workspace["tok"], "--corpus", workspace["corpus"],
                                 "--sequences-per-lang", "1", "--seed", "2"],
                                {"--out-dir": str(tmp_path / "routing")}),
        }[sub]
        existing = tmp_path_factory.mktemp("outdir")
        if kind == "empty":
            bad, problem = "", f"empty, not a {'directory' if flag == '--out-dir' else 'file'}"
        elif kind == "directory":
            bad, problem = str(existing), "a directory, not a file"
        elif flag == "--out-dir":  # created when missing, so an existing file is what is refused
            bad, problem = workspace["truth"], f"{workspace['truth']} is not a directory"
        else:
            missing = tmp_path / "typo"
            bad, problem = str(missing / "out"), f"directory {missing} does not exist"
        outputs[flag] = bad
        assert main([sub, *args, *(x for item in outputs.items() for x in item)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} {bad}: {problem}\n"
        assert not any(tmp_path.iterdir())
        assert not any(existing.iterdir())

    def test_analyze_routing_of_one_language_writes_nothing(self, workspace, tmp_path,
                                                            capsys):
        from moelab.corpus import load_jsonl, write_jsonl
        docs, _ = load_jsonl(workspace["corpus"])
        one = tmp_path / "one.jsonl"
        write_jsonl([d for d in docs if d.lang == "aa"], str(one))
        out_dir = tmp_path / "routing"
        assert main(["analyze-routing", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", str(one),
                     "--sequences-per-lang", "1", "--seed", "2",
                     "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: need at least 2 languages, got 1\n"
        assert not out_dir.exists()

    def test_analyze_routing_refuses_non_finite_routing_and_writes_nothing(
            self, workspace, tmp_path, capsys):
        from moelab.checkpoint import read_checkpoint, write_checkpoint
        header, tensors = read_checkpoint(workspace["ckpt"])
        tensors["layers.0.attn.wq"][0, 0] = np.nan  # every gate probability becomes NaN
        ckpt = str(tmp_path / "nan.ckpt")
        write_checkpoint(ckpt, header, tensors)
        out_dir = tmp_path / "routing"
        assert main(["analyze-routing", "--checkpoint", ckpt, "--tokenizer", workspace["tok"],
                     "--corpus", workspace["corpus"], "--sequences-per-lang", "1",
                     "--seed", "2", "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: language 'aa': MoE layer 0 routes from non-finite "
                                "gate probabilities (balance loss nan)\n")
        assert not out_dir.exists()

    @pytest.mark.parametrize("sub", ["perplexity", "analyze-routing"])
    def test_a_tokenizer_wider_than_the_checkpoint_is_refused_before_any_forward(
            self, workspace, tmp_path, capsys, monkeypatch, sub):
        from moelab.model import Model, ModelConfig
        from moelab.trainer import save_checkpoint
        narrow, wide = str(tmp_path / "narrow.ckpt"), str(tmp_path / "wide.ckpt")
        save_checkpoint(Model(ModelConfig.load(small_config(tmp_path, vocab_size=270))), narrow)
        save_checkpoint(Model(ModelConfig.load(small_config(tmp_path, vocab_size=512))), wide)
        out_dir = tmp_path / "routing"
        extra = {"perplexity": ["--lang", "aa"],
                 "analyze-routing": ["--sequences-per-lang", "1", "--seed", "2",
                                     "--out-dir", str(out_dir)]}[sub]
        assert main([sub, "--checkpoint", wide, "--tokenizer", workspace["tok"],
                     "--corpus", workspace["corpus"], *extra]) == 0  # spare rows are fine
        capsys.readouterr()
        monkeypatch.setattr(Model, "forward", None)  # any forward would raise TypeError
        assert main([sub, "--checkpoint", narrow, "--tokenizer", workspace["tok"],
                     "--corpus", workspace["corpus"], *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: tokenizer {workspace['tok']} has vocab_size 300 but "
                                f"checkpoint {narrow} embeds only 270 ids\n")

    def test_perplexity_of_an_empty_corpus_prints_nothing(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {empty}: no documents\n"

    def test_perplexity_names_a_language_with_no_documents(self, workspace, capsys):
        assert main(["perplexity", "--checkpoint", workspace["ckpt"], "--tokenizer",
                     workspace["tok"], "--corpus", workspace["corpus"], "--lang", "zz"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no documents for language 'zz'\n"

    @pytest.mark.parametrize("sub", ["tokenizer-train", "train", "analyze-routing"])
    def test_an_empty_corpus_is_named_before_anything_is_written(self, workspace, tmp_path,
                                                                capsys, sub):
        blank = tmp_path / "in" / "blank.jsonl"
        blank.parent.mkdir()
        blank.write_text("\n \n")
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "tokenizer-train": ["--input", str(blank), "--vocab-size", "300",
                                "--output", str(out / "tok.json")],
            "train": ["--config", workspace["config"], "--corpus", str(blank),
                      "--tokenizer", workspace["tok"], "--steps", "2", "--batch-size", "2",
                      "--seed", "7", "--checkpoint-out", str(out / "m.ckpt"),
                      "--log", str(out / "log.tsv")],
            "analyze-routing": ["--checkpoint", workspace["ckpt"], "--tokenizer", workspace["tok"],
                                "--corpus", str(blank), "--sequences-per-lang", "1",
                                "--seed", "2", "--out-dir", str(out / "routing")],
        }[sub]
        assert main([sub, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {blank}: no documents\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_train_without_steps_writes_nothing(self, workspace, tmp_path, capsys, steps):
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.tsv"
        assert main(["train", "--config", workspace["config"],
                     "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                     "--steps", steps, "--batch-size", "2", "--seed", "7",
                     "--checkpoint-out", str(ckpt), "--log", str(log)]) == 1
        assert capsys.readouterr().err == f"error: steps must be at least 1, got {steps}\n"
        assert not ckpt.exists() and not log.exists()

    def test_analyze_routing_without_sequences_creates_nothing(self, workspace, tmp_path,
                                                               capsys):
        out_dir = tmp_path / "routing"
        assert main(["analyze-routing", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                     "--sequences-per-lang", "0", "--seed", "2",
                     "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err == "error: sequences_per_lang must be at least 1, got 0\n"
        assert not out_dir.exists()

    def test_malformed_tokenizer_is_exit_one(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["generate", "--checkpoint", workspace["ckpt"], "--tokenizer", str(bad),
                     "--prompt", "ab", "--max-new-tokens", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(bad) in captured.err

    def test_train_refuses_a_config_of_another_vocabulary(self, workspace, tmp_path, capsys):
        config = small_config(tmp_path, vocab_size=512)
        ckpt, log = tmp_path / "m.ckpt", tmp_path / "log.tsv"
        assert main(["train", "--config", config, "--corpus", workspace["corpus"],
                     "--tokenizer", workspace["tok"], "--steps", "2", "--batch-size", "2",
                     "--seed", "7", "--checkpoint-out", str(ckpt), "--log", str(log)]) == 1
        assert capsys.readouterr().err == (f"error: {config} has vocab_size 512 but the "
                                           "tokenizer has 300; they must be equal\n")
        assert not ckpt.exists() and not log.exists()

    def test_generate_refuses_a_checkpoint_of_another_vocabulary(self, workspace, tmp_path,
                                                                 capsys, monkeypatch):
        from moelab.model import Model, ModelConfig
        from moelab.trainer import save_checkpoint
        config = ModelConfig.load(small_config(tmp_path, vocab_size=512))
        ckpt = str(tmp_path / "wide.ckpt")
        save_checkpoint(Model(config), ckpt)
        monkeypatch.setattr(Model, "forward", None)  # any forward would raise TypeError
        assert main(["generate", "--checkpoint", ckpt, "--tokenizer", workspace["tok"],
                     "--prompt", "ab", "--max-new-tokens", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {ckpt} has vocab_size 512 but the tokenizer has "
                                "300; they must be equal\n")

    @pytest.mark.parametrize("thresholds", [",", "nan", "inf", "0,-inf"])
    def test_correlate_refuses_empty_or_non_finite_thresholds(self, workspace, capsys,
                                                              thresholds):
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--corpus", workspace["corpus"], "--thresholds", thresholds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        listed = [float(t) for t in thresholds.split(",") if t]
        assert captured.err == ("error: thresholds must be finite numbers, at least one, "
                                f"got {listed!r}\n")


    @pytest.mark.parametrize("flags", [["--thresholds", "0"], ["--corpus", "corpus.jsonl"]])
    def test_correlate_checks_flag_pairing_before_reading_a_matrix(self, tmp_path, capsys,
                                                                   flags):
        missing = str(tmp_path / "missing.tsv")
        assert main(["correlate", "--a", missing, "--b", missing, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --corpus and --thresholds must be given together\n"

    @pytest.mark.parametrize("thresholds, bad", [("1,x", "x"), ("0,1.5.2,3", "1.5.2")])
    def test_correlate_names_a_threshold_that_is_not_a_number(self, tmp_path, capsys,
                                                              thresholds, bad):
        missing = str(tmp_path / "missing.tsv")
        assert main(["correlate", "--a", missing, "--b", missing, "--corpus", missing,
                     "--thresholds", thresholds]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --thresholds item {bad!r} is not a number\n"

    def test_correlate_names_the_corpus_line_it_cannot_read(self, workspace, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"lang": "aa", "text": "x"}\n\n{"lang": "bb", "text": \n')
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--corpus", str(corpus), "--thresholds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {corpus}: line 3: invalid JSON: "), captured.err

    def test_correlate_names_a_corpus_that_does_not_exist(self, workspace, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--corpus", str(missing), "--thresholds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(missing) in captured.err

    def test_correlate_refuses_a_corpus_without_a_matrix_language(self, workspace, tmp_path,
                                                                  capsys):
        corpus = str(tmp_path / "c.jsonl")
        write_jsonl([Document(lang, "x") for lang in ("aa", "ab", "ba")], corpus)
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--corpus", corpus, "--thresholds", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --corpus {corpus}: no documents for language 'bb'\n"

    @pytest.mark.parametrize("lang", ["a", "a1", "ab-cd", "abcdefghi", ""])
    def test_perplexity_names_a_malformed_lang_before_loading(self, tmp_path, capsys, lang):
        missing = str(tmp_path / "missing")
        assert main(["perplexity", "--checkpoint", missing, "--tokenizer", missing,
                     "--corpus", missing, "--lang", lang]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --lang: language code {lang!r} does not match "
                                "[a-z]{2,8}\n")


class TestPipeline:
    def test_training_log_format(self, workspace):
        lines = Path(workspace["log"]).read_text().splitlines()
        assert lines[0] == "step\tlm_loss\tmoe_loss\ttotal_loss\tlr\ttokens_seen"
        assert len(lines) == 7

    def test_train_determinism_byte_identical_logs(self, workspace, tmp_path):
        logs = []
        for name in ("a", "b"):
            ckpt = str(tmp_path / f"{name}.ckpt")
            log = str(tmp_path / f"{name}.tsv")
            assert main(["train", "--config", workspace["config"],
                         "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                         "--steps", "5", "--batch-size", "2", "--seed", "7",
                         "--checkpoint-out", ckpt, "--log", log]) == 0
            logs.append(Path(log).read_bytes())
        assert logs[0] == logs[1]

    def test_one_step_moves_the_initial_weights(self, workspace, tmp_path):
        ckpt = str(tmp_path / "one.ckpt")
        assert main(["train", "--config", workspace["config"],
                     "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                     "--steps", "1", "--batch-size", "2", "--seed", "7",
                     "--checkpoint-out", ckpt, "--log", str(tmp_path / "one.tsv")]) == 0
        trained, _ = load_checkpoint(ckpt)
        assert trained.config.seed == 7
        initial = Model(trained.config).named_parameters()
        moved = [name for name, p in trained.named_parameters().items()
                 if not np.array_equal(p.data, initial[name].data)]
        assert "tok_emb" in moved and len(moved) > len(initial) // 2, moved

    def test_generate_deterministic(self, workspace, capsys):
        args = ["generate", "--checkpoint", workspace["ckpt"], "--tokenizer",
                workspace["tok"], "--prompt", "ab", "--max-new-tokens", "8",
                "--temperature", "0", "--seed", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_perplexity_table(self, workspace, capsys):
        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lang\tperplexity\ttokens"
        assert lines[-1].startswith("overall\t")
        assert len(lines) == 2 + 4  # four languages plus header and overall

    def test_batched_scores_equal_one_document_forwards(self, workspace, tmp_path,
                                                          monkeypatch, capsys):
        from moelab import trainer
        from moelab.corpus import Document, load_jsonl, write_jsonl
        from moelab.tensor import no_grad
        from moelab.tokenizer import BOS_ID, EOS_ID, Tokenizer
        tok = Tokenizer.load(workspace["tok"])
        net, _ = load_checkpoint(workspace["ckpt"])
        window = net.config.max_seq_len
        docs, _ = load_jsonl(workspace["corpus"])
        by_lang = {}
        for d in docs:
            if len(tok.encode(d.text)) + 2 > window + 1:
                by_lang.setdefault(d.lang, []).append(d)
        long = [d for group in zip(*by_lang.values()) for d in group]  # languages alternate
        short = [Document("aa", long[0].text[:6]), Document("bb", long[1].text[:20])]
        corpus = long[:9] + short + long[9:12]
        ids = [([BOS_ID] + tok.encode(d.text) + [EOS_ID])[:window + 1] for d in corpus]
        assert len(ids[9]) != len(ids[10]) and max(len(ids[9]), len(ids[10])) < window + 1
        path = tmp_path / "mixed.jsonl"
        write_jsonl(corpus, str(path))

        reference = []
        with no_grad():
            for row in ids:
                arr = np.asarray(row)
                reference.append(trainer.total_loss(net.forward(arr[:-1]), arr[1:], 0.0).lm_loss)
        nll, count = {}, {}
        for d, row, loss in zip(corpus, ids, reference):
            nll[d.lang] = nll.get(d.lang, 0.0) + loss * (len(row) - 1)
            count[d.lang] = count.get(d.lang, 0) + len(row) - 1
        table = ["lang\tperplexity\ttokens"]
        table += [f"{lang}\t{np.exp(nll[lang] / count[lang]):.4f}\t{count[lang]}"
                  for lang in sorted(nll)]
        total = sum(count.values())
        table.append(f"overall\t{np.exp(sum(nll.values()) / total):.4f}\t{total}")

        batches, scored = [], []
        real_forward, real_loss = Model.forward, trainer.total_loss

        def forward(self, tokens, cache=None):
            batches.append(np.shape(tokens))
            return real_forward(self, tokens, cache)

        def total_loss(output, targets, alpha):
            breakdown = real_loss(output, targets, alpha)
            scored.append((output.hidden.shape, breakdown.lm_loss))
            return breakdown

        monkeypatch.setattr(Model, "forward", forward)
        monkeypatch.setattr(trainer, "total_loss", total_loss)
        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == table
        assert batches == [(4, window), (4, window), (1, window), (1, len(ids[9]) - 1),
                           (1, len(ids[10]) - 1), (3, window)]
        assert [shape for shape, _ in scored] == [(len(row) - 1, net.config.d_model)
                                                  for row in ids]
        for (_, loss), expected in zip(scored, reference):
            assert loss == pytest.approx(expected, rel=1e-12, abs=0)

    def test_perplexity_reports_truncation_on_stderr(self, workspace, tmp_path, capsys):
        from moelab.corpus import Document, load_jsonl, write_jsonl
        from moelab.tokenizer import Tokenizer
        tok = Tokenizer.load(workspace["tok"])
        docs, _ = load_jsonl(workspace["corpus"])
        window = json.loads(Path(workspace["config"]).read_text())["max_seq_len"]
        targets = [len(tok.encode(d.text)) + 1 for d in docs]  # BOS + text + EOS, shifted
        cut = [n - window for n in targets if n > window]
        assert cut, "the workspace corpus must exceed the window"
        expected = {}
        for d, n in zip(docs, targets):
            expected[d.lang] = expected.get(d.lang, 0) + min(n, window)

        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"]]) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: {len(cut)} documents exceed the {window}-token "
                                f"window; {sum(cut)} tokens past it were not scored\n")
        rows = [line.split("\t") for line in captured.out.splitlines()]
        assert rows[0] == ["lang", "perplexity", "tokens"]
        assert {r[0]: int(r[2]) for r in rows[1:-1]} == expected
        assert rows[-1][0] == "overall" and int(rows[-1][2]) == sum(expected.values())

        short = tmp_path / "short.jsonl"
        write_jsonl([Document("aa", docs[0].text[:10])], str(short))
        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", str(short)]) == 0
        assert capsys.readouterr().err == ""

    def test_perplexity_lang_filter(self, workspace, capsys):
        assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                     "--lang", "aa"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("aa\t")
        assert len(lines) == 3

    def test_perplexity_lang_is_lowercased_like_the_corpus_codes(self, workspace, capsys):
        tables = []
        for lang in ("aa", "AA", "aA"):
            assert main(["perplexity", "--checkpoint", workspace["ckpt"],
                         "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                         "--lang", lang]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0].splitlines()[1].startswith("aa\t")
        assert tables[1] == tables[0] and tables[2] == tables[0]

    def test_analyze_routing_outputs(self, workspace, capsys):
        out_dir = str(workspace["root"] / "routing")
        assert main(["analyze-routing", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                     "--sequences-per-lang", "3", "--seed", "2",
                     "--out-dir", out_dir]) == 0
        capsys.readouterr()
        assert sorted(os.listdir(out_dir)) == ["distance.tsv", "heatmap.tsv", "vectors.tsv"]
        for name in ("vectors.tsv", "distance.tsv", "heatmap.tsv"):
            lines = Path(out_dir, name).read_text().splitlines()
            assert len(lines) == 5, name  # header + 4 languages

    def test_correlate_single_value(self, workspace, capsys):
        out_dir = str(workspace["root"] / "routing")
        assert main(["correlate", "--a", f"{out_dir}/distance.tsv",
                     "--b", workspace["truth"]]) == 0
        r = float(capsys.readouterr().out.strip())
        assert -1.0 <= r <= 1.0

    def test_correlate_sweep(self, workspace, capsys):
        out_dir = str(workspace["root"] / "routing")
        assert main(["correlate", "--a", f"{out_dir}/distance.tsv",
                     "--b", workspace["truth"], "--corpus", workspace["corpus"],
                     "--thresholds", "0,5,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "threshold\tn_languages\tpearson_r"
        assert lines[1].startswith("0\t4\t")
        assert lines[3] == "100\t0\tNA"

    def test_analyze_routing_counts_feed_the_sweep(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "routing"
        assert main(["analyze-routing", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                     "--sequences-per-lang", "1", "--seed", "2",
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["correlate", "--a", str(out_dir / "distance.tsv"),
                     "--b", workspace["truth"], "--corpus", workspace["corpus"],
                     "--thresholds", "1,1000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("1\t4\t")
        assert lines[2:] == ["1000\t0\tNA"]

    def test_correlate_sweeps_the_counts_of_the_corpus_it_is_given(self, tmp_path, capsys):
        """Skewed counts, so the 5-document threshold drops a language. The expected
        text is what the sweep printed for this corpus when it read the counts from
        a TSV file that analyze-routing wrote beside its other outputs."""
        counts = {"aa": 9, "ab": 7, "ba": 6, "bb": 2, "bc": 5}
        corpus = str(tmp_path / "c.jsonl")
        write_jsonl([Document(lang, f"{lang} document {i}") for lang, n in counts.items()
                     for i in range(n)], corpus)
        d = np.array([[0, .30, .80, .70, .90], [.30, 0, .60, .75, .85],
                      [.80, .60, 0, .25, .40], [.70, .75, .25, 0, .35],
                      [.90, .85, .40, .35, 0]])
        t = np.array([[0.0 if i == j else 0.2 if a[0] == b[0] else 1.0 for j, b in
                       enumerate(counts)] for i, a in enumerate(counts)])
        write_matrix_tsv(DistanceMatrix(list(counts), d), str(tmp_path / "d.tsv"))
        write_matrix_tsv(DistanceMatrix(list(counts), t), str(tmp_path / "t.tsv"))
        assert main(["correlate", "--a", str(tmp_path / "d.tsv"), "--b", str(tmp_path / "t.tsv"),
                     "--corpus", corpus, "--thresholds", "0,5,100"]) == 0
        assert capsys.readouterr().out == ("threshold\tn_languages\tpearson_r\n0\t5\t0.931978\n"
                                           "5\t4\t0.904299\n100\t0\tNA\n")

    def test_correlate_ignores_corpus_languages_outside_the_matrices(self, workspace,
                                                                     tmp_path, capsys):
        docs, _ = load_jsonl(workspace["corpus"])
        corpus = str(tmp_path / "c.jsonl")
        write_jsonl(docs + [Document("zz", "x")] * 50, corpus)
        # 8 documents for each of the four matrix languages, 50 for zz
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--corpus", corpus, "--thresholds", "0,8,9,50"]) == 0
        assert capsys.readouterr().out == ("threshold\tn_languages\tpearson_r\n"
                                           "0\t4\t1.000000\n8\t4\t1.000000\n9\t0\tNA\n"
                                           "50\t0\tNA\n")

    def test_correlate_unsorted_thresholds_print_nothing(self, workspace, capsys):
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--corpus", workspace["corpus"], "--thresholds", "5,1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: thresholds must be sorted ascending, but 5.0 comes "
                                "before 1.0\n")

    def test_correlate_requires_paired_flags(self, workspace, capsys):
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--thresholds", "0"]) == 1
        capsys.readouterr()


# The pinned CLI steps, run in a child process whose BLAS has one thread.
PINNED_STEPS = """
import sys
from moelab.cli import main
from moelab.trainer import LrSchedule, Trainer, save_checkpoint
config, corpus, tok, ckpt, log, out_dir, resaved = sys.argv[1:]
assert main(["train", "--config", config, "--corpus", corpus, "--tokenizer", tok,
             "--steps", "3", "--batch-size", "2", "--seed", "5",
             "--checkpoint-out", ckpt, "--log", log]) == 0
assert main(["analyze-routing", "--checkpoint", ckpt, "--tokenizer", tok, "--corpus", corpus,
             "--sequences-per-lang", "3", "--seed", "2", "--out-dir", out_dir]) == 0
resumed = Trainer.resume(ckpt, [], None, LrSchedule.for_total_steps(1e-3, 3), batch_size=2)
save_checkpoint(resumed, resaved)
"""


def test_pinned_routing_files_and_checkpoint_bytes(workspace, tmp_path):
    """A model with two MoE layers, trained three steps: its checkpoint, the
    checkpoint a resume of it saves again, the three analyze-routing files and
    the synthetic truth matrix. The steps run in a child process with one
    BLAS thread, so the digests do not depend on how many threads OpenBLAS
    picks on the machine at hand (two threads round the checkpoint's matrix
    products differently). The digests were taken with the tanh-form GELU and
    a warmup whose step 0 trains, with numpy 2.4 and OpenBLAS 0.3.31 on
    x86-64; another BLAS build may round matrix products differently. The
    checkpoint digests were re-taken when the header's trainer state became
    {step, seed, tokens_seen}: putting back the old "adam": {"step": 3}
    restores the old digest, so the tensors did not change."""
    def sha(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    ckpt, resaved, out_dir = tmp_path / "m.ckpt", tmp_path / "again.ckpt", tmp_path / "r"
    src = os.path.dirname(os.path.dirname(moelab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])),
        **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    proc = subprocess.run(
        [sys.executable, "-c", PINNED_STEPS, small_config(tmp_path, n_layers=4),
         workspace["corpus"], workspace["tok"], str(ckpt), str(tmp_path / "log.tsv"),
         str(out_dir), str(resaved)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    files = ["vectors.tsv", "heatmap.tsv", "distance.tsv"]
    assert {"checkpoint": sha(ckpt), "resaved": sha(resaved), "truth": sha(workspace["truth"]),
            **{name: sha(out_dir / name) for name in files}} == {
        "checkpoint": "c277a90446017eff9a53ec820056b1d8b6308ea40378d32b8741338d7e991e24",
        "resaved": "c277a90446017eff9a53ec820056b1d8b6308ea40378d32b8741338d7e991e24",
        "truth": "84f4cac944b6ed4995f48f6acb379dd9edca3b2556784282b3cdd83e9f6a70b6",
        "vectors.tsv": "47e421e14e4bec09a78ef50a550bf688b194e9721bd477a2e40cbef47cefcb15",
        "heatmap.tsv": "48f2d1ad0ea5259668f49f8d6b36735802d1837b7bc1b24682877f668776fa90",
        "distance.tsv": "665880cd3a03a7ed79fef691affa50be5ad8cd20a3a86774799baf0d0426e70c",
    }


def test_cli_import_loads_numpy_random_and_no_scipy():
    """scipy is only a test dependency, and numpy.random loads when moelab is
    imported rather than inside the first Model() that set-up timings cover."""
    src = os.path.dirname(os.path.dirname(moelab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, moelab.cli; print(json.dumps(["
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True]


def test_synth_corpus_files_parse(workspace):
    from moelab.analysis import read_matrix_tsv
    from moelab.corpus import load_jsonl
    docs, _ = load_jsonl(workspace["corpus"])
    assert len(docs) == 2 * 2 * 8
    truth = read_matrix_tsv(workspace["truth"])
    assert truth.codes == ["aa", "ab", "ba", "bb"]


def module_functions(module, exempt=()):
    """The code of every function and method defined in `module`, closures
    included, except those named in `exempt`."""
    import inspect
    import types

    members = list(vars(module).values())
    members += [v for c in members if inspect.isclass(c) and c.__module__ == module.__name__
                for v in vars(c).values()]
    todo = []
    for m in members:
        m = getattr(m, "fget", getattr(m, "__func__", m))  # properties, staticmethods
        if inspect.isfunction(m):
            todo.append(inspect.unwrap(m).__code__)
    found = set()
    while todo:
        code = todo.pop()
        if code.co_filename == module.__file__ and code.co_name not in exempt:
            found.add(code)
            todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return {c for c in found if not c.co_name.startswith("<") or c.co_name == "<lambda>"}


def test_product_paths_enter_every_function(workspace, tmp_path, capsys):
    """No module of moelab holds a function that the eight subcommands and
    sampled decoding leave unused, apart from the exemptions named below."""
    import importlib
    import pkgutil

    from moelab.model import generate
    from moelab.trainer import load_checkpoint

    exempt = {
        "tensor": ("grad_check", "__repr__"),  # the tests' reference
        "model": ("desk_config",),  # perfbench builds its shapes with it
        "trainer": ("resume",),  # bitwise-resume contract; no CLI path resumes yet
    }
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    common = ["--checkpoint", workspace["ckpt"], "--tokenizer", workspace["tok"]]
    routing = tmp_path / "routing"
    out_of_range = tmp_path / "bad.tsv"
    out_of_range.write_text("lang\taa\tbb\naa\t0\t7\nbb\t7\t0\n")
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(Path(workspace["ckpt"]).read_bytes()[:-1])
    sys.setprofile(record)
    try:
        assert main(["synth-corpus", "--families", "2", "--langs-per-family", "2",
                     "--docs-per-lang", "2", "--doc-len", "10", "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl"), "--truth", str(tmp_path / "t.tsv")]) == 0
        assert main(["tokenizer-train", "--input", workspace["corpus"], "--vocab-size", "300",
                     "--output", str(tmp_path / "tok.json")]) == 0
        assert main(["train", "--config", workspace["config"], "--corpus", workspace["corpus"],
                     "--tokenizer", workspace["tok"], "--steps", "2", "--batch-size", "2",
                     "--seed", "5", "--checkpoint-out", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "log.tsv")]) == 0
        assert main(["generate", *common, "--prompt", "ab", "--max-new-tokens", "3"]) == 0
        model, _ = load_checkpoint(workspace["ckpt"])
        generate(model, [1, 2], 3, temperature=0.9, seed=3)
        assert main(["perplexity", *common, "--corpus", workspace["corpus"],
                     "--lang", "aa"]) == 0
        assert main(["analyze-routing", *common, "--corpus", workspace["corpus"],
                     "--sequences-per-lang", "1", "--seed", "2", "--out-dir", str(routing)]) == 0
        distance = str(routing / "distance.tsv")
        assert main(["correlate", "--a", distance, "--b", workspace["truth"]]) == 0
        assert main(["correlate", "--a", distance, "--b", workspace["truth"],
                     "--corpus", workspace["corpus"], "--thresholds", "0,9"]) == 0
        assert main(["param-count", "--config", workspace["config"]]) == 0
        # error-only helpers, each driven by one malformed input
        assert main(["correlate", "--a", distance, "--b", str(out_of_range)]) == 1
        assert main(["generate", "--checkpoint", str(truncated), "--tokenizer",
                     workspace["tok"], "--prompt", "ab", "--max-new-tokens", "1"]) == 1
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    for info in pkgutil.iter_modules(moelab.__path__):
        module = importlib.import_module(f"moelab.{info.name}")
        unused = sorted(f"{c.co_name} (line {c.co_firstlineno})"
                        for c in module_functions(module, exempt.get(info.name, ())) - entered)
        assert not unused, f"{module.__name__} functions no product path enters: {unused}"


def source_trees():
    """Module stem -> parsed source, for each module of moelab."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in Path(moelab.__file__).parent.glob("*.py")}


def loaded_names(nodes):
    """The names read (not assigned) anywhere inside `nodes`."""
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_module_constant_is_read():
    """Static check over moelab's source: each module-level constant is read by
    some moelab module, by plain name in its own module, through a
    `from .module import NAME`, or as an attribute of an imported module."""
    trees = source_trees()
    defined = set()
    for module, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined |= {(module, t.id) for t in targets
                        if isinstance(t, ast.Name) and t.id != "__all__"}
    read = set()
    for module, tree in trees.items():
        names, modules = {}, {}  # local name -> (module, name), local name -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(names.get(node.id, (module, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add((modules[node.value.id], node.attr))
    assert len(defined) >= 20  # the walk found the constants at all
    unread = sorted(f"{module}.{name}" for module, name in defined - read)
    assert not unread, f"module-level constants no moelab module reads: {unread}"


def test_every_import_and_parameter_is_used():
    """Static check over moelab's source: each imported name is read in its
    module (or listed in its __all__), and each parameter of a function or
    lambda is read in that function's body."""
    unused, unread, n_params = [], [], 0
    for module, tree in source_trees().items():
        read = loaded_names([tree])
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= {e.value for e in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += [f"{module}: {alias.asname or alias.name} (line {node.lineno})"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                          *filter(None, [a.vararg, a.kwarg])]
                body = loaded_names(node.body if isinstance(node.body, list) else [node.body])
                n_params += len(params)
                unread += [f"{module}.{getattr(node, 'name', '<lambda>')}: {p.arg} "
                           f"(line {node.lineno})" for p in params if p.arg not in body]
    assert n_params >= 200  # the walk found the functions at all
    assert not unused, f"imported names no code of their module reads: {unused}"
    assert not unread, f"parameters their function never reads: {unread}"
