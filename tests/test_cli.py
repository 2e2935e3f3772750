"""CLI surface: subcommands, exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moelab
from moelab.cli import main
from moelab.model import param_count, paper_config

SUBCOMMANDS = ["tokenizer-train", "train", "generate", "perplexity", "param-count",
               "synth-corpus", "analyze-routing", "correlate"]


def small_config(tmp_path, **overrides):
    cfg = dict(n_layers=2, d_model=32, n_heads=2, max_seq_len=32,
               vocab_size=512, n_experts=2, seed=0)
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
        path.write_text(json.dumps(paper_config().to_dict()))
        assert main(["param-count", "--config", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("active=") and " total=" in out
        total = int(out.split("total=")[1])
        active = int(out.split("active=")[1].split()[0])
        assert (active, total) == param_count(paper_config())
        assert abs(total - 7.46e9) / 7.46e9 < 0.01


class TestRuntimeFailures:
    def test_diverging_train_exits_one(self, workspace, tmp_path, capsys):
        # a huge peak lr blows the weights up at step 1; step 2 then sees a NaN loss
        ckpt = tmp_path / "never.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", workspace["config"],
                         "--corpus", workspace["corpus"], "--tokenizer", workspace["tok"],
                         "--steps", "4", "--batch-size", "2", "--seed", "7", "--lr", "1e300",
                         "--checkpoint-out", str(ckpt), "--log", str(tmp_path / "log.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step 2: total loss is nan")
        assert not ckpt.exists()


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

    def test_analyze_routing_outputs(self, workspace, capsys):
        out_dir = str(workspace["root"] / "routing")
        assert main(["analyze-routing", "--checkpoint", workspace["ckpt"],
                     "--tokenizer", workspace["tok"], "--corpus", workspace["corpus"],
                     "--sequences-per-lang", "3", "--seed", "2",
                     "--out-dir", out_dir]) == 0
        capsys.readouterr()
        for name in ("vectors.tsv", "distance.tsv", "heatmap.tsv"):
            lines = Path(out_dir, name).read_text().splitlines()
            assert len(lines) == 5, name  # header + 4 languages

    def test_correlate_single_value(self, workspace, capsys):
        out_dir = str(workspace["root"] / "routing")
        assert main(["correlate", "--a", f"{out_dir}/distance.tsv",
                     "--b", workspace["truth"]]) == 0
        r = float(capsys.readouterr().out.strip())
        assert -1.0 <= r <= 1.0

    def test_correlate_sweep(self, workspace, tmp_path, capsys):
        out_dir = str(workspace["root"] / "routing")
        counts = tmp_path / "counts.tsv"
        counts.write_text("lang\tcount\naa\t8\nab\t8\nba\t8\nbb\t8\n")
        assert main(["correlate", "--a", f"{out_dir}/distance.tsv",
                     "--b", workspace["truth"], "--doc-counts", str(counts),
                     "--thresholds", "0,5,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "threshold\tn_languages\tpearson_r"
        assert lines[1].startswith("0\t4\t")
        assert lines[3] == "100\t0\tNA"

    def test_correlate_unsorted_thresholds_print_nothing(self, workspace, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text("lang\tcount\naa\t8\nab\t8\nba\t8\nbb\t8\n")
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--doc-counts", str(counts), "--thresholds", "5,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sorted" in captured.err

    def test_correlate_requires_paired_flags(self, workspace, capsys):
        assert main(["correlate", "--a", workspace["truth"], "--b", workspace["truth"],
                     "--thresholds", "0"]) == 1
        capsys.readouterr()


def test_synth_corpus_files_parse(workspace):
    from moelab.analysis import read_matrix_tsv
    from moelab.corpus import load_jsonl
    docs, stats = load_jsonl(workspace["corpus"])
    assert stats.total == 2 * 2 * 8
    truth = read_matrix_tsv(workspace["truth"])
    assert truth.codes == ["aa", "ab", "ba", "bb"]
