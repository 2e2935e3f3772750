"""Trainer: objective decomposition, schedule, determinism, checkpoint resume."""

import numpy as np
import pytest

from moelab import trainer as trainer_mod
from moelab.checkpoint import read_checkpoint, write_checkpoint
from moelab.corpus import Document
from moelab.errors import ConfigError, FormatError, ShapeError
from moelab.model import ForwardOutput, Model, ModelConfig
from moelab.moe import RoutingStats
from moelab.tensor import Tensor
from moelab.tokenizer import Tokenizer
from moelab.trainer import (LrSchedule, Trainer, load_checkpoint, lr_at_step,
                            save_checkpoint, total_loss)


def tiny_config(**overrides):
    base = dict(n_layers=2, d_model=16, n_heads=2, max_seq_len=16,
                vocab_size=512, n_experts=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def balanced_stats(n_experts):
    uniform = np.full(n_experts, 1.0 / n_experts)
    selected = np.arange(4) % n_experts
    return RoutingStats(selected=selected, avg_gate_prob=uniform,
                        token_fraction=np.bincount(selected, minlength=n_experts) / 4,
                        balance_loss=1.0)


def injected_output(aux_values, rows=3, vocab=8):
    logits = np.zeros((rows, vocab))
    return ForwardOutput(logits=Tensor(logits),
                         moe_stats=[balanced_stats(4) for _ in aux_values],
                         balance_losses=list(aux_values))


class TestTotalLoss:
    def test_alpha_zero_total_equals_lm(self):
        out = injected_output([1.0, 1.0])
        got = total_loss(out, np.zeros(3, dtype=int), alpha=0.0)
        assert got.total_loss == got.lm_loss
        assert got.moe_loss == 0.0

    def test_balanced_layers_give_alpha_times_layer_count(self):
        out = injected_output([1.0] * 12)
        got = total_loss(out, np.zeros(3, dtype=int), alpha=0.01)
        assert got.moe_loss == 0.01 * 12.0

    def test_hand_built_stats(self):
        # one layer with avg-gate-prob == token-fraction == [0.6, 0.4]
        aux = 2 * (0.6 * 0.6 + 0.4 * 0.4)
        got = total_loss(injected_output([aux]), np.zeros(3, dtype=int), alpha=0.01)
        assert abs(got.moe_loss - 0.0104) < 1e-12

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            aux = rng.uniform(1.0, 4.0, size=rng.integers(0, 5)).tolist()
            logits = Tensor(rng.normal(size=(4, 9)))
            out = ForwardOutput(logits=logits, moe_stats=[], balance_losses=aux)
            got = total_loss(out, rng.integers(0, 9, size=4), alpha=0.01)
            assert abs(got.total_loss - (got.lm_loss + got.moe_loss)) < 1e-12

    def test_misaligned_targets_rejected(self):
        out = injected_output([1.0])
        with pytest.raises(ShapeError):
            total_loss(out, np.zeros(5, dtype=int), alpha=0.01)

    def test_gradient_flows_through_both_terms(self):
        model = Model(tiny_config(seed=2))
        toks = np.random.default_rng(3).integers(0, 512, size=10)
        out = model.forward(toks[:-1])
        got = total_loss(out, toks[1:], alpha=0.01)
        got.node.backward()
        gate_grad = model.layers[1].moe.gate_weight.grad
        assert gate_grad is not None and np.abs(gate_grad).max() > 0


class TestLrSchedule:
    SCHED = LrSchedule(peak=2e-3, warmup_steps=10, decay_steps=40, min_lr=2e-4)

    def test_warmup_starts_at_zero(self):
        assert lr_at_step(0, self.SCHED) == 0.0

    def test_peak_reached_exactly_at_warmup_end(self):
        assert lr_at_step(10, self.SCHED) == 2e-3

    def test_floor_reached_exactly_at_decay_end(self):
        assert lr_at_step(50, self.SCHED) == 2e-4
        assert lr_at_step(51, self.SCHED) == 2e-4

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at_step(-1, self.SCHED)

    def test_piecewise_continuous(self):
        values = [lr_at_step(s, self.SCHED) for s in range(52)]
        jumps = np.abs(np.diff(values))
        assert jumps.max() < 2e-3 * 0.26  # no discontinuity beyond one warmup increment

    def test_for_total_steps_defaults(self):
        sched = LrSchedule.for_total_steps(1e-3, 1000)
        assert sched.warmup_steps == 10
        assert sched.min_lr == pytest.approx(1e-4)


def word_docs(n_docs=4, words_per_doc=120, seed=0):
    rng = np.random.default_rng(seed)
    words = ["red", "blue", "sun", "moon", "tree", "fish", "wind", "rain"]
    return [Document("en", " ".join(rng.choice(words, size=words_per_doc)))
            for _ in range(n_docs)]


@pytest.fixture(scope="module")
def word_tokenizer():
    docs = word_docs()
    return Tokenizer.train((d.text for d in docs), 300)


class TestTrainer:
    def test_two_runs_same_seed_identical_losses(self, word_tokenizer):
        docs = word_docs()
        losses = []
        for _ in range(2):
            model = Model(tiny_config(seed=5))
            tr = Trainer(model, docs, word_tokenizer,
                         LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=5)
            rows = tr.run(4)
            losses.append([(r.lm_loss, r.moe_loss, r.total_loss) for r in rows])
        assert losses[0] == losses[1]

    def test_empty_batch_rejected(self, word_tokenizer):
        model = Model(tiny_config())
        tr = Trainer(model, word_docs(), word_tokenizer,
                     LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=0)
        with pytest.raises(ValueError):
            tr.train_step(np.zeros((0, 9), dtype=int), 0)

    def test_first_step_loss_near_log_vocab(self, word_tokenizer):
        model = Model(tiny_config(seed=11))
        tr = Trainer(model, word_docs(), word_tokenizer,
                     LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=11)
        rows = tr.run(1)
        assert abs(rows[0].lm_loss - np.log(512)) / np.log(512) < 0.05

    def test_gradients_cleared_after_step(self, word_tokenizer):
        model = Model(tiny_config(seed=1))
        tr = Trainer(model, word_docs(), word_tokenizer,
                     LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=1)
        tr.run(1)
        assert all(p.grad is None for p in model.named_parameters().values())

    def test_overfits_single_repeated_sequence(self, word_tokenizer):
        docs = [Document("en", "sun moon tree fish wind rain red blue")]
        model = Model(tiny_config(n_layers=2, d_model=32, max_seq_len=24, seed=13))
        tr = Trainer(model, docs, word_tokenizer,
                     LrSchedule.for_total_steps(5e-3, 150), batch_size=1,
                     seed=13, seq_len=16)
        rows = tr.run(150, stop_lm_loss=0.2)
        assert rows[-1].lm_loss < 0.2

        # greedy generation reproduces the memorized continuation token for token
        from moelab.model import generate
        from moelab.tokenizer import BOS_ID
        doc_ids = word_tokenizer.encode(docs[0].text)
        prompt = [BOS_ID] + doc_ids[:3]
        out = generate(model, prompt, 5, temperature=0.0)
        assert out[len(prompt):] == doc_ids[3:8]


class TestNonFinite:
    @staticmethod
    def _trainer(word_tokenizer):
        model = Model(tiny_config(seed=4))
        tr = Trainer(model, word_docs(), word_tokenizer,
                     LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=4)
        tr.run(2)  # non-zero moments, so "unchanged" is a real check
        return tr

    @staticmethod
    def _snapshot(tr):
        return ([p.data.copy() for p in tr.params.values()],
                [m.copy() for m in tr.adam.m.values()], [v.copy() for v in tr.adam.v.values()],
                tr.adam.step)

    def _assert_unchanged(self, tr, before):
        after = self._snapshot(tr)
        for old, new in zip(before[:3], after[:3]):
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(old, new))
        assert before[3] == after[3]

    def test_nan_weight_stops_the_step(self, word_tokenizer):
        tr = self._trainer(word_tokenizer)
        tr.model.layers[0].attn.wq.data[0, 0] = np.nan
        before = self._snapshot(tr)
        with pytest.raises(FloatingPointError, match="step 2: total loss is nan"):
            tr.run(1)
        self._assert_unchanged(tr, before)
        assert tr.step == 2

    def test_nan_gradient_names_first_parameter(self, word_tokenizer, monkeypatch):
        tr = self._trainer(word_tokenizer)
        real_clip = trainer_mod.clip_global_norm

        def poisoned_clip(params, max_norm):
            params["layers.1.moe.gate"].grad[0, 0] = np.nan
            params["lnf.gain"].grad[0] = np.inf
            return real_clip(params, max_norm)

        monkeypatch.setattr(trainer_mod, "clip_global_norm", poisoned_clip)
        before = self._snapshot(tr)
        with pytest.raises(FloatingPointError,
                           match="step 2: gradient norm is nan, .*'layers.1.moe.gate'"):
            tr.run(1)
        self._assert_unchanged(tr, before)
        assert all(p.grad is None for p in tr.params.values())


class TestCheckpoint:
    def test_roundtrip_bitwise_and_byte_identical(self, tmp_path, word_tokenizer):
        model = Model(tiny_config(seed=21))
        path1, path2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(model, path1)
        loaded, state = load_checkpoint(path1)
        assert state is None
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, loaded.named_parameters()[name].data), name
        save_checkpoint(loaded, path2)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        # the same weights handed to the constructor directly
        weights = {n: p.data for n, p in model.named_parameters().items()}
        direct = Model(tiny_config(seed=99), weights)
        assert list(direct.named_parameters()) == list(weights)
        for name, p in direct.named_parameters().items():
            assert np.array_equal(p.data, weights[name]) and p.data is not weights[name], name

    def test_float32_weights_load_as_float64(self):
        model = Model(tiny_config(seed=22))
        weights = {n: p.data.astype(np.float32) for n, p in model.named_parameters().items()}
        loaded = Model(tiny_config(), weights)
        for name, p in loaded.named_parameters().items():
            assert p.data.dtype == np.float64
            assert np.array_equal(p.data, weights[name].astype(np.float64)), name

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        path = str(tmp_path / "m.ckpt")
        model = Model(tiny_config(seed=23))
        save_checkpoint(model, path)

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"random draw {name!r} during checkpoint load")

        monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
        loaded, _ = load_checkpoint(path)
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, loaded.named_parameters()[name].data), name

    @staticmethod
    def _rewrite(path, edit):
        header, tensors = read_checkpoint(path)
        edit(header, tensors)
        write_checkpoint(path, header, tensors)

    def test_missing_parameter_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "missing.ckpt")
        save_checkpoint(Model(tiny_config()), path)
        self._rewrite(path, lambda header, tensors: tensors.pop("layers.1.moe.experts.1.b2"))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert path in str(exc.value) and "'layers.1.moe.experts.1.b2'" in str(exc.value)

    def test_wrongly_shaped_tensor_rejected(self, tmp_path):
        path = str(tmp_path / "shape.ckpt")
        save_checkpoint(Model(tiny_config()), path)

        def shrink(header, tensors):
            tensors["layers.0.attn.wk"] = tensors["layers.0.attn.wk"][:, :15].copy()

        self._rewrite(path, shrink)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        message = str(exc.value)
        assert path in message and "'layers.0.attn.wk'" in message
        assert "(16, 15)" in message and "(16, 16)" in message

    def test_removed_config_field_in_header_rejected(self, tmp_path):
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(Model(tiny_config()), path)
        self._rewrite(path, lambda header, tensors: header["model"].update(gelu_variant="exact"))
        with pytest.raises(ConfigError, match="unknown config fields: \\['gelu_variant'\\]"):
            load_checkpoint(path)

    def test_resume_ignores_old_adam_keys(self, tmp_path, word_tokenizer):
        docs = word_docs(seed=3)
        sched = LrSchedule.for_total_steps(2e-3, 10)
        tr = Trainer(Model(tiny_config(seed=32)), docs, word_tokenizer, sched,
                     batch_size=2, seed=32)
        tr.run(2)
        path = str(tmp_path / "adam.ckpt")
        save_checkpoint(tr.model, path, tr)
        self._rewrite(path, lambda header, tensors: header["state"]["adam"].update(
            lr=2e-3, beta1=0.9, beta2=0.999, eps=1e-8))
        resumed = Trainer.resume(path, docs, word_tokenizer, sched, batch_size=2)
        assert resumed.adam.step == 2
        assert [r.total_loss for r in resumed.run(1)] == [r.total_loss for r in tr.run(1)]

    def test_resume_matches_unbroken_run(self, tmp_path, word_tokenizer):
        docs = word_docs(seed=3)
        sched = LrSchedule.for_total_steps(2e-3, 10)

        model_a = Model(tiny_config(seed=31))
        full = Trainer(model_a, docs, word_tokenizer, sched, batch_size=2, seed=31)
        full_rows = full.run(5)

        model_b = Model(tiny_config(seed=31))
        part = Trainer(model_b, docs, word_tokenizer, sched, batch_size=2, seed=31)
        part.run(3)
        ckpt = str(tmp_path / "resume.ckpt")
        save_checkpoint(part.model, ckpt, part)

        resumed = Trainer.resume(ckpt, docs, word_tokenizer, sched, batch_size=2)
        tail = resumed.run(2)
        assert resumed.step == 5
        assert [r.total_loss for r in tail] == [r.total_loss for r in full_rows[3:]]
        for name, p in full.params.items():
            assert np.array_equal(p.data, resumed.params[name].data), name

    def test_corrupted_magic_rejected(self, tmp_path):
        model = Model(tiny_config())
        path = tmp_path / "bad.ckpt"
        save_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        model = Model(tiny_config())
        path = tmp_path / "v2.ckpt"
        save_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[7] = ord("2")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(str(path))

    def test_truncated_file_names_offset(self, tmp_path):
        model = Model(tiny_config())
        path = tmp_path / "cut.ckpt"
        save_checkpoint(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="offset"):
            load_checkpoint(str(path))
