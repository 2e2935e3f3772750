"""Trainer: objective decomposition, schedule, determinism, checkpoint resume."""

import numpy as np
import pytest

from moelab import model as model_mod, trainer as trainer_mod
from moelab.checkpoint import read_checkpoint, write_checkpoint
from moelab.corpus import Document
from moelab.errors import ConfigError, FormatError, ShapeError
from moelab.model import ForwardOutput, Model, ModelConfig
from moelab.moe import RoutingStats
from moelab.tensor import Tensor, cross_entropy, grad_check, no_grad
from moelab.tokenizer import BOS_ID, EOS_ID, Tokenizer
from moelab.trainer import (LrSchedule, Trainer, load_checkpoint, lr_at_step,
                            save_checkpoint, score_documents, total_loss)


def tiny_config(**overrides):
    base = dict(n_layers=2, d_model=16, n_heads=2, max_seq_len=16,
                vocab_size=512, n_experts=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def routing_record(balance, n_experts=4):
    """Four tokens spread evenly over the experts, with gate probabilities
    (rows not normalised) whose balance loss is `balance`."""
    selected = np.arange(4) % n_experts
    return RoutingStats(selected=selected,
                        token_fraction=np.bincount(selected, minlength=n_experts) / 4,
                        probs=Tensor(np.full((4, n_experts), balance / n_experts)))


def injected_output(balances, rows=3, vocab=8, width=5):
    return ForwardOutput(hidden=Tensor(np.zeros((rows, width))),
                         head=Tensor(np.zeros((vocab, width))),
                         moe_stats=[routing_record(b) for b in balances])


def tiny_train_graph():
    """tiny_config()'s model, its forward on one seeded (2, 8) batch, and every
    node its training loss reaches, the loss included."""
    model = Model(tiny_config())
    batch = np.random.default_rng(0).integers(0, 512, size=(2, 9))
    out = model.forward(batch[:, :-1])
    root = total_loss(out, batch[:, 1:], alpha=0.01).node
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return model, out, list(seen.values())


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
        # one layer with mean gate probability == token fraction == [0.6, 0.4]
        stats = RoutingStats(selected=np.array([0, 0, 0, 1, 1]),
                             token_fraction=np.array([0.6, 0.4]),
                             probs=Tensor(np.tile([0.6, 0.4], (5, 1))))
        out = injected_output([])
        out.moe_stats.append(stats)
        got = total_loss(out, np.zeros(3, dtype=int), alpha=0.01)
        assert abs(got.moe_loss - 0.0104) < 1e-12  # 0.01 * 2 * (0.6 * 0.6 + 0.4 * 0.4)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            aux = rng.uniform(1.0, 4.0, size=rng.integers(1, 5)).tolist()
            out = ForwardOutput(hidden=Tensor(rng.normal(size=(4, 5))),
                                head=Tensor(rng.normal(size=(9, 5))),
                                moe_stats=[routing_record(a) for a in aux])
            got = total_loss(out, rng.integers(0, 9, size=4), alpha=0.01)
            assert abs(got.total_loss - (got.lm_loss + got.moe_loss)) < 1e-12

    def test_misaligned_targets_rejected(self):
        out = injected_output([1.0])
        with pytest.raises(ShapeError):
            total_loss(out, np.zeros(5, dtype=int), alpha=0.01)

    def test_sequence_and_batch_of_one_agree(self):
        model = Model(tiny_config(seed=6))
        toks = np.random.default_rng(6).integers(0, 512, size=12)
        single = total_loss(model.forward(toks[:-1]), toks[1:], alpha=0.01)
        batch = total_loss(model.forward(toks[None, :-1]), toks[None, 1:], alpha=0.01)
        assert (single.lm_loss, single.moe_loss) == (batch.lm_loss, batch.moe_loss)

    def test_gradient_flows_through_both_terms(self):
        model = Model(tiny_config(seed=2))
        toks = np.random.default_rng(3).integers(0, 512, size=10)
        out = model.forward(toks[:-1])
        got = total_loss(out, toks[1:], alpha=0.01)
        got.node.backward()
        gate_grad = model.layers[1].moe.gate_weight.grad
        assert gate_grad is not None and np.abs(gate_grad).max() > 0

    def test_whole_model_gradients_match_finite_differences(self):
        model = Model(tiny_config(vocab_size=64, seed=4))
        rng = np.random.default_rng(4)
        # N(0, 0.3) weights and gains near 1: at the 0.02 init many gradients
        # sit near the finite-difference noise floor.
        for name, p in model.named_parameters().items():
            p.data[...] = rng.normal(0.0, 0.3, size=p.data.shape)
            if "gain" in name:
                p.data += 1.0
        batch = rng.integers(0, 64, size=(2, 7))
        params = model.named_parameters()
        checked = ["layers.0.attn.wq", "layers.0.attn.wk", "layers.1.attn.wv",
                   "layers.1.attn.wo", "layers.0.attn.bq", "layers.1.attn.bo", "tok_emb",
                   "pos_emb", "layers.0.ln1.gain", "layers.1.ln2.bias", "lnf.gain",
                   "layers.1.moe.gate"]

        def loss():
            return total_loss(model.forward(batch[:, :-1]), batch[:, 1:], alpha=0.5).node

        assert grad_check(loss, [params[n] for n in checked], h=1e-5, samples=72, seed=0) < 1e-4

    def test_train_graph_node_count(self):
        """Timing-free guard on the train step's graph: each projection is one
        linear node, each attention, feed-forward block and MoE combine one
        node, and the out projection, the feed-forward block and the combine
        add the residual stream in, so per-op fallbacks add nodes."""
        model, out, nodes = tiny_train_graph()
        assert [int((s.token_fraction > 0).sum()) for s in out.moe_stats] == [2]
        ops = {
            "token lookup, position slice, their sum": 3,
            "2 layers: ln1, q, k, v, attention, out projection plus residual": 2 * 6,
            "dense block: ln2, feed_forward plus residual": 2,
            "MoE block: ln2, reshape, gate transpose and linear, softmax, "
            "combine plus residual": 6,
            "2 active experts: row pick, feed_forward": 2 * 2,
            "balance loss: sum over tokens, * 1/T, p * f, sum, * N": 5,
            "head: lnf, cross-entropy with the tied logits": 2,
            "alpha * balance, lm + moe": 2,
        }
        constants = 4  # 1/T, f, N and alpha
        params = model.named_parameters()  # all 41 are on the loss path
        assert len(nodes) == len(params) + constants + sum(ops.values())

    def test_train_graph_array_bytes(self):
        """Timing-free memory guard on the same graph: the bytes of the distinct
        arrays behind its nodes' values, parameters included. The residual
        stream is each block's output buffer, so no branch output is held; one
        held again adds a (2, 8, 16) float64 array, 2048 bytes, and fails here.
        Separate adds held all four and read 189440."""
        _, _, nodes = tiny_train_graph()
        bases = {}
        for node in nodes:
            a = node.data
            while isinstance(a.base, np.ndarray):
                a = a.base
            bases[id(a)] = a
        assert sum(a.nbytes for a in bases.values()) == 181248


class TestLrSchedule:
    SCHED = LrSchedule(peak=2e-3, warmup_steps=10, decay_steps=40)  # floor 2e-3 * FLOOR_FRAC

    def test_warmup_step_zero_trains(self):
        assert lr_at_step(0, self.SCHED) > 0.0
        assert lr_at_step(0, self.SCHED) == pytest.approx(2e-3 / 11)

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
        assert sched.decay_steps == 990
        assert lr_at_step(1000, sched) == pytest.approx(1e-4)


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
        with pytest.raises(ValueError, match=r"got \(0, 9\)"):
            tr.train_step(np.zeros((0, 9), dtype=int))
        assert (tr.step, tr.tokens_seen) == (0, 0)

    def test_batch_size_below_one_named(self, word_tokenizer):
        with pytest.raises(ValueError, match="^batch_size must be positive, got 0$"):
            Trainer(Model(tiny_config()), word_docs(), word_tokenizer,
                    LrSchedule.for_total_steps(1e-3, 10), batch_size=0, seed=0)

    def test_train_step_returns_the_row_run_would(self, word_tokenizer):
        trainers = []
        for _ in range(2):
            model = Model(tiny_config(seed=8))
            tr = Trainer(model, word_docs(), word_tokenizer,
                         LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=8)
            tr.run(2)  # past warmup, so the row's lr is not 0
            trainers.append(tr)
        by_run, by_step = trainers
        want = by_run.run(1)[0]
        batch = trainer_mod.sample_batch(by_step.groups, 2, by_step.seq_len, by_step.tokenizer,
                                         8, by_step.step)
        got = by_step.train_step(batch)
        assert got == want
        assert (got.step, got.lr, got.tokens_seen) == (2, lr_at_step(2, by_step.schedule), 3 * 32)
        assert (by_step.step, by_step.tokens_seen) == (3, 3 * 32)
        for name, p in by_step.params.items():
            assert np.array_equal(p.data, by_run.params[name].data), name

    def test_each_step_reads_the_schedule_once(self, word_tokenizer, monkeypatch):
        calls = []
        real = trainer_mod.lr_at_step
        monkeypatch.setattr(trainer_mod, "lr_at_step",
                            lambda step, schedule: calls.append(step) or real(step, schedule))
        tr = Trainer(Model(tiny_config(seed=3)), word_docs(), word_tokenizer,
                     LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=3)
        tr.run(3)
        assert calls == [0, 1, 2]

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
        model = Model(tiny_config(n_layers=2, d_model=32, max_seq_len=16, seed=13))
        tr = Trainer(model, docs, word_tokenizer,
                     LrSchedule.for_total_steps(5e-3, 150), batch_size=1, seed=13)
        for _ in range(150):
            row = tr.run(1)[0]
            if row.lm_loss < 0.2:
                break
        assert row.lm_loss < 0.2

        # greedy generation reproduces the memorized continuation token for token
        from moelab.model import generate
        from moelab.tokenizer import BOS_ID
        doc_ids = word_tokenizer.encode(docs[0].text)
        prompt = [BOS_ID] + doc_ids[:3]
        out = generate(model, prompt, 5, temperature=0.0)
        assert out[len(prompt):] == doc_ids[3:8]


def one_document_scores(model, tokenizer, docs):
    """score_documents' values from one forward per document, through cross_entropy."""
    window = model.config.max_seq_len + 1
    nll, count, cut_docs, cut_tokens = {}, {}, 0, 0
    with no_grad():
        for d in docs:
            ids = [BOS_ID] + tokenizer.encode(d.text) + [EOS_ID]
            cut_docs += len(ids) > window
            cut_tokens += max(0, len(ids) - window)
            ids = np.asarray(ids[:window])
            out = model.forward(ids[:-1])
            loss = cross_entropy(out.hidden, out.head, ids[1:]).item()
            nll[d.lang] = nll.get(d.lang, 0.0) + loss * (len(ids) - 1)
            count[d.lang] = count.get(d.lang, 0) + len(ids) - 1
    return nll, count, cut_docs, cut_tokens


class TestScoreDocuments:
    @staticmethod
    def _corpus():
        """Five cut documents in a row, one more than SCORE_BATCH, and short ones of two lengths."""
        long = [Document(lang, d.text) for lang, d in
                zip(["en", "fr"] * 3, word_docs(n_docs=6, words_per_doc=40, seed=2))]
        short = [Document("fr", "red sun"), Document("en", "red sun"), Document("en", "fish")]
        return long[:5] + short + long[5:]

    def _assert_equal_scores(self, got, want):
        assert got[1:] == want[1:]
        assert got[0].keys() == want[0].keys()
        for lang, nll in want[0].items():
            assert got[0][lang] == pytest.approx(nll, rel=1e-12, abs=0), lang

    def test_batched_sums_equal_one_document_forwards(self, word_tokenizer):
        model, docs = Model(tiny_config(seed=6)), self._corpus()
        window = model.config.max_seq_len + 1
        lengths = [len(word_tokenizer.encode(d.text)) + 2 for d in docs]
        assert sum(n > window for n in lengths) == 6 and len(set(lengths[5:8])) == 2
        self._assert_equal_scores(score_documents(model, word_tokenizer, docs),
                                  one_document_scores(model, word_tokenizer, docs))

    def test_lang_scores_and_counts_only_its_documents(self, word_tokenizer):
        model, docs = Model(tiny_config(seed=6)), self._corpus()
        french = [d for d in docs if d.lang == "fr"]
        self._assert_equal_scores(score_documents(model, word_tokenizer, docs, "fr"),
                                  one_document_scores(model, word_tokenizer, french))
        with pytest.raises(ValueError, match="no documents for language 'zz'"):
            score_documents(model, word_tokenizer, docs, "zz")


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
                tr.step, tr.tokens_seen)

    def _assert_unchanged(self, tr, before):
        after = self._snapshot(tr)
        for old, new in zip(before[:3], after[:3]):
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(old, new))
        assert before[3:] == after[3:]

    def test_nan_weight_stops_the_step(self, word_tokenizer):
        tr = self._trainer(word_tokenizer)
        tr.model.layers[0].attn.wq.data[0, 0] = np.nan
        before = self._snapshot(tr)
        with pytest.raises(FloatingPointError, match="step 2: total loss is nan"):
            tr.run(1)
        self._assert_unchanged(tr, before)
        assert (tr.step, tr.tokens_seen) == (2, 2 * 2 * 16)

    def test_nan_gradient_names_first_parameter(self, word_tokenizer, monkeypatch):
        tr = self._trainer(word_tokenizer)
        real_clip = trainer_mod.clip_global_norm

        def poisoned_clip(params):
            params["layers.1.moe.gate"].grad[0, 0] = np.nan
            params["lnf.gain"].grad[0] = np.inf
            return real_clip(params)

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
        # copies of the same weights handed over to the constructor directly:
        # the model keeps exactly those float64 arrays
        weights = {n: p.data.copy() for n, p in model.named_parameters().items()}
        direct = Model(tiny_config(seed=99), weights)
        assert list(direct.named_parameters()) == list(weights)
        for name, p in direct.named_parameters().items():
            assert p.data is weights[name], name
        # a loaded model's parameters are separate arrays
        datas = [p.data for p in loaded.named_parameters().values()]
        for i, a in enumerate(datas):
            assert not any(np.shares_memory(a, b) for b in datas[i + 1:])

    @pytest.mark.parametrize("convert", [
        lambda a: a.astype(np.float32),
        lambda a: np.asfortranarray(a) if a.ndim == 2 else np.repeat(a, 2)[::2],
        lambda a: np.lib.stride_tricks.as_strided(a, writeable=False),
    ], ids=["float32", "non-contiguous", "read-only"])
    def test_weights_the_model_cannot_keep_are_copied(self, convert):
        model = Model(tiny_config(seed=24))
        weights = {n: convert(p.data.copy()) for n, p in model.named_parameters().items()}
        direct = Model(tiny_config(), weights)
        for name, p in direct.named_parameters().items():
            assert not np.shares_memory(p.data, weights[name]), name
            assert p.data.dtype == np.float64 and p.data.flags.c_contiguous
            assert p.data.flags.writeable, name
            assert np.array_equal(p.data, weights[name].astype(np.float64)), name

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

        monkeypatch.setattr(model_mod, "default_rng", lambda *args, **kwargs: NoDraws())
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

    def test_tensors_of_layers_the_header_does_not_describe_rejected(self, tmp_path):
        path = str(tmp_path / "deep.ckpt")
        save_checkpoint(Model(tiny_config(n_layers=4)), path)
        self._rewrite(path, lambda header, tensors: header["model"].update(n_layers=2))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert path in str(exc.value) and "'layers.2.ln1.gain'" in str(exc.value)
        # the constructor itself still takes the names it knows and ignores the rest
        _, tensors = read_checkpoint(path)
        shallow = Model(tiny_config(n_layers=2), tensors)
        assert all(p.data is tensors[n] for n, p in shallow.named_parameters().items())

    def test_adam_tensor_without_trainer_state_rejected(self, tmp_path):
        path = str(tmp_path / "weights.ckpt")
        save_checkpoint(Model(tiny_config()), path)

        def add_moment(header, tensors):
            tensors["adam.m.lnf.gain"] = np.zeros_like(tensors["lnf.gain"])

        self._rewrite(path, add_moment)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert path in str(exc.value) and "'adam.m.lnf.gain'" in str(exc.value)

    def test_missing_moment_rejected(self, tmp_path, word_tokenizer):
        path = str(tmp_path / "moment.ckpt")
        save_checkpoint(Trainer(Model(tiny_config()), word_docs(), word_tokenizer,
                                LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=0), path)
        self._rewrite(path, lambda header, tensors: tensors.pop("adam.v.lnf.gain"))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (f"{path}: checkpoint is missing optimizer tensor "
                                  "'adam.v.lnf.gain'")

    def test_resume_from_a_weights_only_file_rejected(self, tmp_path, word_tokenizer):
        path = str(tmp_path / "weights.ckpt")
        save_checkpoint(Model(tiny_config()), path)
        with pytest.raises(FormatError) as exc:
            Trainer.resume(path, word_docs(), word_tokenizer,
                           LrSchedule.for_total_steps(1e-3, 10), batch_size=2)
        assert str(exc.value) == f"{path}: checkpoint carries no trainer state to resume from"

    def test_removed_config_field_in_header_rejected(self, tmp_path):
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(Model(tiny_config()), path)
        self._rewrite(path, lambda header, tensors: header["model"].update(gelu_variant="exact"))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: unknown config fields: ['gelu_variant']"

    @pytest.mark.parametrize("edit, problem", [
        ({"n_experts": "4"}, "n_experts must be an integer >= 1, got '4'"),
        ({"alpha": float("nan")}, "alpha must be a finite number >= 0, got nan"),
    ], ids=["string_size", "nan_alpha"])
    def test_bad_config_in_header_names_the_file(self, tmp_path, edit, problem):
        path = str(tmp_path / "bad.ckpt")
        save_checkpoint(Model(tiny_config()), path)
        self._rewrite(path, lambda header, tensors: header["model"].update(edit))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: {problem}"

    def test_resume_ignores_old_adam_keys(self, tmp_path, word_tokenizer):
        docs = word_docs(seed=3)
        sched = LrSchedule.for_total_steps(2e-3, 10)
        tr = Trainer(Model(tiny_config(seed=32)), docs, word_tokenizer, sched,
                     batch_size=2, seed=32)
        tr.run(2)
        path = str(tmp_path / "adam.ckpt")
        save_checkpoint(tr, path)
        self._rewrite(path, lambda header, tensors: header["state"].update(adam=dict(
            step=2, lr=2e-3, beta1=0.9, beta2=0.999, eps=1e-8)))
        resumed = Trainer.resume(path, docs, word_tokenizer, sched, batch_size=2)
        assert [r.total_loss for r in resumed.run(1)] == [r.total_loss for r in tr.run(1)]

    def test_adam_takes_the_step_being_taken_across_a_resume(self, tmp_path, word_tokenizer,
                                                             monkeypatch):
        steps = []
        real_adam_step = trainer_mod.adam_step

        def recording_adam_step(params, state, lr, step):
            steps.append(step)
            real_adam_step(params, state, lr, step)

        monkeypatch.setattr(trainer_mod, "adam_step", recording_adam_step)
        docs, sched = word_docs(seed=3), LrSchedule.for_total_steps(2e-3, 10)
        tr = Trainer(Model(tiny_config(seed=34)), docs, word_tokenizer, sched,
                     batch_size=2, seed=34)
        tr.run(2)
        path = str(tmp_path / "steps.ckpt")
        save_checkpoint(tr, path)
        Trainer.resume(path, docs, word_tokenizer, sched, batch_size=2).run(2)
        assert steps == [0, 1, 2, 3]

    @pytest.mark.parametrize("adam_step", [3, 1, "three"], ids=["agrees", "stale", "not_an_int"])
    def test_old_layout_adam_step_is_ignored_on_resume(self, tmp_path, word_tokenizer, adam_step):
        """Files that still carry the header's old "adam": {"step": k} resume
        from the trainer's step alone, whatever k holds. While Adam kept its
        own step, k = 1 after 3 steps here made the second resumed loss read
        6.0934 where the unbroken run read 6.1076."""
        docs = word_docs(seed=3)
        sched = LrSchedule.for_total_steps(2e-3, 10)
        full = Trainer(Model(tiny_config(seed=31)), docs, word_tokenizer, sched,
                       batch_size=2, seed=31)
        full_rows = full.run(5)
        part = Trainer(Model(tiny_config(seed=31)), docs, word_tokenizer, sched,
                       batch_size=2, seed=31)
        part.run(3)
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(part, path)
        self._rewrite(path, lambda header, tensors: header["state"].update(
            adam={"step": adam_step}))
        resumed = Trainer.resume(path, docs, word_tokenizer, sched, batch_size=2)
        assert [r.total_loss for r in resumed.run(2)] == [r.total_loss for r in full_rows[3:]]
        for name, p in full.params.items():
            assert np.array_equal(p.data, resumed.params[name].data), name

    @pytest.mark.parametrize("key", ["adam.m.lnf.bias", "adam.v.layers.0.attn.wk"],
                             ids=["m", "v"])
    def test_wrongly_shaped_moment_rejected(self, tmp_path, word_tokenizer, key):
        tr = Trainer(Model(tiny_config(seed=33)), word_docs(), word_tokenizer,
                     LrSchedule.for_total_steps(1e-3, 10), batch_size=2, seed=33)
        tr.run(2)
        path = str(tmp_path / "moment.ckpt")
        save_checkpoint(tr, path)
        self._rewrite(path, lambda header, tensors: tensors.update({key: np.zeros(3)}))
        with pytest.raises(FormatError) as exc:
            load_checkpoint(path)
        shape = tr.params[key.split(".", 2)[2]].data.shape
        assert str(exc.value) == (f"{path}: optimizer tensor {key!r} has shape (3,), "
                                  f"expected {shape}")

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
        save_checkpoint(part, ckpt)

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
        path = tmp_path / "v3.ckpt"
        save_checkpoint(model, str(path))
        blob = bytearray(path.read_bytes())
        blob[7] = ord("3")
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
