"""Decoder model: placement, causality, determinism, parameter accounting."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from moelab import model as model_mod
from moelab.errors import ConfigError, ShapeError
from moelab.model import (FFN_MULTIPLIER, QUERY_BLOCK, KVCache, Model, ModelConfig, desk_config,
                          generate, moe_layer_indices, param_count)
from moelab.moe import moe_forward
from moelab.tensor import linear, no_grad


# The paper's full-scale shape: not buildable on a desk, but countable.
PAPER = ModelConfig(n_layers=24, d_model=2048, n_heads=16, max_seq_len=2048,
                    vocab_size=100_000, n_experts=16)


def tiny_config(**overrides):
    base = dict(n_layers=2, d_model=16, n_heads=2, max_seq_len=16,
                vocab_size=64, n_experts=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_validation_lists_all_violations(self):
        cfg = ModelConfig(n_layers=3, d_model=10, n_heads=4, max_seq_len=8,
                          vocab_size=32, n_experts=2)
        with pytest.raises(ConfigError) as exc:
            cfg.validate()
        assert "n_layers" in str(exc.value) and "n_heads" in str(exc.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="n_layerz"):
            ModelConfig.from_dict({"n_layerz": 2})

    @pytest.mark.parametrize("field, value, problem", [
        ("n_experts", "4", "n_experts must be an integer >= 1, got '4'"),
        ("n_experts", None, "n_experts must be an integer >= 1, got None"),
        ("n_experts", 4.0, "n_experts must be an integer >= 1, got 4.0"),
        ("d_model", True, "d_model must be an integer >= 1, got True"),
        ("vocab_size", 0, "vocab_size must be an integer >= 1, got 0"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("seed", 1.0, "seed must be an integer >= 0, got 1.0"),
        ("alpha", float("nan"), "alpha must be a finite number >= 0, got nan"),
        ("alpha", float("inf"), "alpha must be a finite number >= 0, got inf"),
        ("alpha", -0.5, "alpha must be a finite number >= 0, got -0.5"),
        ("alpha", "0.1", "alpha must be a finite number >= 0, got '0.1'"),
        ("alpha", False, "alpha must be a finite number >= 0, got False"),
    ])
    def test_field_types_and_ranges_checked(self, field, value, problem):
        data = {**asdict(tiny_config()), field: value}
        with pytest.raises(ConfigError) as exc:
            ModelConfig.from_dict(data)
        assert str(exc.value) == problem

    def test_integer_alpha_accepted(self):
        assert ModelConfig.from_dict({**asdict(tiny_config()), "alpha": 0}).alpha == 0

    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(alpha=0.02)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        assert ModelConfig.load(str(path)) == cfg

    def test_missing_field_named(self):
        data = asdict(tiny_config())
        del data["vocab_size"]
        with pytest.raises(ConfigError, match="'vocab_size'"):
            ModelConfig.from_dict(data)

    @pytest.mark.parametrize("content, problem", [
        (b'{"n_layers": 2,', "is not valid JSON: "),
        (b'{"n_layers": \xff}', "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[2, 16]", "must hold a JSON object"),
    ], ids=["invalid_json", "not_utf8", "not_an_object"])
    def test_malformed_file_names_its_path(self, tmp_path, content, problem):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as exc:
            ModelConfig.load(str(path))
        assert str(exc.value).startswith(f"config file {path} {problem}")

    def test_paper_reference_instantiation(self):
        PAPER.validate()
        assert (PAPER.alpha, PAPER.seed) == (0.01, 0)  # the defaults are the paper's


class TestPlacement:
    def test_paper_config_has_twelve_moe_layers(self):
        assert len(moe_layer_indices(PAPER)) == 12

    def test_four_layers_moe_at_one_and_three(self):
        assert moe_layer_indices(tiny_config(n_layers=4)) == [1, 3]

    def test_forward_reports_half_the_layers(self):
        model = Model(tiny_config(n_layers=4))
        out = model.forward(np.arange(6))
        assert len(out.moe_stats) == 2
        assert all(s.balance.shape == () and s.balance.requires_grad for s in out.moe_stats)


class TestBuild:
    def test_same_seed_bitwise_identical(self):
        a, b = Model(tiny_config(seed=5)), Model(tiny_config(seed=5))
        for name, p in a.named_parameters().items():
            assert np.array_equal(p.data, b.named_parameters()[name].data), name

    def test_different_seed_differs(self):
        a, b = Model(tiny_config(seed=1)), Model(tiny_config(seed=2))
        assert not np.array_equal(a.tok_emb.data, b.tok_emb.data)

    def test_stable_dotted_names(self):
        names = set(Model(tiny_config()).named_parameters())
        assert {"tok_emb", "pos_emb", "lnf.gain", "layers.0.attn.wq",
                "layers.1.moe.gate", "layers.1.moe.experts.0.w1"} <= names


class TestForward:
    def test_causality_under_perturbation(self):
        model = Model(tiny_config(seed=3))
        rng = np.random.default_rng(0)
        toks = rng.integers(0, 64, size=10)
        with no_grad():
            base = model.forward(toks).logits.data
        for t in (3, 7):
            changed = toks.copy()
            changed[t] = (changed[t] + 1) % 64
            with no_grad():
                new = model.forward(changed).logits.data
            assert np.array_equal(new[:t], base[:t])
            assert not np.array_equal(new[t:], base[t:])

    def test_logits_built_on_first_read_as_the_forward_recorded(self):
        model = Model(tiny_config(seed=2))
        toks = np.arange(6)
        out = model.forward(toks)
        assert "logits" not in vars(out)
        with no_grad():
            logits = out.logits
            plain = model.forward(toks)
        assert out.logits is logits and logits.requires_grad and logits.shape == (6, 64)
        assert not plain.logits.requires_grad
        assert np.array_equal(plain.logits.data, logits.data)
        assert np.array_equal(logits.data, linear(out.hidden, out.head.transpose()).data)

    def test_decode_builds_no_balance_node(self, monkeypatch):
        model = Model(tiny_config(seed=6))
        records = []

        def recording_moe_forward(x, layer, residual):
            y, stats = moe_forward(x, layer, residual)
            records.append(stats)
            return y, stats

        monkeypatch.setattr(model_mod, "moe_forward", recording_moe_forward)
        generate(model, [5, 6], 4)  # one prefill forward, then 4 one-token steps
        assert len(records) == 5 and not any("balance" in vars(s) for s in records)

    def test_random_init_loss_near_log_vocab(self):
        from moelab.tensor import cross_entropy
        model = Model(tiny_config(vocab_size=512, max_seq_len=32, seed=7))
        rng = np.random.default_rng(1)
        toks = rng.integers(0, 512, size=33)
        with no_grad():
            out = model.forward(toks[:-1])
        loss = cross_entropy(out.hidden, out.head, toks[1:]).item()
        assert abs(loss - math.log(512)) / math.log(512) < 0.05

    def test_forward_is_deterministic(self):
        model = Model(tiny_config(seed=9))
        toks = np.arange(8)
        with no_grad():
            a = model.forward(toks).logits.data
            b = model.forward(toks).logits.data
        assert np.array_equal(a, b)

    def test_batched_forward_matches_single(self):
        model = Model(tiny_config(seed=4))
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 64, size=(3, 7))
        with no_grad():
            stacked = model.forward(batch).logits.data
            singles = [model.forward(row).logits.data for row in batch]
        assert np.allclose(stacked, np.stack(singles), atol=1e-12)

    def test_routing_pass_never_holds_a_logits_sized_array(self):
        """The routing analysis's pass, a B=16 no-grad forward whose logits are
        never read, builds no (positions x vocab_size) array."""
        config = desk_config(seed=1)
        model = Model(config)
        b, t = 16, config.max_seq_len
        ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(b, t))
        logits_bytes = b * t * config.vocab_size * 8  # 64 MiB
        # One FFN hidden activation: a floor showing that numpy's arrays are traced.
        hidden_bytes = b * t * FFN_MULTIPLIER * config.d_model * 8
        tracemalloc.start()
        try:
            with no_grad():
                model.forward(ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hidden_bytes <= peak < logits_bytes

    def test_overlong_sequence_rejected(self):
        model = Model(tiny_config(max_seq_len=8))
        with pytest.raises(ValueError):
            model.forward(np.zeros(9, dtype=int))

    def test_out_of_range_token_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError, match="token id 64 at position 1 "):
            model.forward(np.array([0, 64]))
        with pytest.raises(ValueError, match=r"token id -1 at position \(1, 0\) "):
            model.forward(np.array([[0, 1], [-1, 2]]))

    def test_token_id_too_wide_for_64_bits_named(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError, match=r"^token id 1180591620717411303424 at position "
                                             r"\(0, 1\) outside \[0, 64\)$"):
            model.forward([[5, 2**70]])

    @pytest.mark.parametrize("tokens, problem", [
        (np.zeros((1, 2, 3), dtype=int), r"^tokens must be a sequence or batch of sequences, "
                                         r"got shape \(1, 2, 3\)$"),
        (np.zeros(0, dtype=int), "^empty token sequence$"),
        (np.zeros((2, 0), dtype=int), "^empty token sequence$"),
    ], ids=["3d", "empty", "empty_rows"])
    def test_tokens_of_the_wrong_rank_or_empty_rejected(self, tokens, problem):
        with pytest.raises(ValueError, match=problem):
            Model(tiny_config()).forward(tokens)

    def test_non_integer_tokens_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError, match="^token id at position 0 is not an integer: 2.7$"):
            model.forward(np.array([2.7, 3.2]))


class TestParamCount:
    def test_paper_total_within_one_percent(self):
        active, total = param_count(PAPER)
        assert abs(total - 7.46e9) / 7.46e9 < 0.01
        assert 0.17 <= active / total <= 0.20

    def test_single_expert_active_equals_total(self):
        active, total = param_count(tiny_config(n_experts=1))
        assert active == total

    @pytest.mark.parametrize("seed", range(10))
    def test_formula_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        heads = int(rng.integers(1, 4))
        cfg = ModelConfig(n_layers=int(rng.integers(1, 4)) * 2,
                          d_model=heads * int(rng.integers(2, 6)),
                          n_heads=heads,
                          max_seq_len=int(rng.integers(4, 20)),
                          vocab_size=int(rng.integers(16, 200)),
                          n_experts=int(rng.integers(1, 5)),
                          seed=seed)
        model = Model(cfg)
        enumerated = sum(p.data.size for p in model.named_parameters().values())
        active, total = param_count(cfg)
        assert total == enumerated
        assert active <= total

    def test_desk_config_fixed_by_enumeration(self):
        cfg = desk_config()
        model = Model(cfg)
        enumerated = sum(p.data.size for p in model.named_parameters().values())
        assert param_count(cfg)[1] == enumerated


class TestGenerate:
    def test_zero_new_tokens_returns_prompt(self):
        model = Model(tiny_config())
        assert generate(model, [1, 2, 3], 0) == [1, 2, 3]

    def test_greedy_is_reproducible(self):
        model = Model(tiny_config(seed=6))
        a = generate(model, [5, 6], 6, temperature=0.0, seed=1)
        b = generate(model, [5, 6], 6, temperature=0.0, seed=99)
        assert a == b  # greedy ignores the sampling stream

    def test_sampling_deterministic_given_seed(self):
        model = Model(tiny_config(seed=6))
        a = generate(model, [5, 6], 6, temperature=1.0, seed=3)
        b = generate(model, [5, 6], 6, temperature=1.0, seed=3)
        c = generate(model, [5, 6], 6, temperature=1.0, seed=4)
        assert a == b
        assert a != c or a[:2] == [5, 6]

    def test_negative_max_new_tokens_named(self):
        with pytest.raises(ValueError, match="^max_new_tokens must be non-negative, got -1$"):
            generate(Model(tiny_config()), [1, 2], -1)

    def test_budget_overflow_rejected(self):
        model = Model(tiny_config(max_seq_len=8))
        with pytest.raises(ValueError):
            generate(model, [1, 2, 3, 4], 5)

    @pytest.mark.parametrize("prompt, message", [
        ([2.7, 3.2], "position 0 is not an integer: 2.7"),
        ([1, 2.0], "position 1 is not an integer: 2.0"),
        ([1, True], "position 1 is not an integer: True"),
        ([5, "6"], "position 1 is not an integer: '6'"),
        ([1, 64], r"prompt id 64 at position 1 outside \[0, 64\)"),
        ([-1, 3], r"prompt id -1 at position 0 outside \[0, 64\)"),
        ([], "empty prompt"),
        ([5, 2**70], r"prompt id 1180591620717411303424 at position 1 outside \[0, 64\)"),
    ])
    @pytest.mark.parametrize("new_tokens", [0, 2])
    def test_bad_prompt_rejected_before_any_forward(self, prompt, message, new_tokens,
                                                    monkeypatch):
        model = Model(tiny_config())
        calls = []
        monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=message):
            generate(model, prompt, new_tokens)
        assert calls == []

    @pytest.mark.parametrize("prompt, shape", [([[1, 2]], r"\(1, 2\)"), (5, r"\(\)")],
                             ids=["nested", "scalar"])
    def test_prompt_that_is_not_one_sequence_named_by_its_shape(self, prompt, shape, monkeypatch):
        model = Model(tiny_config())
        calls = []
        monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError,
                           match=f"^a prompt is one sequence of ids, got shape {shape}$"):
            generate(model, prompt, 2)
        assert calls == []

    def test_temperature_too_small_for_the_logits_named_before_the_draw(self, monkeypatch):
        model = Model(tiny_config(seed=6))

        class NoDraws:
            def choice(self, *args, **kwargs):
                raise AssertionError("a token was drawn")

        monkeypatch.setattr(model_mod, "default_rng", lambda *args, **kwargs: NoDraws())
        # logits / 1e-320 overflows; a RuntimeWarning would fail this test (warnings are errors)
        with pytest.raises(ValueError, match="temperature 1e-320 is too small: the logits "
                                             "at position 1 divided by it overflow"):
            generate(model, [5, 6], 3, temperature=1e-320)

    def test_numpy_integer_prompt_accepted(self):
        model = Model(tiny_config(seed=6))
        prompt = np.array([5, 6], dtype=np.int32)
        assert generate(model, prompt, 4) == generate(model, [5, 6], 4)

    @pytest.mark.parametrize("prompt_len, new_tokens", [(1, 1), (2, 6), (5, 11)])
    def test_each_position_computed_once(self, prompt_len, new_tokens, monkeypatch):
        # Counts work, not time: re-running the prefix for each new token
        # would pass far more positions than the prompt plus the fed-back tokens.
        model = Model(tiny_config(seed=6))
        positions = []
        forward = Model.forward

        def counting(self, tokens, *args, **kwargs):
            positions.append(np.asarray(tokens).size)
            return forward(self, tokens, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", counting)
        out = generate(model, list(range(1, prompt_len + 1)), new_tokens)
        assert len(out) == prompt_len + new_tokens
        assert sum(positions) == prompt_len + new_tokens - 1
        prefill = [prompt_len - 1] if prompt_len > 1 else []
        assert positions == prefill + [1] * new_tokens

    @pytest.mark.parametrize("prompt_len, new_tokens", [(1, 3), (5, 0), (5, 4)])
    def test_every_logits_array_read_is_one_row(self, prompt_len, new_tokens, monkeypatch):
        # The prefill reads no logits; each step projects only its one new row.
        model = Model(tiny_config(seed=6))
        outputs = []
        forward = Model.forward

        def recording(self, *args, **kwargs):
            outputs.append(forward(self, *args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(Model, "forward", recording)
        generate(model, list(range(1, prompt_len + 1)), new_tokens)
        shapes = [vars(out)["logits"].shape for out in outputs if "logits" in vars(out)]
        assert shapes == [(1, model.config.vocab_size)] * new_tokens
        assert len(outputs) == new_tokens + (prompt_len > 1 and new_tokens > 0)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("config", [tiny_config(seed=6), desk_config(seed=2)],
                             ids=["tiny", "desk"])
    def test_matches_full_forward_reference(self, config, temperature):
        """generate equals the loop it replaced, which re-runs forward on the whole prefix."""
        model = Model(config)
        prompt, new_tokens = [3, 1, 4, 1, 5], config.max_seq_len - 5
        rng = np.random.default_rng(11)
        ids = list(prompt)
        for _ in range(new_tokens):
            with no_grad():
                last = model.forward(np.asarray(ids)).logits.data[-1]
            if temperature == 0.0:
                ids.append(int(last.argmax()))
            else:
                p = np.exp(last / temperature - (last / temperature).max())
                ids.append(int(rng.choice(len(p), p=p / p.sum())))
        assert generate(model, prompt, new_tokens, temperature=temperature, seed=11) == ids

    def test_greedy_matches_one_full_forward_across_query_blocks(self):
        """The prefill of a prompt longer than one query block spans two blocks,
        and the one-query steps run past the next block edge; one full forward
        over the result, three blocks, picks every generated id again."""
        config = tiny_config(max_seq_len=3 * QUERY_BLOCK, seed=4)
        model = Model(config)
        prompt = np.random.default_rng(4).integers(0, config.vocab_size, QUERY_BLOCK + 3).tolist()
        ids = generate(model, prompt, config.max_seq_len - len(prompt))
        with no_grad():
            logits = model.forward(np.asarray(ids[:-1])).logits.data
        assert ids[:len(prompt)] == prompt
        assert ids[len(prompt):] == logits[len(prompt) - 1:].argmax(axis=-1).tolist()


def decode_in_steps(model, tokens, prefill):
    """Logits and per-MoE-layer selections of `tokens`, fed through a KVCache.

    The first `prefill` positions go in one call, then one position per call.
    """
    batched = tokens.ndim == 2
    cache = KVCache(model.config, batch=tokens.shape[0] if batched else 1)
    bounds = [0] + list(range(prefill, tokens.shape[-1] + 1))
    logits, selected = [], []
    with no_grad():
        for start, end in zip(bounds, bounds[1:]):
            out = model.forward(tokens[..., start:end], cache)
            assert cache.length == end
            logits.append(out.logits.data)
            selected.append([st.selected.reshape(-1, end - start) for st in out.moe_stats])
    return (np.concatenate(logits, axis=-2),
            [np.concatenate(layer, axis=1) for layer in zip(*selected)])


class TestKVCache:
    @pytest.mark.parametrize("prefill", [1, 5])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("config", [tiny_config(seed=3), desk_config(seed=1)],
                             ids=["tiny", "desk"])
    def test_cached_decode_matches_full_forward(self, config, batch, prefill):
        model = Model(config)
        rng = np.random.default_rng(batch * 10 + prefill)
        shape = (config.max_seq_len,) if batch == 1 else (batch, config.max_seq_len)
        tokens = rng.integers(0, config.vocab_size, size=shape)
        cached, cached_selected = decode_in_steps(model, tokens, prefill)
        with no_grad():
            full = model.forward(tokens)
        assert cached.shape == full.logits.shape
        assert np.max(np.abs(cached - full.logits.data)) <= 1e-12
        assert len(cached_selected) == len(full.moe_stats) == config.n_layers // 2
        for mine, ref in zip(cached_selected, full.moe_stats):
            assert np.array_equal(mine, ref.selected.reshape(-1, config.max_seq_len))

    def test_pinned_cached_decode_digests(self):
        """Cached-decode logits at batch 1 and 2 and a greedy continuation. The
        logits digests were re-taken when GELU became the tanh form (the greedy
        ids kept theirs), with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; another
        BLAS build may round matrix products differently."""
        def sha(array):
            return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

        model = Model(desk_config(seed=1))
        tokens = np.random.default_rng(5).integers(0, 4096, size=(2, 128))
        assert {
            "batch1": sha(decode_in_steps(model, tokens[0], 16)[0]),
            "batch2": sha(decode_in_steps(model, tokens, 16)[0]),
            "greedy": sha(np.array(generate(model, tokens[0, :16].tolist(), 112))),
        } == {
            "batch1": "e52d0a8ba6d78696b7f4e3d158e7d8c70621d4d624a34c010b531336c270cea2",
            "batch2": "a5557d9008b1a176091c571be469ebee75ac94deee809b75d46acb437408cdd0",
            "greedy": "ec88d0d1ad9f3ef1d1257d6c2b98582049339912c66cd6968a16e575a05136f2",
        }

    @staticmethod
    def prefilled(config, batch=1, length=3):
        model = Model(config)
        cache = KVCache(config, batch)
        with no_grad():
            model.forward(np.arange(batch * length).reshape(batch, length) % 7, cache)
        return model, cache, [a.copy() for a in cache.keys + cache.values]

    @staticmethod
    def assert_untouched(cache, length, snapshot):
        assert cache.length == length
        assert all(np.array_equal(a, b) for a, b in zip(cache.keys + cache.values, snapshot))

    def test_gradients_enabled_rejected(self):
        model, cache, snapshot = self.prefilled(tiny_config())
        with pytest.raises(RuntimeError, match="no_grad"):
            model.forward(np.array([[1]]), cache)
        self.assert_untouched(cache, 3, snapshot)

    def test_overflow_names_cache_length_and_new_positions(self):
        model, cache, snapshot = self.prefilled(tiny_config(), length=14)
        with no_grad(), pytest.raises(
                ValueError, match="cache length 14 \\+ sequence length 3 exceeds max_seq_len 16"):
            model.forward(np.array([[1, 2, 3]]), cache)
        self.assert_untouched(cache, 14, snapshot)
        with no_grad():
            model.forward(np.array([[1, 2]]), cache)
        assert cache.length == 16

    @pytest.mark.parametrize("overrides, batch", [(dict(n_layers=4), 1), (dict(d_model=32), 1),
                                                  ({}, 2)])
    def test_cache_for_another_shape_rejected(self, overrides, batch):
        _, cache, snapshot = self.prefilled(tiny_config(**overrides), batch=batch)
        with no_grad(), pytest.raises(ShapeError, match="this call needs 2 layers of shape"):
            Model(tiny_config()).forward(np.array([[1]]), cache)
        self.assert_untouched(cache, 3, snapshot)

    def test_failed_forward_leaves_length_and_cache_usable(self, monkeypatch):
        cfg = tiny_config(seed=5)
        model, cache, _ = self.prefilled(cfg)
        moe_forward = model_mod.moe_forward

        def failing(*args):
            raise FloatingPointError("expert failed")

        monkeypatch.setattr(model_mod, "moe_forward", failing)
        with no_grad(), pytest.raises(FloatingPointError):
            model.forward(np.array([[9, 9]]), cache)  # layer 0 writes rows 3..4 first
        assert cache.length == 3
        monkeypatch.setattr(model_mod, "moe_forward", moe_forward)
        with no_grad():
            resumed = model.forward(np.array([[4, 8]]), cache).logits.data
            full = model.forward(np.array([[0, 1, 2, 4, 8]])).logits.data
        assert cache.length == 5
        assert np.max(np.abs(resumed - full[:, 3:])) <= 1e-12
