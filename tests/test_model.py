"""Decoder model: placement, causality, determinism, parameter accounting."""

import json
import math

import numpy as np
import pytest

from moelab.errors import ConfigError
from moelab.model import (Model, ModelConfig, desk_config, generate,
                          moe_layer_indices, paper_config, param_count)
from moelab.tensor import no_grad


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

    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(alpha=0.02, gelu_variant="tanh")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ModelConfig.load(str(path)) == cfg

    def test_paper_reference_instantiation(self):
        cfg = paper_config()
        assert (cfg.n_layers, cfg.d_model, cfg.n_heads) == (24, 2048, 16)
        assert (cfg.max_seq_len, cfg.vocab_size, cfg.n_experts) == (2048, 100_000, 16)
        assert cfg.alpha == 0.01


class TestPlacement:
    def test_paper_config_has_twelve_moe_layers(self):
        assert len(moe_layer_indices(paper_config())) == 12

    def test_four_layers_moe_at_one_and_three(self):
        assert moe_layer_indices(tiny_config(n_layers=4)) == [1, 3]

    def test_even_placement(self):
        assert moe_layer_indices(tiny_config(n_layers=4, moe_placement="even")) == [0, 2]

    def test_forward_reports_half_the_layers(self):
        model = Model(tiny_config(n_layers=4))
        out = model.forward(np.arange(6))
        assert len(out.moe_stats) == 2
        assert len(out.balance_losses) == 2


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

    def test_random_init_loss_near_log_vocab(self):
        from moelab.tensor import cross_entropy
        model = Model(tiny_config(vocab_size=512, max_seq_len=32, seed=7))
        rng = np.random.default_rng(1)
        toks = rng.integers(0, 512, size=33)
        with no_grad():
            out = model.forward(toks[:-1])
        loss = cross_entropy(out.logits, toks[1:]).item()
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

    def test_overlong_sequence_rejected(self):
        model = Model(tiny_config(max_seq_len=8))
        with pytest.raises(ValueError):
            model.forward(np.zeros(9, dtype=int))

    def test_out_of_range_token_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(ValueError):
            model.forward(np.array([0, 64]))


class TestParamCount:
    def test_paper_total_within_one_percent(self):
        active, total = param_count(paper_config())
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
                          ffn_multiplier=int(rng.integers(1, 5)),
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

    def test_budget_overflow_rejected(self):
        model = Model(tiny_config(max_seq_len=8))
        with pytest.raises(ValueError):
            generate(model, [1, 2, 3, 4], 5)
