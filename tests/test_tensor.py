"""Tensor engine: op-level oracles plus finite-difference gradient checks."""

import math

import numpy as np
import pytest

from moelab.errors import ShapeError
from moelab.optim import AdamState, adam_step, clip_global_norm
from moelab.tensor import (Tensor, concat, cross_entropy, embedding, gelu, grad_check,
                           layer_norm, no_grad, set_debug_checks, softmax)


def matmul_oracle(a, b):
    """Naive triple loop, independent of the numpy path under test."""
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i][j] += a[i][t] * b[t][j]
    return np.array(out)


def central_diff(f, x, h=1e-5):
    """Finite-difference gradient of scalar f at numpy point x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = a @ Tensor(np.eye(2))
        assert np.array_equal(out.data, a.data)

    def test_against_triple_loop(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        out = Tensor(a) @ Tensor(b)
        assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))
        assert np.array_equal(out.data, matmul_oracle(a, b))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_against_triple_loop(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, matmul_oracle(a.tolist(), b.tolist()), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 2)))

    def test_batched(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(2, 3, 5, 6))
        out = Tensor(a) @ Tensor(b)
        assert np.allclose(out.data, a @ b)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_closed_form(self):
        out = softmax(Tensor([math.log(2.0), 0.0]))
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_large_values_stabilized(self):
        out = softmax(Tensor([3.0, 1003.0]))
        assert np.isfinite(out.data).all()
        assert abs(out.data.sum() - 1.0) < 1e-9

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.normal(scale=5.0, size=rng.integers(1, 9))
            p = softmax(Tensor(v)).data
            assert abs(p.sum() - 1.0) < 1e-9
            assert ((p > 0) & (p < 1 + 1e-12)).all()
            shifted = softmax(Tensor(v + rng.normal(scale=50.0))).data
            assert np.allclose(p, shifted, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.zeros(0)))


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(gelu(Tensor(10.0)).item() - 10.0) < 1e-6

    def test_gaussian_cdf_oracle(self):
        # Phi(1) from scipy.stats.norm.cdf(1.0)
        assert abs(gelu(Tensor(1.0)).item() - 0.8413447460685429) < 1e-12


class TestLayerNorm:
    def test_constant_row_eps_guard(self):
        out = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_hand_normalization(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), 0.0)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-12)

    def test_zero_gain_yields_bias(self):
        bias = np.array([1.0, 2.0, 3.0])
        out = layer_norm(Tensor(np.random.default_rng(0).normal(size=(4, 3))),
                         Tensor(np.zeros(3)), Tensor(bias), 1e-5)
        assert np.allclose(out.data, np.broadcast_to(bias, (4, 3)), atol=1e-12)

    def test_normalizes_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 16)) * 3 + 1
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), 1e-12)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        loss = cross_entropy(Tensor(np.zeros((3, 4096))), np.zeros(3, dtype=int))
        assert abs(loss.item() - math.log(4096)) < 1e-9

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 8))
        logits[0, 2] = 50.0
        assert cross_entropy(Tensor(logits), [2]).item() < 1e-9

    def test_hand_value(self):
        loss = cross_entropy(Tensor([[1.0, 2.0]]), [0])
        assert abs(loss.item() - 1.3132616875182228) < 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            logits = rng.normal(size=(4, 7))
            targets = rng.integers(0, 7, size=4)
            assert cross_entropy(Tensor(logits), targets).item() >= 0.0

    def test_out_of_range_target_names_index(self):
        with pytest.raises(ValueError, match="position 1"):
            cross_entropy(Tensor(np.zeros((3, 4))), [0, 9, 1])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_matmul_chain_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return ((a @ b) * (a @ b)).sum()

        err = grad_check(loss, [a, b], h=1e-5, samples=20, seed=0)
        assert err < 1e-4

    def test_softmax_cross_entropy_gradient_closed_form(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        targets = rng.integers(0, 7, size=5)
        cross_entropy(logits, targets).backward()
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[np.arange(5), targets] -= 1.0
        assert np.allclose(logits.grad, p / 5, atol=1e-8)

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_gradients_accumulate_until_reset(self):
        x = Tensor([2.0], requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        assert np.array_equal(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert not y.requires_grad


OPS = {
    "add_mul": lambda ts: ((ts[0] + ts[1]) * ts[0]).sum(),
    "matmul": lambda ts: (ts[0] @ ts[1].transpose()).sum(),
    "gelu": lambda ts: gelu(ts[0] @ ts[1].transpose()).sum(),
    "softmax": lambda ts: (softmax(ts[0], axis=-1) * ts[1]).sum(),
    "mean_div": lambda ts: ((ts[0] / (ts[1] ** 2 + 1.0)).mean() * 3.0),
    "exp_log": lambda ts: ((ts[0] ** 2 + 1.0).log() + (ts[1] * 0.3).exp()).sum(),
    "tanh": lambda ts: (ts[0].tanh() * ts[1]).mean(),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(op, seed):
    rng = np.random.default_rng(seed * 101 + 17)
    shape = tuple(rng.integers(2, 5, size=2))
    ts = [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2)]
    err = grad_check(lambda: OPS[op](ts), ts, h=1e-5, samples=16, seed=seed)
    assert err < 1e-4, f"{op} grad error {err}"


@pytest.mark.parametrize("seed", range(4))
def test_layer_norm_gradients_match_finite_differences(seed):
    # d >= 3: at d == 2 the normalized row is pinned to +-1, the true input
    # gradient collapses toward zero, and relative FD comparison degenerates
    rng = np.random.default_rng(seed + 40)
    d = int(rng.integers(3, 7))
    x = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    gain = Tensor(rng.normal(size=d) + 1.0, requires_grad=True)
    bias = Tensor(rng.normal(size=d), requires_grad=True)

    def loss():
        return (layer_norm(x, gain, bias, 1e-5) ** 2).sum()

    assert grad_check(loss, [x, gain, bias], h=1e-5, samples=24, seed=seed) < 1e-4


def test_gather_scatter_embedding_gradients():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([1, 1, 4, 0])

    def loss():
        e = embedding(w, ids)                   # id 1 looked up twice
        rows = e[np.array([0, 2, 0])]           # fancy rows, row 0 picked twice
        s = concat([rows * 2.0, e[1:3]])        # slice
        picked = s[np.array([1, 3, 4]), np.array([0, 2, 1])]  # (row, col) pairs
        return (s ** 2).sum() + picked.sum()

    assert grad_check(loss, [w], h=1e-5, samples=18, seed=2) < 1e-4


def test_reshape_transpose_gradients():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def loss():
        return (x.transpose((1, 0, 2)).reshape(3, 8) ** 2).sum()

    assert grad_check(loss, [x], h=1e-5, samples=12, seed=0) < 1e-6


class TestGradCheck:
    def test_exact_quadratic(self):
        theta = Tensor([1.0, 2.0], requires_grad=True)
        err = grad_check(lambda: (theta * theta).sum(), [theta], h=1e-5, samples=4)
        assert err < 1e-8

    def test_zero_step_rejected(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: theta.sum(), [theta], h=0.0)

    def test_non_finite_objective_rejected(self):
        theta = Tensor([1000.0], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            grad_check(lambda: theta.exp().sum(), [theta], h=1e-5)


def test_debug_checks_flag_non_finite():
    set_debug_checks(True)
    try:
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            Tensor([800.0]).exp().exp()
    finally:
        set_debug_checks(False)


class TestAdam:
    @staticmethod
    def _params(values):
        return {f"p{i}": Tensor(np.asarray(v, dtype=float), requires_grad=True)
                for i, v in enumerate(values)}

    def test_zero_gradient_leaves_params_unchanged(self):
        params = self._params([[1.0, -2.0]])
        params["p0"].grad = np.zeros(2)
        state = AdamState(params)
        adam_step(params, state, lr=0.1)
        assert np.array_equal(params["p0"].data, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_moves_by_lr_sign(self):
        # with bias correction, step 1 update is exactly -lr * g / (|g| + eps')
        params = self._params([[1.0, 1.0]])
        params["p0"].grad = np.array([0.5, -3.0])
        state = AdamState(params)
        adam_step(params, state, lr=0.01)
        moved = params["p0"].data - 1.0
        assert np.all(np.abs(moved - (-0.01 * np.sign([0.5, -3.0]))) < 0.01 * 1e-6)

    def test_identical_gradients_identical_updates(self):
        params = self._params([[1.0], [1.0]])
        params["p0"].grad = np.array([0.7])
        params["p1"].grad = np.array([0.7])
        state = AdamState(params)
        adam_step(params, state, lr=0.05)
        assert params["p0"].data[0] == params["p1"].data[0]

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            params = self._params([np.linspace(-1, 1, 7)])
            params["p0"].grad = np.sin(np.arange(7.0))
            state = AdamState(params)
            for _ in range(5):
                adam_step(params, state, lr=0.003)
            results.append(params["p0"].data.copy())
        assert np.array_equal(results[0], results[1])

    def test_step_counter_increments_by_one(self):
        params = self._params([[0.0]])
        state = AdamState(params)
        for expected in (1, 2, 3):
            params["p0"].grad = np.array([1.0])
            adam_step(params, state, lr=0.1)
            assert state.step == expected

    def test_shape_mismatch_rejected(self):
        params = self._params([[1.0, 2.0]])
        state = AdamState(params)
        params["p0"].grad = np.zeros(3)
        with pytest.raises(ShapeError):
            adam_step(params, state, lr=0.1)


def test_clip_global_norm_scales_to_bound():
    params = {"a": Tensor(np.zeros(2), requires_grad=True),
              "b": Tensor(np.zeros(1), requires_grad=True)}
    params["a"].grad = np.array([3.0, 0.0])
    params["b"].grad = np.array([4.0])
    norm = clip_global_norm(params, 1.0)
    assert abs(norm - 5.0) < 1e-12
    joint = np.concatenate([params["a"].grad, params["b"].grad])
    assert abs(np.linalg.norm(joint) - 1.0) < 1e-12
