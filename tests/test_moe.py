"""MoE layer: gating math, top-1 routing, the balance loss, gradient structure."""

import math

import numpy as np
import pytest

from moelab.errors import ShapeError
from moelab.moe import FeedForward, MoeLayer, combine, ffn_forward, gate, moe_forward
from moelab.tensor import Tensor, grad_check, no_grad


def make_ffn(rng, d, hidden):
    return FeedForward(w1=Tensor(rng.normal(0, 0.2, (d, hidden)), requires_grad=True),
                       b1=Tensor(np.zeros(hidden), requires_grad=True),
                       w2=Tensor(rng.normal(0, 0.2, (hidden, d)), requires_grad=True),
                       b2=Tensor(np.zeros(d), requires_grad=True))


def make_layer(rng, d=4, n_experts=3, hidden=None):
    hidden = hidden or 4 * d
    return MoeLayer(gate_weight=Tensor(rng.normal(0, 0.5, (n_experts, d)), requires_grad=True),
                    experts=[make_ffn(rng, d, hidden) for _ in range(n_experts)])


class TestGate:
    def test_zero_weights_give_uniform(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        probs = gate(x, Tensor(np.zeros((3, 4))))
        assert np.allclose(probs.data, 1 / 3, atol=1e-12)

    def test_single_expert_prob_one(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
        probs = gate(x, Tensor(np.zeros((1, 2))))
        assert np.array_equal(probs.data, np.ones((4, 1)))

    def test_hand_softmax(self):
        x = Tensor([[1.0, 0.0]])
        w = Tensor([[math.log(2.0), 0.0], [0.0, 0.0]])
        probs = gate(x, w)
        assert np.allclose(probs.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            gate(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def routed(x, layer):
    """moe_forward onto a zero residual: its output is the combined expert rows, bitwise."""
    return moe_forward(x, layer, Tensor(np.zeros(x.shape)))


def route_probs(probs):
    """Run moe_forward on one-hot token rows through a gate whose softmax
    reproduces `probs` row for row, ties included."""
    probs = np.asarray(probs, dtype=float)
    n_tokens, n_experts = probs.shape
    layer = make_layer(np.random.default_rng(12), d=n_tokens, n_experts=n_experts)
    layer.gate_weight.data = np.log(probs).T.copy()
    _, stats = routed(Tensor(np.eye(n_tokens)), layer)
    return stats


def reference_balance(x, layer, selected):
    """N * dot(P, f) in plain numpy: P the mean gate probability, f the token shares."""
    probs = gate(Tensor(x), layer.gate_weight).data
    fraction = np.bincount(selected, minlength=layer.n_experts) / len(x)
    return layer.n_experts * float(np.dot(probs.mean(axis=0), fraction))


class TestRoute:
    def test_argmax(self):
        stats = route_probs([[0.1, 0.7, 0.2]])
        assert stats.selected.tolist() == [1]
        assert stats.token_fraction.tolist() == [0.0, 1.0, 0.0]

    def test_tie_breaks_to_lowest_index(self):
        stats = route_probs([[0.5, 0.5]])
        assert stats.selected.tolist() == [0]

    def test_single_expert(self):
        stats = route_probs(np.ones((6, 1)))
        assert (stats.selected == 0).all()
        assert stats.token_fraction.tolist() == [1.0]


class TestLoadBalanceStats:
    def test_all_tokens_to_one_expert(self):
        stats = route_probs(np.tile([0.9, 0.1], (4, 1)))
        assert np.array_equal(stats.token_fraction, [1.0, 0.0])
        assert abs(stats.balance_loss - 2 * 0.9) < 1e-12

    def test_alternating_uniform(self):
        # uniform mean probability, tokens alternate between the two experts
        stats = route_probs([[0.6, 0.4], [0.4, 0.6], [0.6, 0.4], [0.4, 0.6]])
        assert stats.selected.tolist() == [0, 1, 0, 1]
        assert np.allclose(stats.token_fraction, [0.5, 0.5])
        assert abs(stats.balance_loss - 1.0) < 1e-12

    def test_single_expert(self):
        stats = route_probs(np.ones((3, 1)))
        assert stats.token_fraction.tolist() == [1.0] and stats.balance_loss == 1.0

    def test_no_tokens_rejected(self):
        with pytest.raises(ValueError):
            routed(Tensor(np.zeros((0, 4))), make_layer(np.random.default_rng(0), d=4))


class TestAuxLoss:
    """The Switch auxiliary balance loss as moe_forward computes it, against
    N * dot(P, f) in plain numpy."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_uniform_is_one(self, n):
        # token i prefers expert i, and every expert's mean probability is 1/n
        probs = np.full((n, n), 0.5 / n) + np.eye(n) * 0.5
        stats = route_probs(probs)
        assert stats.selected.tolist() == list(range(n))
        assert abs(stats.balance_loss - 1.0) < 1e-12

    def test_one_hot_is_n(self):
        rng = np.random.default_rng(14)
        layer = make_layer(rng, d=4, n_experts=4)
        layer.gate_weight.data[:] = -50.0
        layer.gate_weight.data[2] = 50.0
        x = np.abs(rng.normal(size=(9, 4))) + 0.5
        _, stats = routed(Tensor(x), layer)
        assert (stats.selected == 2).all()
        assert stats.balance_loss == reference_balance(x, layer, stats.selected) == 4.0

    def test_hand_dot_product(self):
        # mean probabilities [0.6, 0.4]; 7 of 10 tokens pick expert 0
        stats = route_probs([[0.75, 0.25]] * 7 + [[0.25, 0.75]] * 3)
        assert np.allclose(stats.token_fraction, [0.7, 0.3], atol=1e-15)
        assert abs(stats.balance_loss - 2 * (0.6 * 0.7 + 0.4 * 0.3)) < 1e-12
        assert abs(stats.balance_loss - 1.08) < 1e-12

    def test_random_layers_match_numpy_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            layer = make_layer(rng, d=5, n_experts=n)
            x = rng.normal(size=(int(rng.integers(1, 30)), 5))
            _, stats = routed(Tensor(x), layer)
            want = reference_balance(x, layer, stats.selected)
            assert abs(stats.balance_loss - want) <= 1e-12 * want
            assert 0.0 < stats.balance_loss <= n + 1e-12
            assert stats.balance_loss == stats.balance.item()


class TestLazyBalance:
    """The balance node is built from the kept gate probabilities on first read."""

    def test_built_on_first_read_then_kept(self):
        rng = np.random.default_rng(20)
        layer = make_layer(rng, d=4, n_experts=3)
        x = rng.normal(size=(9, 4))
        with no_grad():
            _, stats = routed(Tensor(x), layer)
        assert "balance" not in vars(stats)
        first = stats.balance
        assert stats.balance is first
        assert abs(stats.balance_loss - reference_balance(x, layer, stats.selected)) < 1e-12

    def test_recorded_exactly_when_the_gate_probabilities_were(self):
        rng = np.random.default_rng(21)
        layer = make_layer(rng, d=4, n_experts=3)
        x = rng.normal(size=(9, 4))
        _, tracked = routed(Tensor(x), layer)
        with no_grad():
            _, untracked = routed(Tensor(x), layer)
            node = tracked.balance  # read in no_grad, recorded as the forward was
        assert not untracked.balance.requires_grad
        assert node.item() == untracked.balance.item()
        node.backward()
        assert np.abs(layer.gate_weight.grad).max() > 0


class TestMoeForward:
    def test_single_expert_bitwise_equals_dense(self):
        rng = np.random.default_rng(3)
        layer = make_layer(rng, d=5, n_experts=1)
        for _ in range(10):
            x = Tensor(rng.normal(size=(7, 5)))
            y, stats = routed(x, layer)
            dense = ffn_forward(x, layer.experts[0])
            assert np.array_equal(y.data, dense.data)
            assert stats.balance_loss == 1.0

    def test_uniform_gate_scales_identical_experts(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, d=4, n_experts=4)
        for ex in layer.experts[1:]:  # make every expert identical to expert 0
            ex.w1.data = layer.experts[0].w1.data.copy()
            ex.b1.data = layer.experts[0].b1.data.copy()
            ex.w2.data = layer.experts[0].w2.data.copy()
            ex.b2.data = layer.experts[0].b2.data.copy()
        layer.gate_weight.data[:] = 0.0
        x = Tensor(rng.normal(size=(6, 4)))
        y, stats = routed(x, layer)
        expected = ffn_forward(x, layer.experts[0]).data * 0.25
        assert np.allclose(y.data, expected, atol=1e-15)
        assert (stats.selected == 0).all()  # uniform probs tie-break to expert 0

    def test_matches_dense_evaluation_oracle(self):
        # reference path evaluates every expert densely in plain numpy, then
        # selects the argmax column per token and scales by its probability
        rng = np.random.default_rng(5)
        layer = make_layer(rng, d=2, n_experts=2)
        x = rng.normal(size=(9, 2))
        y, stats = routed(Tensor(x), layer)

        logits = x @ layer.gate_weight.data.T
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = z / z.sum(axis=1, keepdims=True)
        chosen = probs.argmax(axis=1)
        expected = np.zeros_like(x)
        for t in range(x.shape[0]):
            ex = layer.experts[chosen[t]]
            h = x[t] @ ex.w1.data + ex.b1.data
            h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (h + 0.044715 * h**3)))
            expected[t] = (h @ ex.w2.data + ex.b2.data) * probs[t, chosen[t]]
        assert np.allclose(y.data, expected, atol=1e-12)
        assert np.array_equal(stats.selected, chosen)

    def test_every_token_routed_exactly_once(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            layer = make_layer(rng, d=3, n_experts=int(rng.integers(1, 6)))
            x = Tensor(rng.normal(size=(int(rng.integers(1, 12)), 3)))
            _, stats = routed(x, layer)
            assert stats.selected.shape == (x.shape[0],)
            counts = np.bincount(stats.selected, minlength=layer.n_experts)
            assert len(counts) == layer.n_experts and counts.sum() == x.shape[0]
            assert abs(stats.token_fraction.sum() - 1.0) < 1e-9
            probs = gate(x, layer.gate_weight)
            assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)
            assert 0.0 < stats.balance_loss <= layer.n_experts + 1e-12

    def test_gradients_pass_finite_difference_check(self):
        rng = np.random.default_rng(7)
        layer = make_layer(rng, d=3, n_experts=2, hidden=5)
        x = rng.normal(size=(6, 3))
        params = [layer.gate_weight]
        for ex in layer.experts:
            params += [ex.w1, ex.b1, ex.w2, ex.b2]

        def loss():
            y, stats = routed(Tensor(x), layer)
            return (y * y).sum() + stats.balance * 0.01

        assert grad_check(loss, params, h=1e-5, samples=60, seed=1) < 1e-4

    @pytest.mark.parametrize("skew", ["one_expert_idle", "all_to_one_expert"])
    def test_row_permutation_permutes_output_and_selection(self, skew):
        rng = np.random.default_rng(13)
        # narrow on purpose: with wide inner dimensions BLAS may round a row
        # differently depending on where it sits in the matrix
        layer = make_layer(rng, d=4, n_experts=4)
        x = rng.normal(size=(23, 4))
        x[:, 0] = 1.0  # a constant feature lets the gate favour or starve experts
        if skew == "one_expert_idle":
            layer.gate_weight.data[3, 0] = -10.0
        else:
            layer.gate_weight.data[0, 0] = 10.0
            layer.gate_weight.data[1:, 0] = -10.0
        y, stats = routed(Tensor(x), layer)
        counts = np.bincount(stats.selected, minlength=4)
        if skew == "one_expert_idle":
            assert counts[3] == 0 and (counts > 0).sum() >= 2
        else:
            assert counts[0] == len(x)
        perm = rng.permutation(len(x))
        y_perm, stats_perm = routed(Tensor(x[perm]), layer)
        assert np.array_equal(y_perm.data, y.data[perm])
        assert np.array_equal(stats_perm.selected, stats.selected[perm])

    def test_unselected_expert_gets_no_gradient(self):
        rng = np.random.default_rng(9)
        layer = make_layer(rng, d=3, n_experts=2)
        layer.gate_weight.data[0, :] = 5.0   # push every token to expert 0
        layer.gate_weight.data[1, :] = -5.0
        x = Tensor(np.abs(rng.normal(size=(5, 3))))
        y, stats = routed(x, layer)
        assert (stats.selected == 0).all()
        (y * y).sum().backward()
        assert layer.experts[0].w1.grad is not None
        assert layer.experts[1].w1.grad is None
        assert layer.experts[1].w2.grad is None

    def test_balance_loss_gradient_skips_expert_weights(self):
        # the token fraction is constant in the backward pass, so the balance
        # term reaches only the gate weights
        rng = np.random.default_rng(10)
        layer = make_layer(rng, d=3, n_experts=3)
        x = Tensor(rng.normal(size=(8, 3)))
        _, stats = routed(x, layer)
        stats.balance.backward()
        assert layer.gate_weight.grad is not None
        assert np.abs(layer.gate_weight.grad).max() > 0
        for ex in layer.experts:
            assert ex.w1.grad is None and ex.w2.grad is None

    def test_balance_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        layer = make_layer(rng, d=4, n_experts=3)
        x = rng.normal(size=(10, 4))

        def loss():
            return routed(Tensor(x), layer)[1].balance

        # only the gate weight is differentiable here; token assignments are
        # locally constant almost everywhere so FD stays clean
        assert grad_check(loss, [layer.gate_weight], h=1e-6, samples=12, seed=3) < 1e-4


class TestCombine:
    """The node that puts expert runs back in token order, scaled by gate probability."""

    SELECTED = np.array([2, 0, 2, 2, 0, 3, 2])  # expert 1 gets no token
    ORDER = np.argsort(SELECTED, kind="stable")

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        counts = np.bincount(self.SELECTED, minlength=4)
        runs = [Tensor(rng.normal(size=(c, 3)), requires_grad=True) for c in counts if c]
        probs = Tensor(rng.uniform(0.1, 1.0, size=(len(self.SELECTED), 4)), requires_grad=True)
        residual = Tensor(rng.normal(size=(len(self.SELECTED), 3)), requires_grad=True)
        return runs, probs, residual

    def test_scatters_to_token_order_and_scales_bitwise(self):
        runs, probs, residual = self.inputs(30)
        out = combine(runs, self.ORDER, probs, self.SELECTED, residual)
        stacked = np.concatenate([r.data for r in runs])
        rows = np.arange(len(self.SELECTED))
        scaled = stacked[np.argsort(self.ORDER)] * probs.data[rows, self.SELECTED][:, None]
        assert np.array_equal(out.data, residual.data + scaled)

    def test_output_takes_the_residual_shape(self):
        runs, probs, residual = self.inputs(32)
        flat = combine(runs, self.ORDER, probs, self.SELECTED, residual)
        shaped = combine(runs, self.ORDER, probs, self.SELECTED, residual.reshape(1, 7, 3))
        assert shaped.shape == (1, 7, 3) and np.array_equal(shaped.data[0], flat.data)
        with pytest.raises(ShapeError, match="must hold 7 rows of width 3, got shape"):
            combine(runs, self.ORDER, probs, self.SELECTED, Tensor(np.zeros((7, 4))))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences_with_an_idle_expert(self, seed):
        runs, probs, residual = self.inputs(31 + seed)
        weights = np.random.default_rng(seed).normal(size=(len(self.SELECTED), 3))

        def loss():
            return (combine(runs, self.ORDER, probs, self.SELECTED, residual) * weights).sum()

        assert grad_check(loss, [*runs, probs, residual], h=1e-5, samples=60, seed=seed) < 1e-6
        loss().backward()
        picked = np.zeros(probs.shape, dtype=bool)
        picked[np.arange(len(self.SELECTED)), self.SELECTED] = True
        assert (probs.grad[~picked] == 0).all() and (probs.grad[picked] != 0).all()

    def test_moe_forward_gradients_with_an_idle_expert(self):
        rng = np.random.default_rng(15)
        layer = make_layer(rng, d=4, n_experts=3, hidden=6)
        x = rng.normal(size=(12, 4))
        x[:, 0] = 1.0
        layer.gate_weight.data[2, 0] = -10.0  # expert 2 starves
        _, stats = routed(Tensor(x), layer)
        assert stats.token_fraction[2] == 0 and (stats.token_fraction[:2] > 0).all()
        params = [layer.gate_weight] + [p for ex in layer.experts[:2]
                                        for p in (ex.w1, ex.b1, ex.w2, ex.b2)]

        def loss():
            y, stats = routed(Tensor(x), layer)
            return (y * y).sum() + stats.balance * 0.01

        assert grad_check(loss, params, h=1e-5, samples=60, seed=2) < 1e-4
