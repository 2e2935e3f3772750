"""Tensor engine: op-level oracles plus finite-difference gradient checks."""

import ast
import hashlib
import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from moelab.errors import GraphConsumedError, ShapeError
from moelab.model import Model, attention, desk_config, generate
from moelab.optim import CLIP_NORM, AdamState, adam_step, clip_global_norm
from moelab.moe import combine
from moelab.optim import BETA1, BETA2, EPS
from moelab.tensor import (LN_EPS, Tensor, check_ids, cross_entropy, embedding, feed_forward,
                           grad_check, layer_norm, linear, no_grad, softmax)
from moelab.tokenizer import Tokenizer
from moelab.trainer import total_loss


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


def square_sum(t):
    return (t * t).sum()


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = linear(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_against_triple_loop(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        out = linear(Tensor(a), Tensor(b))
        assert np.array_equal(out.data, np.array([[19.0, 22.0], [43.0, 50.0]]))
        assert np.array_equal(out.data, matmul_oracle(a, b))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_against_triple_loop(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = linear(Tensor(a), Tensor(b))
        assert np.allclose(out.data, matmul_oracle(a.tolist(), b.tolist()), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


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


def gelu_formula(x):
    """The tanh-form GELU as one plain expression."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def identity_ffn(x):
    """feed_forward through identity weights and zero biases: both GEMMs are
    exact there, so the output is its GELU, x * phi(x), bitwise."""
    n = x.shape[-1]
    eye, zero = Tensor(np.eye(n)), Tensor(np.zeros(n))
    return feed_forward(x, eye, zero, eye, zero)


def gelu(x):
    """The GELU of a numpy array of any shape, through identity_ffn one value per row."""
    x = np.asarray(x, dtype=float)
    return identity_ffn(Tensor(x.reshape(-1, 1))).data.reshape(x.shape)


class TestGelu:
    """GELU through feed_forward with identity weights (identity_ffn)."""

    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_asymptote(self):
        assert abs(gelu(10.0) - 10.0) < 1e-6

    def test_tanh_form_oracle(self):
        # 0.8411919906082768 by the formula; exact GELU's Phi(1) is 0.8413447460685429
        assert abs(gelu(1.0) - gelu_formula(1.0)) < 1e-15

    @pytest.mark.parametrize("x", [np.linspace(-8.0, 8.0, 4001), np.array(-1.7), np.array(2.3)],
                             ids=["grid", "0-d negative", "0-d positive"])
    def test_in_place_form_matches_the_plain_formula(self, x):
        # not bitwise: the in-place form folds the constants in another order
        got = gelu(x)
        assert got.shape == x.shape
        assert np.abs(got - gelu_formula(x)).max() <= 1e-15

    def test_within_5e_4_of_exact_gelu(self):
        from scipy.stats import norm
        x = np.linspace(-6.0, 6.0, 4001)
        diff = np.abs(gelu(x) - x * norm.cdf(x)).max()
        assert 1e-4 < diff < 5e-4  # the approximation is real, and small

    def test_identity_weights_of_any_width_give_the_same_bits(self):
        x = np.random.default_rng(59).normal(scale=3.0, size=(2, 3, 5))
        assert np.array_equal(identity_ffn(Tensor(x)).data, gelu(x))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_finite_differences_out_to_4(self, seed):
        rng = np.random.default_rng(seed + 60)
        x = Tensor(rng.uniform(-4.0, 4.0, size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)))
        assert grad_check(lambda: (identity_ffn(x) * w).sum(), [x], samples=15, seed=seed) < 1e-6


class TestFeedForward:
    def test_equals_the_unfused_products_bitwise(self):
        rng = np.random.default_rng(61)
        x, w1, b1, w2, b2 = (rng.normal(size=s) for s in [(2, 3, 4), (4, 6), (6,), (6, 5), (5,)])
        want = gelu(x.reshape(6, 4) @ w1 + b1) @ w2 + b2
        got = feed_forward(*map(Tensor, (x, w1, b1, w2, b2))).data
        assert got.shape == (2, 3, 5)
        assert np.array_equal(got.reshape(6, 5), want)

    @pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
    def test_gradients_match_finite_differences(self, lead):
        rng = np.random.default_rng(62 + len(lead))
        shapes = [lead + (4,), (4, 6), (6,), (6, 3), (3,)]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        weights = rng.normal(size=lead + (3,))

        def loss():
            return (feed_forward(*params) * weights).sum()

        assert grad_check(loss, params, h=1e-5, samples=60, seed=len(lead)) < 1e-4

    def test_shape_errors_name_every_shape(self):
        x, w1, b1, w2, b2 = (Tensor(np.ones(s)) for s in [(2, 4), (4, 6), (6,), (6, 3), (3,)])
        with pytest.raises(ShapeError,
                           match=r"got \(2, 4\), \(4, 6\), \(5,\), \(6, 3\) and \(3,\)"):
            feed_forward(x, w1, Tensor(np.ones(5)), w2, b2)
        with pytest.raises(ShapeError, match=r"got \(2, 3\), \(4, 6\)"):
            feed_forward(Tensor(np.ones((2, 3))), w1, b1, w2, b2)
        with pytest.raises(ShapeError, match=r"\(5, 3\) and \(3,\)$"):
            feed_forward(x, w1, b1, Tensor(np.ones((5, 3))), b2)


class TestLayerNorm:
    def test_constant_row_eps_guard(self):
        out = layer_norm(Tensor([[4.0, 4.0, 4.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_hand_normalization(self):
        out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # mean 2, variance 1
        assert np.allclose(out.data, [[-1.0, 1.0]] / np.sqrt(1.0 + LN_EPS), atol=1e-12)

    def test_zero_gain_yields_bias(self):
        bias = np.array([1.0, 2.0, 3.0])
        out = layer_norm(Tensor(np.random.default_rng(0).normal(size=(4, 3))),
                         Tensor(np.zeros(3)), Tensor(bias))
        assert np.allclose(out.data, np.broadcast_to(bias, (4, 3)), atol=1e-12)

    def test_normalizes_rows(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 16)) * 3 + 1
        out = layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)))
        var = x.var(axis=-1)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.data.var(axis=-1), var / (var + LN_EPS), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_bitwise_equal_to_the_mean_formula(self):
        rng = np.random.default_rng(8)
        x, gain, bias = rng.normal(size=(3, 5, 128)) * 2 + 1, rng.normal(size=128), rng.normal(size=128)
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        want = (x - mu) * (1.0 / np.sqrt(var + LN_EPS)) * gain + bias
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        assert np.array_equal(got.data, want)


def logits_loss(logits, targets):
    """cross_entropy with the given (..., V) logits: x holds them and weight is the
    (V, V) identity, so x @ weight^T reproduces them exactly."""
    logits = np.asarray(logits, dtype=float)
    return cross_entropy(Tensor(logits), Tensor(np.eye(logits.shape[-1])), targets)


def reference_logits_loss(logits, targets):
    """Softmax-NLL on a logits node, as a separate (..., V) op, with the fused
    (softmax - one_hot) / rows gradient: the loss before it took the head."""
    targets = np.asarray(targets).reshape(-1)
    n, shape = targets.size, logits.data.shape
    z = logits.data.reshape(n, shape[-1])
    p = z - z.max(axis=1, keepdims=True)
    picked = p[np.arange(n), targets]
    np.exp(p, out=p)
    norm = p.sum(axis=1, keepdims=True)
    loss = (np.log(norm[:, 0]) - picked).mean()

    def bwd(g):
        scale = float(g) / n
        np.divide(p, norm, out=p)
        np.multiply(p, scale, out=p)
        p[np.arange(n), targets] -= scale
        logits._accum(p.reshape(shape))

    return Tensor._op(np.asarray(loss), (logits,), bwd)


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        loss = cross_entropy(Tensor(np.zeros((3, 16))), Tensor(np.zeros((4096, 16))),
                             np.zeros(3, dtype=int))
        assert abs(loss.item() - math.log(4096)) < 1e-9

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((1, 8))
        logits[0, 2] = 50.0
        assert logits_loss(logits, [2]).item() < 1e-9

    def test_hand_value(self):
        loss = logits_loss([[1.0, 2.0]], [0])
        assert abs(loss.item() - 1.3132616875182228) < 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x, w = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=(7, 3)))
            targets = rng.integers(0, 7, size=4)
            assert cross_entropy(x, w, targets).item() >= 0.0

    @pytest.mark.parametrize("targets", [[1.7, 2.9], [True, False]], ids=["float", "bool"])
    def test_non_integer_targets_rejected(self, targets):
        with pytest.raises(ValueError,
                           match=f"^target at position 0 is not an integer: {targets[0]!r}$"):
            logits_loss(np.zeros((2, 4)), targets)

    def test_no_targets_rejected(self):
        with pytest.raises(ValueError, match="at least one target"):
            logits_loss(np.zeros((0, 4)), [])

    def test_out_of_range_target_names_index(self):
        with pytest.raises(ValueError, match="position 1"):
            logits_loss(np.zeros((3, 4)), [0, 9, 1])

    def test_batched_logits_equal_their_flat_rows_bitwise(self):
        rng = np.random.default_rng(14)
        x, targets = rng.normal(size=(2, 3, 5)), rng.integers(0, 11, size=(2, 3))
        w = rng.normal(size=(11, 5))
        batched, flat = (Tensor(x.copy(), requires_grad=True),
                         Tensor(x.reshape(6, 5).copy(), requires_grad=True))
        wb, wf = Tensor(w.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        loss_b = cross_entropy(batched, wb, targets)
        loss_f = cross_entropy(flat, wf, targets.reshape(6))
        assert loss_b.item() == loss_f.item()
        loss_b.backward()
        loss_f.backward()
        assert batched.grad.shape == (2, 3, 5)
        assert np.array_equal(batched.grad.reshape(6, 5), flat.grad)
        assert np.array_equal(wb.grad, wf.grad)

    @pytest.mark.parametrize("x, weight, targets, message", [
        ((2, 3, 5), (7, 5), (3, 2), "targets shape (3, 2) does not align with x (2, 3, 5)"),
        ((2, 3, 5), (7, 5), (6,), "targets shape (6,) does not align with x (2, 3, 5)"),
        ((4, 5), (7, 5), (5,), "targets shape (5,) does not align with x (4, 5)"),
        ((4, 5), (5, 7), (4,), "cross_entropy needs x (..., d) and weight (V, d), "
                               "got (4, 5) and (5, 7)"),
        ((4, 5), (5,), (4,), "cross_entropy needs x (..., d) and weight (V, d), "
                             "got (4, 5) and (5,)"),
        ((), (7, 5), (), "cross_entropy needs x (..., d) and weight (V, d), got () and (7, 5)"),
    ], ids=["transposed", "flat_targets", "rows", "weight_transposed", "weight_vector",
            "scalar_logits"])
    def test_shape_mismatch_names_both_shapes(self, x, weight, targets, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            cross_entropy(Tensor(np.zeros(x)), Tensor(np.zeros(weight)),
                          np.zeros(targets, dtype=int))

    @pytest.mark.parametrize("rows", [(6,), (2, 3)], ids=["sequence", "batch"])
    def test_loss_and_gradients_equal_head_then_loss_bitwise(self, rows):
        """The fused node against linear(x, W^T) followed by a separate
        softmax-NLL node: the same GEMMs and steps, so the same bits."""
        rng = np.random.default_rng(15)
        x, w = rng.normal(size=rows + (8,)), rng.normal(size=(37, 8))
        targets = rng.integers(0, 37, size=rows)
        fused_x, fused_w = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        ref_x, ref_w = Tensor(x.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        fused = cross_entropy(fused_x, fused_w, targets)
        ref = reference_logits_loss(linear(ref_x, ref_w.transpose()), targets)
        assert fused.item() == ref.item()
        fused.backward()
        ref.backward()
        assert np.array_equal(fused_x.grad, ref_x.grad)
        assert np.array_equal(fused_w.grad, ref_w.grad)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        targets = rng.integers(0, 9, size=(2, 3))
        assert grad_check(lambda: cross_entropy(x, w, targets), [x, w], h=1e-5,
                          samples=40, seed=2) < 1e-6


@pytest.mark.parametrize("lookup, ids, message", [
    (lambda ids: embedding(Tensor(np.zeros((5, 2))), ids), [0, 7, 9],
     "token id 7 at position 1 outside [0, 5)"),
    (lambda ids: embedding(Tensor(np.zeros((5, 2))), ids), [[0, 1], [4, -1]],
     "token id -1 at position (1, 1) outside [0, 5)"),
    (lambda ids: embedding(Tensor(np.zeros((5, 2))), ids), [3, 2**70],
     "token id 1180591620717411303424 at position 1 outside [0, 5)"),
    (lambda ids: logits_loss(np.zeros((3, 4)), ids), [0, 9, 1],
     "target 9 at position 1 outside [0, 4)"),
    (lambda ids: logits_loss(np.zeros((2, 3, 4)), ids), [[0, 1, 2], [3, 4, 0]],
     "target 4 at position (1, 1) outside [0, 4)"),
    (lambda ids: logits_loss(np.zeros((2, 2, 4)), ids), [[0, 1], [-2**64, 0]],
     "target -18446744073709551616 at position (1, 0) outside [0, 4)"),
    (lambda ids: Tokenizer().decode(ids), [104, 105, 0, 1, 259, 300],
     "token id 259 at position 4 outside [0, 259)"),
], ids=["embedding", "embedding_batch", "embedding_wide", "cross_entropy",
        "cross_entropy_batch", "cross_entropy_wide", "decode"])
def test_an_id_outside_its_table_is_named_by_noun_position_and_bound(lookup, ids, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lookup(ids)


ID_MODEL = Model(desk_config(n_layers=2, d_model=16, n_heads=2, max_seq_len=8,
                              vocab_size=128, n_experts=2))
ID_CALLERS = {  # each caller of check_ids: (call, noun, bound)
    "forward": (ID_MODEL.forward, "token id", 128),
    "cross_entropy": (lambda ids: logits_loss(np.zeros(np.shape(ids) + (128,)), ids),
                      "target", 128),
    "decode": (Tokenizer().decode, "token id", 259),
    "generate": (lambda ids: generate(ID_MODEL, ids, 2), "prompt id", 128),
}

MALFORMED_IDS = {  # case: (ids, message after the caller's noun)
    "float": ([104, 1.5], "at position 1 is not an integer: 1.5"),
    "bool": ([1, True], "at position 1 is not an integer: True"),
    "wide": ([5, 2**70], "1180591620717411303424 at position 1 outside [0, {bound})"),
    "batch_float": ([[1, 2], [3, 2.5]], "at position (1, 1) is not an integer: 2.5"),
    "ragged": ([[1], [2, 3]], "at position 0 is not an integer: [1]"),
}
ONE_SEQUENCE = ("decode", "generate")  # callers that refuse a batch by its shape


@pytest.mark.parametrize("caller, case", [
    (caller, case) for caller in ID_CALLERS for case in MALFORMED_IDS
    if not (case == "batch_float" and caller in ONE_SEQUENCE)
    and not (case == "ragged" and caller == "cross_entropy")])
def test_every_caller_refuses_a_malformed_id_in_the_same_words(caller, case):
    """The ids reach check_ids as the caller passed them, so numpy never casts
    the list as a whole: True is not id 1, the float is named where it is, and
    a ragged batch is named by its first row, not by numpy's shape error."""
    call, noun, bound = ID_CALLERS[caller]
    ids, message = MALFORMED_IDS[case]
    expected = f"{noun} {message.format(bound=bound)}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        call(ids)


FUZZ_CALLERS = {  # as ID_CALLERS, with targets for a fixed (2, 3) batch of positions
    **ID_CALLERS,
    "cross_entropy": (lambda ids: cross_entropy(Tensor(np.zeros((2, 3, 4))),
                                                Tensor(np.zeros((128, 4))), ids), "target", 128),
}
SHAPE_REFUSALS = {  # what each caller says of ids whose entries pass but whose shape does not
    "forward": r"tokens must be a sequence or batch of sequences, got shape \(.*\)"
               r"|empty token sequence",
    "cross_entropy": r"targets shape \(.*\) does not align with x \(2, 3, 4\)",
    "decode": r"decode takes one sequence of ids, got shape \(.*\)",
    "generate": r"a prompt is one sequence of ids, got shape \(.*\)|empty prompt",
}
DAMAGE = [[5], [[5]], [], True, False, np.bool_(True), 1.0, 2.5, float("nan"), np.float64(7.0),
          2**70, -2**70, np.int64(3), None, "3"]


def damaged_ids(rng):
    """Seeded ids, some past the bound: a sequence, a (2, 3) batch, a ragged batch or
    a scalar, most often with one entry replaced by a DAMAGE value, and sometimes
    turned into whatever array numpy makes of them."""
    ids = rng.integers(0, 140, size=(2, 3)).tolist()
    shape = int(rng.integers(4))
    if shape == 0:
        ids = ids[0]
    elif shape == 1:
        ids[1].append(int(rng.integers(128)))
    elif shape == 2:
        ids = ids[0][0]
    if rng.random() < 0.8:
        bad = DAMAGE[int(rng.integers(len(DAMAGE)))]
        if shape == 2:
            ids = bad
        else:
            row = ids if shape == 0 else ids[int(rng.integers(len(ids)))]
            row[int(rng.integers(len(row)))] = bad
    if rng.random() < 0.3:
        try:
            ids = np.asarray(ids)
        except (ValueError, OverflowError):  # ragged or nested lists, or an int past int64
            pass
    return ids


@pytest.mark.parametrize("caller", sorted(FUZZ_CALLERS))
def test_damaged_ids_pass_or_are_named_by_argument_and_position(caller):
    """Every caller of check_ids either accepts seeded damaged ids or raises a
    ValueError naming the argument and, for a bad entry, the position that
    holds it, whose entry the message quotes."""
    call, noun, bound = FUZZ_CALLERS[caller]
    entry_error = re.compile(rf"{noun} (?:(-?\d+) )?at position (\d+|\(.*?\)) "
                             rf"(?:is not an integer: (.+)|outside \[0, {bound}\))")
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(300):
        ids = damaged_ids(rng)
        try:
            call(ids)
            outcomes.add("accepted")
            continue
        except ValueError as exc:
            message = str(exc)
        found = entry_error.fullmatch(message)
        if found is None:
            assert re.fullmatch(SHAPE_REFUSALS[caller], message), message
            outcomes.add("shape")
            continue
        value, pos, quoted = found.groups()
        pos = ast.literal_eval(pos)
        entry = np.asarray(ids, dtype=object)[pos]
        if quoted is None:
            assert entry == int(value) and not 0 <= entry < bound, message
            outcomes.add("outside")
        else:
            assert quoted == repr(entry), message
            outcomes.add("not an integer")
    assert outcomes == {"accepted", "shape", "outside", "not an integer"}


def test_cross_entropy_names_a_ragged_target_row():
    with pytest.raises(ValueError, match=r"^target at position 0 is not an integer: \[1\]$"):
        cross_entropy(Tensor(np.zeros((2, 2, 4))), Tensor(np.zeros((5, 4))), [[1], [2, 3]])


@pytest.mark.parametrize("ids", [[], [[]]], ids=["sequence", "batch"])
def test_empty_ids_hold_no_bad_id_and_come_back_as_int64(ids):
    checked = check_ids(ids, 5, "token id")
    assert checked.dtype == np.int64 and checked.shape == np.shape(ids)


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
            return (linear(a, b) * linear(a, b)).sum()

        err = grad_check(loss, [a, b], h=1e-5, samples=20, seed=0)
        assert err < 1e-4

    def test_softmax_cross_entropy_gradient_closed_form(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        targets = rng.integers(0, 7, size=5)
        cross_entropy(x, w, targets).backward()
        logits = x.data @ w.data.T
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[np.arange(5), targets] -= 1.0
        assert np.allclose(x.grad, p / 5 @ w.data, atol=1e-8)
        assert np.allclose(w.grad, (p / 5).T @ x.data, atol=1e-8)

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

    def test_second_backward_on_the_same_root_raises(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        once = x.grad.copy()
        with pytest.raises(GraphConsumedError, match="earlier backward"):
            loss.backward()
        assert np.array_equal(x.grad, once)

    def test_new_graph_on_a_used_node_raises_before_touching_gradients(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        w = Tensor([1.0, -1.0], requires_grad=True)
        y = x * x
        y.sum().backward()
        once = x.grad.copy()
        with pytest.raises(GraphConsumedError, match="new graph"):
            (y * w).sum().backward()
        assert np.array_equal(x.grad, once) and w.grad is None
        assert np.array_equal(y.data, [4.0, 9.0])  # forward values stay readable


def graph_nodes(root):
    """Every node reachable from root, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def desk_model_and_batch():
    """desk_config()'s model and one B=8, T=128 train batch."""
    return Model(desk_config()), np.random.default_rng(12).integers(0, 4096, size=(8, 129))


class TestBackwardUsesGraph:
    def test_interior_nodes_hold_nothing_after_backward(self):
        model = Model(desk_config(n_layers=2, d_model=16, n_heads=2, max_seq_len=8,
                                  vocab_size=32, n_experts=3))
        ids = np.random.default_rng(1).integers(0, 32, size=(2, 9))
        loss = total_loss(model.forward(ids[:, :-1]), ids[:, 1:], model.config.alpha).node
        nodes = graph_nodes(loss)
        interior = [n for n in nodes if n._backward is not None]
        # test_train_graph_node_count's 36 op nodes, which route to two experts,
        # plus the row pick and feed_forward of the third expert this batch reaches
        assert len(interior) == 36 + 2
        loss.backward()
        assert all(n.grad is None and n._backward is None and n._parents is None
                   for n in interior)
        assert all(p.grad is not None for p in model.named_parameters().values())

    def test_pinned_train_step_digests(self):
        """Logits, losses, balance values, routing, every gradient and a greedy
        continuation of one desk-shape step. The logits, loss, balance and
        gradient digests were re-taken when GELU became the tanh form (routing
        and the greedy ids kept theirs), with numpy 2.4 and OpenBLAS 0.3.31 on
        x86-64; another BLAS build may round matrix products differently."""
        def sha(*arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        model, batch = desk_model_and_batch()
        greedy = generate(model, batch[0, :16].tolist(), 16)
        out = model.forward(batch[:, :-1])
        got = total_loss(out, batch[:, 1:], model.config.alpha)
        got.node.backward()
        params = model.named_parameters()
        grads = hashlib.sha256()
        for name in sorted(params):
            grads.update(name.encode())
            grads.update(params[name].grad.tobytes())
        assert {
            "logits": sha(out.logits.data),
            "loss": sha(np.array([got.lm_loss, got.moe_loss, got.total_loss])),
            "balance": sha(*[s.balance.data for s in out.moe_stats]),
            "selected": sha(*[s.selected for s in out.moe_stats]),
            "grads": grads.hexdigest(),
            "greedy": sha(np.array(greedy)),
        } == {
            "logits": "1f41c1ee2eeb8d194e332b6f2431f155e4c82b54e2ab2649cfcd94c1ea6d729b",
            "loss": "91aab80e0610b3e29ff16582508f4ad0b5686e9c00606f93888856b8017d1526",
            "balance": "2d1a67927a95246228a703b057900f385458c71b67e70e7bf6389264bda873e6",
            "selected": "c89e480e447ea9c36f79f627f9e49a54a98baf021730092acf7a46ca5848bb18",
            "grads": "1f7862570c8a4f8658333cc8c160b5c839fe8a84344b5ee09024845b89035ac8",
            "greedy": "23f10c6fbbeb56a793f2418f1e88011dc8bf2ec51c52610ee391824ae61e5146",
        }

    def test_backward_peak_stays_within_one_logits_array_of_what_forward_keeps(self):
        """Freeing each node as it runs keeps backward's peak near what forward
        and the loss hold; keeping the graph to the end added about four times
        the logits (134 MB against 32 MB) at this shape."""
        model, batch = desk_model_and_batch()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            out = model.forward(batch[:, :-1])
            loss = total_loss(out, batch[:, 1:], model.config.alpha).node
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        b, t = batch[:, :-1].shape
        assert peak - kept <= b * t * model.config.vocab_size * 8

    def test_forward_and_loss_hold_one_logits_sized_array(self):
        """What a desk step holds from the forward to the backward, at vocab 4096
        against vocab 256 on the same ids: only the loss's (B*T, V) buffer grows
        with the vocabulary. Logits built for the loss would grow with it too,
        holding two logits-sized arrays."""
        batch = np.random.default_rng(12).integers(0, 256, size=(8, 129))
        rows = batch[:, :-1].size
        held = {}
        for vocab in (256, 4096):
            model = Model(desk_config(vocab_size=vocab))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                loss = total_loss(model.forward(batch[:, :-1]), batch[:, 1:], model.config.alpha)
                held[vocab] = tracemalloc.get_traced_memory()[0] - before
            finally:
                if started:
                    tracemalloc.stop()
            assert loss.node.requires_grad
        one_array = rows * (4096 - 256) * 8  # 30 MiB
        assert one_array <= held[4096] - held[256] <= one_array * 9 // 8

OPS = {
    "add_mul": lambda ts: ((ts[0] + ts[1]) * ts[0]).sum(),
    "matmul": lambda ts: linear(ts[0], ts[1].transpose()).sum(),
    "gelu": lambda ts: identity_ffn(linear(ts[0], ts[1].transpose())).sum(),
    "softmax": lambda ts: (softmax(ts[0]) * ts[1]).sum(),
    "sum_axis0": lambda ts: (ts[0].sum(axis=0) * ts[1]).sum() * 3.0,
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(op, seed):
    rng = np.random.default_rng(seed * 101 + 17)
    shape = tuple(rng.integers(2, 5, size=2))
    ts = [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(2)]
    err = grad_check(lambda: OPS[op](ts), ts, h=1e-5, samples=16, seed=seed)
    assert err < 1e-4, f"{op} grad error {err}"


def bytes_held(f):
    """f()'s result and the traced bytes still allocated when f returns, the result's included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def test_recorded_nodes_keep_only_what_their_backward_reads():
    """feed_forward keeps u and phi but not the activation u * phi; layer_norm
    keeps a mean and 1/sigma per row but not the normalized rows."""
    rng = np.random.default_rng(63)
    rows, d = 256, 32
    one_row_d, one_row_h = rows * d * 8, rows * 4 * d * 8
    x = Tensor(rng.normal(size=(rows, d)), requires_grad=True)
    ffn = [Tensor(rng.normal(size=s), requires_grad=True)
           for s in [(d, 4 * d), (4 * d,), (4 * d, d), (d,)]]
    out, held = bytes_held(lambda: feed_forward(x, *ffn))
    assert out.requires_grad
    assert one_row_d + 2 * one_row_h <= held < one_row_d + 3 * one_row_h
    out, held = bytes_held(lambda: layer_norm(x, Tensor(np.ones(d)), Tensor(np.zeros(d))))
    assert out.requires_grad
    assert one_row_d <= held < 2 * one_row_d


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
        return square_sum(layer_norm(x, gain, bias))

    assert grad_check(loss, [x, gain, bias], h=1e-5, samples=24, seed=seed) < 1e-4


def test_gather_scatter_embedding_gradients():
    rng = np.random.default_rng(21)
    w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([1, 1, 4, 0])

    def loss():
        e = embedding(w, ids)                   # id 1 looked up twice
        rows = e[np.array([0, 2, 0])]           # fancy rows, row 0 picked twice
        s = rows * 2.0 + e[1:4]                 # slice
        picked = s[np.array([1, 2, 0]), np.array([0, 2, 1])]  # (row, col) pairs
        return square_sum(s) + picked.sum()

    assert grad_check(loss, [w], h=1e-5, samples=18, seed=2) < 1e-4


def test_reshape_transpose_gradients():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def loss():
        return square_sum(x.transpose().reshape(4, 6))

    assert grad_check(loss, [x], h=1e-5, samples=12, seed=0) < 1e-6


@pytest.mark.parametrize("lead", [(5,), (2, 3)], ids=["2d", "3d"])
def test_linear_matches_matmul_plus_bias_and_finite_differences(lead):
    rng = np.random.default_rng(len(lead))
    x = Tensor(rng.normal(size=lead + (4,)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    assert np.array_equal(linear(x, w, b).data, x.data @ w.data + b.data)

    def loss():
        return square_sum(linear(x, w, b))

    assert grad_check(loss, [x, w, b], h=1e-5, samples=30, seed=0) < 1e-4


def test_linear_shape_errors_name_the_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\) and \(4, 2\)"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError, match=r"\(2,\), got \(3,\)"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


def attention_reference(q, k, v, n_heads):
    """Per batch row and head loops with the causal rule written out: query i
    sees key j iff j <= past + i, where past = key rows - query rows."""
    b, t, d = q.shape
    rows, head = k.shape[1], d // n_heads
    out = np.zeros((b, t, d))
    for n in range(b):
        for h in range(n_heads):
            cols = slice(h * head, (h + 1) * head)
            for i in range(t):
                seen = rows - t + i + 1
                s = k[n, :seen, cols] @ q[n, i, cols] / math.sqrt(head)
                p = np.exp(s - s.max())
                out[n, i, cols] = (p / p.sum()) @ v[n, :seen, cols]
    return out


@pytest.mark.parametrize("past", [0, 3], ids=["causal", "offset"])
def test_attention_matches_reference_and_finite_differences(past):
    rng = np.random.default_rng(50 + past)
    b, t, d, n_heads = 2, 3, 4, 2
    q = Tensor(rng.normal(size=(b, t, d)), requires_grad=True)
    k = Tensor(rng.normal(size=(b, past + t, d)), requires_grad=True)
    v = Tensor(rng.normal(size=(b, past + t, d)), requires_grad=True)
    weights = rng.normal(size=(b, t, d))
    out = attention(q, k, v, n_heads)
    assert np.max(np.abs(out.data - attention_reference(q.data, k.data, v.data, n_heads))) < 1e-12

    def loss():
        return (attention(q, k, v, n_heads) * weights).sum()

    assert grad_check(loss, [q, k, v], h=1e-5, samples=45, seed=past) < 1e-4


TIED_IDS, TIED_TARGETS = np.array([1, 4, 1]), np.array([0, 2, 3])
COMBINE_SELECTED = np.array([1, 0, 2, 1, 2, 0, 1])  # runs of 2, 3 and 2 tokens
COMBINE_ORDER = np.argsort(COMBINE_SELECTED, kind="stable")

# name: (shape of each leaf, the leaf behind each use, loss over the uses)
REUSE_CASES = {
    "add": ([(3, 3), (3, 3)], [0, 0, 0, 1], lambda u: ((u[0] + u[1]) * (u[2] + u[3])).sum()),
    "matmul_both_operands": ([(3, 3), (3, 3)], [0, 0, 1],
                             lambda u: (linear(u[0], u[1]) * u[2]).sum()),
    "tied_embedding": ([(5, 3), (3,)], [0, 0, 1],
                       lambda u: cross_entropy(embedding(u[0], TIED_IDS) + u[2], u[1],
                                               TIED_TARGETS)),
    "combine_runs": ([(2, 3), (3, 3), (7, 3)], [0, 1, 0, 2, 2],
                     lambda u: square_sum(combine(u[:3], COMBINE_ORDER, u[3], COMBINE_SELECTED,
                                                  u[4]))),
    "residual_is_the_input": ([(3, 3), (3, 3), (3,)], [0, 1, 2, 0, 0],
                              lambda u: square_sum(linear(linear(u[0], u[1], u[2], residual=u[3]),
                                                          u[4]))),
    "attention_shared_projection": ([(1, 3, 4), (1, 3, 4)], [0, 0, 0, 1],
                                    lambda u: (attention(u[0], u[1], u[2], 2) * u[3]).sum()),
}


def combine_branch(*u, residual=None):
    """combine over three runs; without a residual, onto zeros, which leave its bits."""
    return combine(u[:3], COMBINE_ORDER, u[3], COMBINE_SELECTED,
                   Tensor(np.zeros((7, 3))) if residual is None else residual)


RESIDUAL_OPS = {  # name: (the branch op, its parents' shapes and then the residual's)
    "linear": (linear, [(2, 3, 4), (4, 5), (5,), (2, 3, 5)]),
    "feed_forward": (feed_forward, [(2, 3, 4), (4, 6), (6,), (6, 4), (4,), (2, 3, 4)]),
    "combine": (combine_branch, [(2, 3), (3, 3), (2, 3), (7, 3), (7, 3)]),
}


@pytest.mark.parametrize("name", sorted(RESIDUAL_OPS))
def test_a_residual_argument_equals_adding_the_residual_to_the_branch_bitwise(name):
    """An op that adds its residual into its own output gives residual + branch
    to the last bit, and every parent the gradient the separate __add__ gave."""
    op, shapes = RESIDUAL_OPS[name]
    rng = np.random.default_rng(71)
    data = [rng.normal(size=shape) for shape in shapes]
    weights = rng.normal(size=shapes[-1])

    def run(fused):
        *branch, residual = ts = [Tensor(a.copy(), requires_grad=True) for a in data]
        out = op(*branch, residual=residual) if fused else residual + op(*branch)
        (out * weights).sum().backward()
        return [out.data] + [t.grad for t in ts]

    assert all(np.array_equal(a, b) for a, b in zip(run(True), run(False), strict=True))
    ts = [Tensor(a, requires_grad=True) for a in data]
    assert grad_check(lambda: square_sum(op(*ts[:-1], residual=ts[-1])), ts,
                      h=1e-5, samples=60, seed=1) < 1e-5
    with pytest.raises(ShapeError, match="residual must"):
        op(*ts[:-1], residual=Tensor(np.zeros(shapes[-1][:-1] + (1,))))


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_reused_tensor_gradients_are_owned(case):
    """_accum keeps the arrays backward hands it, so a tensor used twice must
    still get the sum of its uses, in memory no other leaf shares."""
    shapes, leaf_of, loss = REUSE_CASES[case]
    rng = np.random.default_rng(3)
    data = [rng.normal(size=shape) for shape in shapes]
    separate = [Tensor(data[i].copy(), requires_grad=True) for i in leaf_of]
    loss(separate).backward()
    reference = [sum(u.grad for u, i in zip(separate, leaf_of) if i == j)
                 for j in range(len(data))]

    def close(got, want):  # the order of a leaf's partial sums may differ by an ulp
        return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.abs(want).max())

    leaves = [Tensor(a.copy(), requires_grad=True) for a in data]
    loss([leaves[i] for i in leaf_of]).backward()
    assert all(close(leaf.grad, ref) for leaf, ref in zip(leaves, reference))
    for a, b in combinations(leaves, 2):
        assert not np.shares_memory(a.grad, b.grad)

    first = [leaf.grad.copy() for leaf in leaves]
    loss([leaves[i] for i in leaf_of]).backward()
    assert all(close(leaf.grad, 2 * once) for leaf, once in zip(leaves, first))


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
        theta = Tensor([1e200], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            grad_check(lambda: (theta * theta).sum(), [theta], h=1e-5)


class TestAdam:
    @staticmethod
    def _params(values):
        return {f"p{i}": Tensor(np.asarray(v, dtype=float), requires_grad=True)
                for i, v in enumerate(values)}

    def test_zero_gradient_leaves_params_unchanged(self):
        params = self._params([[1.0, -2.0]])
        params["p0"].grad = np.zeros(2)
        state = AdamState(params)
        adam_step(params, state, lr=0.1, step=0)
        assert np.array_equal(params["p0"].data, [1.0, -2.0])

    def test_first_step_moves_by_lr_sign(self):
        # with bias correction, step 1 update is exactly -lr * g / (|g| + eps')
        params = self._params([[1.0, 1.0]])
        params["p0"].grad = np.array([0.5, -3.0])
        state = AdamState(params)
        adam_step(params, state, lr=0.01, step=0)
        moved = params["p0"].data - 1.0
        assert np.all(np.abs(moved - (-0.01 * np.sign([0.5, -3.0]))) < 0.01 * 1e-6)

    def test_identical_gradients_identical_updates(self):
        params = self._params([[1.0], [1.0]])
        params["p0"].grad = np.array([0.7])
        params["p1"].grad = np.array([0.7])
        state = AdamState(params)
        adam_step(params, state, lr=0.05, step=0)
        assert params["p0"].data[0] == params["p1"].data[0]

    def test_bitwise_deterministic(self):
        results = []
        for _ in range(2):
            params = self._params([np.linspace(-1, 1, 7)])
            params["p0"].grad = np.sin(np.arange(7.0))
            state = AdamState(params)
            for step in range(5):
                adam_step(params, state, lr=0.003, step=step)
            results.append(params["p0"].data.copy())
        assert np.array_equal(results[0], results[1])

    @pytest.mark.parametrize("step", [0, 1, 2, 999])
    def test_step_k_applies_the_bias_correction_for_t_k_plus_one(self, step):
        """From zero moments, m = (1 - beta1) g and v = (1 - beta2) g^2; the
        update divides them by 1 - beta ** (step + 1), bit for bit."""
        g = np.array([0.5, -3.0, 1e-3])
        params = self._params([[1.0, 1.0, 1.0]])
        params["p0"].grad = g.copy()
        state = AdamState(params)
        adam_step(params, state, lr=0.01, step=step)
        m, v = (1.0 - BETA1) * g, (1.0 - BETA2) * (g * g)
        t = step + 1
        expected = 1.0 - 0.01 * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
        assert np.array_equal(params["p0"].data, expected)
        assert np.array_equal(state.m["p0"], m) and np.array_equal(state.v["p0"], v)

    def test_shape_mismatch_rejected(self):
        params = self._params([[1.0, 2.0]])
        state = AdamState(params)
        params["p0"].grad = np.zeros(3)
        with pytest.raises(ShapeError):
            adam_step(params, state, lr=0.1, step=0)

    @pytest.mark.parametrize("edit, message", [
        (lambda params, state: state.m.update(p2=np.zeros(3)),
         "m moment shape (3,) does not match parameter 'p2' (2,)"),
        (lambda params, state: state.v.update(p1=np.zeros(3)),
         "v moment shape (3,) does not match parameter 'p1' (2,)"),
        (lambda params, state: setattr(params["p2"], "grad", np.ones(3)),
         "gradient shape (3,) does not match parameter 'p2' (2,)"),
        (lambda params, state: state.v.pop("p1"),
         "optimizer state's v moments lack parameter 'p1'"),
        (lambda params, state: state.m.update(q=np.zeros(2)),
         "optimizer state's m moments include 'q', which is not a parameter"),
    ], ids=["m_shape", "v_shape", "grad_shape", "missing_name", "extra_name"])
    def test_mismatch_raises_before_anything_is_written(self, edit, message):
        params = self._params([[1.0, 2.0], [3.0, -1.0], [0.5, 0.25]])
        for p in params.values():
            p.grad = np.array([0.5, -2.0])
        state = AdamState(params)
        adam_step(params, state, lr=0.1, step=0)  # non-zero moments, so "unchanged" is a real check
        edit(params, state)
        before = ({n: p.data.copy() for n, p in params.items()},
                  {n: a.copy() for n, a in state.m.items()},
                  {n: a.copy() for n, a in state.v.items()})
        with pytest.raises(ShapeError, match=re.escape(message)):
            adam_step(params, state, lr=0.1, step=1)
        for old, new in zip(before, ({n: p.data for n, p in params.items()}, state.m, state.v)):
            assert old.keys() == new.keys()
            assert all(np.array_equal(old[n], new[n]) for n in old)


def test_clip_global_norm_scales_to_bound():
    params = {"a": Tensor(np.zeros(2), requires_grad=True),
              "b": Tensor(np.zeros(1), requires_grad=True)}
    params["a"].grad = np.array([3.0, 0.0])
    params["b"].grad = np.array([4.0])
    norm = clip_global_norm(params)
    assert abs(norm - 5.0) < 1e-12
    joint = np.concatenate([params["a"].grad, params["b"].grad])
    assert abs(np.linalg.norm(joint) - CLIP_NORM) < 1e-12
