"""Kernel layer tests: hand-computed cases plus finite-difference oracles."""

import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harseq.errors import (
    DimensionError,
    FormatError,
    InvariantError,
    NumericError,
    ValidationError,
)
from harseq.numkernel import (
    Adam,
    BatchNorm1d,
    Conv1d,
    Embedding,
    Linear,
    LSTMCell,
    Tensor,
    finite_difference_grad,
    load_container,
    log_softmax,
    max_relative_error,
    save_container,
    softmax_cross_entropy,
)
from harseq.numkernel.layers import _sigmoid

GRAD_TOL = 1e-4


def check_param_grads(layer, loss_fn, params=None, tol=GRAD_TOL):
    """Compare each parameter's accumulated grad against central differences."""
    params = params if params is not None else layer.parameters()
    for name, p in params.items():
        numeric = finite_difference_grad(loss_fn, p)
        assert p.grad is not None, f"no analytic grad for {name}"
        err = max_relative_error(p.grad, numeric)
        assert err < tol, f"{name}: rel err {err:.3e}"


def _channel_major(stored):
    """The [batch, channels, time] view of an array stored [channels, batch, time],
    the layout of the encoder's activations and gradients."""
    return stored.transpose(1, 0, 2)


class TestConv1d:
    def test_zero_input_gives_zeros(self):
        conv = Conv1d(3, 5, rng=np.random.default_rng(1))
        assert conv.parameters().keys() == {"weight"}
        out = conv.forward(np.zeros((2, 3, 7)), mode="eval")
        np.testing.assert_array_equal(out, np.zeros((2, 5, 7)))

    def test_hand_convolution_left_shift(self):
        # weight [1,0,0] with pad 1 reads the padded value one step left
        conv = Conv1d(1, 1)
        conv.weight.data[:] = np.array([[[1.0, 0.0, 0.0]]])
        x = np.array([[[1.0, 2.0, 3.0, 4.0]]])
        out = conv.forward(x, mode="eval")
        np.testing.assert_array_equal(out, np.array([[[0.0, 1.0, 2.0, 3.0]]]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        conv = Conv1d(3, 4, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 5)))
        proj = rng.uniform(-1, 1, size=(2, 4, 5))  # fixed projection makes the loss scalar

        def loss():
            return float((conv.forward(x.data, mode="eval") * proj).sum())

        out = conv.forward(x.data, mode="train")
        dx = conv.backward(proj)
        check_param_grads(conv, loss)
        assert max_relative_error(dx, finite_difference_grad(loss, x)) < GRAD_TOL
        assert out.shape == (2, 4, 5)

    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("t", [3, 6])
    def test_gradients_on_channel_major_arrays(self, kernel, t):
        """The layouts the encoder passes: a channel-major input and gradient. At
        T=3 a kernel-5 edge tap reaches only one time step."""
        rng = np.random.default_rng(17)
        conv = Conv1d(3, 4, kernel, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(3, 2, t)))  # stored [channels, batch, time]
        proj = _channel_major(rng.uniform(-1, 1, size=(4, 2, t)))

        def loss():
            return float((conv.forward(_channel_major(x.data), mode="eval") * proj).sum())

        conv.forward(_channel_major(x.data), mode="train")
        dx = conv.backward(proj)
        check_param_grads(conv, loss)
        numeric = _channel_major(finite_difference_grad(loss, x))
        assert max_relative_error(dx, numeric) < GRAD_TOL

    def test_time_dimension_preserved(self):
        rng = np.random.default_rng(3)
        for t in (3, 4, 9, 17):
            conv = Conv1d(2, 3, rng=rng)
            out = conv.forward(rng.normal(size=(1, 2, t)), mode="eval")
            assert out.shape == (1, 3, t)

    def test_channel_mismatch_names_axis(self):
        conv = Conv1d(3, 4)
        with pytest.raises(DimensionError, match="channel"):
            conv.forward(np.zeros((1, 2, 5)))


class TestBatchNorm1d:
    def test_constant_input_normalizes_to_zero(self):
        bn = BatchNorm1d(2)
        x = np.stack([np.full((2, 6), 3.0), np.full((2, 6), -1.5)], axis=1).reshape(2, 2, 6)
        out = bn.forward(x, mode="train", cache=False)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_gamma_zero_gives_beta(self):
        bn = BatchNorm1d(3)
        bn.gamma.data[:] = 0.0
        bn.beta.data[:] = np.array([1.0, -2.0, 0.5])
        out = bn.forward(np.random.default_rng(0).normal(size=(4, 3, 5)), mode="train", cache=False)
        np.testing.assert_array_equal(out, np.broadcast_to(bn.beta.data[None, :, None], (4, 3, 5)))

    def test_train_output_statistics(self):
        rng = np.random.default_rng(11)
        bn = BatchNorm1d(4)
        out = bn.forward(rng.normal(2.0, 3.0, size=(8, 4, 16)), mode="train", cache=False)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_eval_before_train_raises(self):
        bn = BatchNorm1d(2)
        with pytest.raises(InvariantError, match="uninitialized"):
            bn.forward(np.zeros((1, 2, 4)), mode="eval")

    def test_eval_uses_frozen_running_stats(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm1d(2)
        for _ in range(20):
            bn.forward(rng.normal(1.0, 2.0, size=(8, 2, 10)), mode="train", cache=False)
        mean_before = bn.running_mean.copy()
        var_before = bn.running_var.copy()
        bn.forward(rng.normal(5.0, 1.0, size=(4, 2, 10)), mode="eval")
        np.testing.assert_array_equal(bn.running_mean, mean_before)
        np.testing.assert_array_equal(bn.running_var, var_before)

    def test_train_needs_two_values_per_channel(self):
        bn = BatchNorm1d(2)
        with pytest.raises(ValidationError, match="at least 2"):
            bn.forward(np.zeros((1, 2, 1)), mode="train")

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        bn = BatchNorm1d(3)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.uniform(-1, 1, size=3)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)))
        proj = rng.uniform(-1, 1, size=(2, 3, 4))

        def loss():
            return float((bn.forward(x.data, mode="train", cache=False) * proj).sum())

        bn.forward(x.data, mode="train")
        dx = bn.backward(proj)
        check_param_grads(bn, loss)
        assert max_relative_error(dx, finite_difference_grad(loss, x)) < GRAD_TOL


    @pytest.mark.parametrize("b,t", [(2, 3), (3, 5)])
    def test_gradients_on_channel_major_arrays_written_into_grad_out(self, b, t):
        """As the encoder calls it: channel-major arrays, and `out=` the incoming
        gradient itself, so both sums must be taken before the first write."""
        rng = np.random.default_rng(19)
        bn = BatchNorm1d(3)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, size=3)
        bn.beta.data[:] = rng.uniform(-1, 1, size=3)
        x = Tensor(rng.uniform(-1, 1, size=(3, b, t)))  # stored [channels, batch, time]
        proj = _channel_major(rng.uniform(-1, 1, size=(3, b, t)))

        def loss():
            out = bn.forward(_channel_major(x.data), mode="train", cache=False)
            return float((out * proj).sum())

        bn.forward(_channel_major(x.data), mode="train")
        grad = proj.copy(order="K")
        dx = bn.backward(grad, out=grad)
        assert dx is grad
        check_param_grads(bn, loss)
        numeric = _channel_major(finite_difference_grad(loss, x))
        assert max_relative_error(dx, numeric) < GRAD_TOL

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(b=st.integers(1, 6), c=st.integers(1, 5), t=st.integers(2, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_input_gradient_sums_to_zero_and_is_orthogonal_to_xhat(self, b, c, t, seed):
        """Shifting a channel's input leaves the output unchanged, so the input
        gradient sums to 0 per channel. With eps = 0, scaling it does too, so the
        gradient is orthogonal to x̂ (with eps > 0 it is not, by eps / (var + eps)).
        Run channel-major, with `out=` the incoming gradient."""
        rng = np.random.default_rng(seed)
        bn = BatchNorm1d(c)
        bn.eps = 0.0
        bn.gamma.data[:] = rng.uniform(0.5, 2.0, size=c)
        x = _channel_major(rng.uniform(-5, 5, size=(c, 1, 1))
                           + rng.uniform(0.5, 2.0, size=(c, 1, 1)) * rng.normal(size=(c, b, t)))
        bn.forward(x, mode="train")
        xhat = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        grad = _channel_major(rng.normal(size=(c, b, t)))
        dx = bn.backward(grad, out=grad)
        np.testing.assert_allclose(dx.sum(axis=(0, 2)), 0.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose((dx * xhat).sum(axis=(0, 2)), 0.0, rtol=0, atol=1e-10)


class TestLinear:
    def test_identity_weights(self):
        lin = Linear(3, 3)
        lin.weight.data[:] = np.eye(3)
        lin.bias.data[:] = 0.0
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(lin.forward(x, mode="eval"), x)

    def test_hand_affine(self):
        lin = Linear(2, 1)
        lin.weight.data[:] = np.array([[1.0, 1.0]])
        lin.bias.data[:] = np.array([0.5])
        out = lin.forward(np.array([[2.0, 3.0]]), mode="eval")
        np.testing.assert_array_equal(out, np.array([[5.5]]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        lin = Linear(4, 3, rng=rng)
        x = Tensor(rng.uniform(-1, 1, size=(5, 4)))
        proj = rng.uniform(-1, 1, size=(5, 3))

        def loss():
            return float((lin.forward(x.data, mode="eval") * proj).sum())

        lin.forward(x.data, mode="train")
        dx = lin.backward(proj)
        check_param_grads(lin, loss)
        assert max_relative_error(dx, finite_difference_grad(loss, x)) < GRAD_TOL

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="feature axis"):
            Linear(4, 3).forward(np.zeros((2, 5)))


class TestEmbedding:
    def test_lookup_rows(self):
        emb = Embedding(4, 3)
        ids = np.array([2, 0, 2])
        np.testing.assert_array_equal(emb.forward(ids, mode="eval"), emb.weight.data[ids])

    def test_out_of_range_id(self):
        with pytest.raises(IndexError, match="vocabulary"):
            Embedding(4, 3).forward(np.array([4]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(23)
        emb = Embedding(5, 3, rng=rng)
        ids = np.array([1, 3, 1, 0])
        proj = rng.uniform(-1, 1, size=(4, 3))

        def loss():
            return float((emb.forward(ids, mode="eval") * proj).sum())

        emb.forward(ids, mode="train")
        emb.backward(proj)
        check_param_grads(emb, loss)


class TestLSTMCell:
    def test_zero_params_zero_states(self):
        cell = LSTMCell(3, 4)
        for p in cell.parameters().values():
            p.data[:] = 0.0
        h, c = cell.forward(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), mode="eval")
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(c, 0.0)

    def test_scalar_hand_evaluation(self):
        # one unit, one input feature: evaluate the gate equations directly
        cell = LSTMCell(1, 1)
        wx = np.array([0.3, -0.2, 0.5, 0.7])
        wh = np.array([-0.4, 0.6, 0.1, -0.3])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        cell.w_x.data[:] = wx[:, None]
        cell.w_h.data[:] = wh[:, None]
        cell.bias.data[:] = b
        x, h0, c0 = 0.8, -0.5, 0.25

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        a = wx * x + wh * h0 + b
        gi, gf, gg, go = sig(a[0]), sig(a[1]), np.tanh(a[2]), sig(a[3])
        c_exp = gf * c0 + gi * gg
        h_exp = go * np.tanh(c_exp)

        h, c = cell.forward(np.array([[x]]), np.array([[h0]]), np.array([[c0]]), mode="eval")
        np.testing.assert_allclose(h, [[h_exp]], rtol=1e-12)
        np.testing.assert_allclose(c, [[c_exp]], rtol=1e-12)

    def test_bptt_three_steps_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        cell = LSTMCell(2, 3, rng=rng)
        xs = [Tensor(rng.uniform(-1, 1, size=(2, 2))) for _ in range(3)]
        h0 = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        c0 = Tensor(rng.uniform(-1, 1, size=(2, 3)))
        proj = rng.uniform(-1, 1, size=(2, 3))

        def run(mode):
            h, c = h0.data, c0.data
            for x in xs:
                h, c = cell.forward(x.data, h, c, mode=mode)
            return h

        def loss():
            return float((run("eval") * proj).sum())

        run("train")
        dh, dc = proj.copy(), np.zeros((2, 3))
        dxs = []
        for _ in range(3):
            dx, dh, dc = cell.backward(dh, dc)
            dxs.append(dx)
        dxs.reverse()
        check_param_grads(cell, loss)
        for x, dx in zip(xs, dxs):
            assert max_relative_error(dx, finite_difference_grad(loss, x)) < GRAD_TOL
        assert max_relative_error(dh, finite_difference_grad(loss, h0)) < GRAD_TOL
        assert max_relative_error(dc, finite_difference_grad(loss, c0)) < GRAD_TOL

    def test_state_shape_mismatch(self):
        cell = LSTMCell(2, 3)
        with pytest.raises(DimensionError, match="state axis"):
            cell.forward(np.zeros((1, 2)), np.zeros((1, 4)), np.zeros((1, 3)))

    def test_backward_without_forward_raises(self):
        cell = LSTMCell(2, 3)
        with pytest.raises(InvariantError, match="cache"):
            cell.backward(np.zeros((1, 3)), np.zeros((1, 3)))


def _reference_sigmoid(x):
    """The two-branch logistic the LSTM kernel must reproduce bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_lstm_step(cell, x, h, c):
    """The LSTM cell equations written out with temporaries, one per term."""
    d = cell.hidden_dim
    a = x @ cell.w_x.data.T + h @ cell.w_h.data.T + cell.bias.data[None, :]
    gi = _reference_sigmoid(a[:, :d])
    gf = _reference_sigmoid(a[:, d:2 * d])
    gg = np.tanh(a[:, 2 * d:3 * d])
    go = _reference_sigmoid(a[:, 3 * d:])
    c_new = gf * c + gi * gg
    return go * np.tanh(c_new), c_new


def _sigmoid_grid():
    rng = np.random.default_rng(41)
    special = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0,
               5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max]
    normals = [rng.standard_normal(2000) * scale
               for scale in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 10.0, 1e2, 1e3)]
    return np.concatenate([np.array(special)] + normals)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestSigmoidKernel:
    def test_bit_identical_on_contiguous_grid(self):
        grid = _sigmoid_grid()
        assert _same_bits(_sigmoid(grid), _reference_sigmoid(grid))

    def test_bit_identical_on_strided_gate_slices(self):
        # the LSTM cell applies the sigmoid to column slices of its [B, 4H] gates
        d = 8
        grid = _sigmoid_grid()
        a = np.tile(np.resize(grid, (grid.size // d + 1, d)), (1, 4))
        for gate in (a[:, :d], a[:, 3 * d:]):
            assert not gate.flags.c_contiguous
            assert _same_bits(_sigmoid(gate), _reference_sigmoid(gate))

    def test_nan_maps_to_nan(self):
        x = np.array([np.nan, -np.inf, 1.0, np.nan])
        out = _sigmoid(x)
        assert np.isnan(out[[0, 3]]).all()
        assert _same_bits(out[1:3], _reference_sigmoid(x[1:3]))


class TestLSTMCellBitIdentity:
    def test_forward_matches_reference_equations_bit_for_bit(self):
        rng = np.random.default_rng(43)
        cell = LSTMCell(5, 7, rng=rng)
        cell.bias.data[:] = rng.normal(scale=2.0, size=cell.bias.data.shape)
        x = rng.normal(scale=3.0, size=(33, 5))
        h = rng.normal(size=(33, 7))
        c = rng.normal(size=(33, 7))
        h_ref, c_ref = _reference_lstm_step(cell, x, h, c)
        for mode in ("eval", "train"):
            h_new, c_new = cell.forward(x, h, c, mode=mode)
            assert _same_bits(h_new, h_ref), mode
            assert _same_bits(c_new, c_ref), mode

    def test_step_matches_forward_bit_for_bit(self):
        rng = np.random.default_rng(44)
        cell = LSTMCell(5, 7, rng=rng)
        cell.bias.data[:] = rng.normal(scale=2.0, size=cell.bias.data.shape)
        x = rng.normal(scale=3.0, size=(9, 5))
        h = rng.normal(size=(9, 7))
        c = rng.normal(size=(9, 7))
        h_ref, c_ref = cell.forward(x, h, c, mode="eval")
        h_new, c_new = cell.step(x @ cell.w_x.data.T, h @ cell.w_h.data.T, c)
        assert _same_bits(h_new, h_ref) and _same_bits(c_new, c_ref)
        # one [4H] input row is broadcast over the batch like a tiled [B, 4H] term
        x_row = x[:1] @ cell.w_x.data.T
        h_row, c_row = cell.step(x_row[0], h @ cell.w_h.data.T, c)
        h_tiled, c_tiled = cell.step(np.repeat(x_row, 9, axis=0), h @ cell.w_h.data.T, c)
        assert _same_bits(h_row, h_tiled) and _same_bits(c_row, c_tiled)
        assert cell._caches == []


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss, _ = softmax_cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
        np.testing.assert_allclose(loss, np.log(4.0), rtol=1e-12)

    def test_near_delta_distribution(self):
        loss, _ = softmax_cross_entropy(np.array([[10.0, -10.0]]), np.array([0]))
        assert loss < 1e-8

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(31)
        logits = rng.normal(size=(4, 5))
        targets = np.array([1, 0, 4, 2])
        _, grad = softmax_cross_entropy(logits, targets)
        probs = np.exp(log_softmax(logits))
        onehot = np.zeros((4, 5))
        onehot[np.arange(4), targets] = 1.0
        np.testing.assert_allclose(grad, (probs - onehot) / 4.0, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        logits = Tensor(rng.normal(size=(3, 4)))
        targets = np.array([2, 0, 3])

        def loss():
            return softmax_cross_entropy(logits.data, targets)[0]

        _, grad = softmax_cross_entropy(logits.data, targets)
        assert max_relative_error(grad, finite_difference_grad(loss, logits)) < GRAD_TOL

    def test_implied_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(41)
        logits = rng.normal(scale=10.0, size=(6, 9))
        probs = np.exp(log_softmax(logits))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError, match="outside"):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]))
        opt = Adam({"p": p}, lr=1e-2)
        p.zero_grad()
        opt.step()
        np.testing.assert_array_equal(p.data, np.array([1.0, -2.0]))

    def test_first_step_size_is_learning_rate(self):
        # bias correction makes the first update ~ lr * sign(g)
        p = Tensor(np.array([0.0]))
        opt = Adam({"p": p}, lr=1e-4)
        p.grad[:] = 1.0
        opt.step()
        np.testing.assert_allclose(p.data, [-1e-4], rtol=1e-6)

    def test_quadratic_descent_is_monotone(self):
        p = Tensor(np.array([0.0]))
        opt = Adam({"p": p}, lr=1e-2)
        dist = abs(p.data[0] - 3.0)
        for _ in range(100):
            p.zero_grad()
            p.grad[:] = 2.0 * (p.data - 3.0)
            opt.step()
            new_dist = abs(p.data[0] - 3.0)
            assert new_dist < dist
            dist = new_dist

    def test_step_counter_tracks_calls(self):
        p = Tensor(np.zeros(3))
        opt = Adam({"p": p})
        for k in range(1, 6):
            p.zero_grad()
            opt.step()
            assert opt.step_count == k


class TestFiniteDifference:
    def test_square_at_two(self):
        w = Tensor(np.array([2.0]))
        grad = finite_difference_grad(lambda: float(w.data[0] ** 2), w)
        np.testing.assert_allclose(grad, [4.0], atol=1e-6)

    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        grad = finite_difference_grad(lambda: float(w.data.sum()), w)
        np.testing.assert_allclose(grad, np.ones((2, 3)), atol=1e-9)

    def test_non_finite_loss_raises(self):
        w = Tensor(np.array([0.0]))
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(NumericError, match="non-finite"):
                finite_difference_grad(lambda: float(np.log(w.data[0])), w)


class TestDeterminism:
    def test_identical_seeds_identical_trajectories(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            lin = Linear(3, 2, rng=rng)
            opt = Adam(lin.parameters(), lr=1e-3)
            x = rng.normal(size=(4, 3))
            targets = np.array([0, 1, 1, 0])
            trail = []
            for _ in range(10):
                opt.zero_grad()
                logits = lin.forward(x, mode="train")
                _, dlogits = softmax_cross_entropy(logits, targets)
                lin.backward(dlogits)
                opt.step()
                trail.append(lin.weight.data.copy())
            return trail

        for a, b in zip(run(123), run(123)):
            np.testing.assert_array_equal(a, b)


class TestCheckpointContainer:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(43)
        tensors = {
            "w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(4,)),
            "scalarish": np.array(3.141592653589793),
        }
        meta = {"kind": "test", "nested": {"k": [1, 2, 3]}}
        path = tmp_path / "model.nkc"
        save_container(path, tensors, meta)
        loaded, meta2 = load_container(path)
        assert meta2 == meta
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float64
            np.testing.assert_array_equal(loaded[name], arr)

    def test_identical_content_identical_bytes(self, tmp_path):
        arrs = {"a": np.linspace(0, 1, 7), "z": np.ones((2, 2))}
        p1, p2 = tmp_path / "one.nkc", tmp_path / "two.nkc"
        save_container(p1, arrs, {"v": 1})
        save_container(p2, arrs, {"v": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.nkc"
        p.write_bytes(b"NOTATENSORFILE")
        with pytest.raises(Exception, match="magic"):
            load_container(p)


def _container_bytes(tensors, metadata):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.nkc")
        save_container(path, tensors, metadata)
        with open(path, "rb") as f:
            return f.read()


def _load_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.nkc")
        with open(path, "wb") as f:
            f.write(blob)
        return load_container(path)


VALID_CONTAINER = _container_bytes(
    {"w": np.arange(6.0).reshape(2, 3), "b": np.array([-1.5]), "s": np.array(2.0),
     "empty": np.zeros((0, 3))},
    {"kind": "test"})


def _raw_container(header: dict, data: bytes = b"") -> bytes:
    blob = json.dumps(header).encode("utf-8")
    return b"NKTENS01" + struct.pack("<Q", len(blob)) + blob + data


class TestContainerHeader:
    @pytest.mark.parametrize("tensors, message", [
        ([{"name": "w", "shape": [2, -1]}], "negative or oversized dimension"),
        ([{"name": "w", "shape": [2**62, 2**62, 0]}], "negative or oversized dimension"),
        ([{"name": "w", "shape": [2**63 - 1, 0]}], "negative or oversized dimension"),
        ([{"name": "w", "shape": [0]}, {"name": "w", "shape": [0]}], "repeated tensor name"),
        ([{"name": "w", "shape": [True]}], "field 'tensors[0].shape[0]' is not of type int"),
        ([{"name": "w", "shape": [2**64, 0]}], "field 'tensors[0].shape[0]' is not of type int"),
        ([{"name": 7, "shape": [0]}], "field 'tensors[0].name' is not of type str"),
        ([{"shape": [0]}], "field 'tensors[0].name' is missing"),
        ({"w": [0]}, "field 'tensors' is not of type list"),
    ])
    def test_bad_header_is_a_format_error_naming_the_fault(self, tensors, message):
        blob = _raw_container({"version": 1, "metadata": {}, "tensors": tensors})
        with pytest.raises(FormatError, match=re.escape(message)):
            _load_bytes(blob)

    def test_lone_surrogate_in_header_is_unreadable(self):
        blob = _raw_container({"version": 1, "metadata": {"kind": "\ud800"}, "tensors": []})
        with pytest.raises(FormatError, match="unreadable container header"):
            _load_bytes(blob)

    def test_zero_size_tensor_with_large_dimension_loads(self):
        blob = _raw_container({"version": 1, "metadata": {},
                               "tensors": [{"name": "w", "shape": [2**40, 0]}]})
        tensors, _ = _load_bytes(blob)
        assert tensors["w"].shape == (2**40, 0)


class TestContainerFuzz:
    """Whatever the bytes, loading a container either succeeds or raises FormatError."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=len(VALID_CONTAINER) - 1))
    def test_every_truncation_is_a_format_error(self, size):
        with pytest.raises(FormatError):
            _load_bytes(VALID_CONTAINER[:size])

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=len(VALID_CONTAINER) - 1),
                              st.integers(min_value=0, max_value=255)),
                    min_size=1, max_size=8),
           st.binary(max_size=16))
    def test_fuzzed_bytes_raise_only_format_errors(self, edits, tail):
        blob = bytearray(VALID_CONTAINER)
        for pos, value in edits:
            blob[pos] = value
        try:
            tensors, metadata = _load_bytes(bytes(blob) + tail)
        except FormatError:
            return
        assert not tail  # trailing bytes are never accepted
        assert isinstance(metadata, dict)
        assert all(a.dtype == np.float64 for a in tensors.values())

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_after_the_magic(self, body):
        with pytest.raises(FormatError):
            _load_bytes(b"NKTENS01" + body)
