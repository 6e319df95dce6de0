"""The encoder's channel-major activations: bits against the frozen formulas,
the memory an eval pass holds, and the layers' aliasing contract."""

import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import FrozenEncoder

from harseq.model import EVAL_BLOCK_STEPS, ConvEncoder, EncoderConfig
from harseq.numkernel import BatchNorm1d, Conv1d, ReLU

BATCHES = (1, 3, 16, 256)
TIMES = (3, 7, 64)


def _assert_same(live, frozen, what):
    assert live.shape == frozen.shape, what
    assert np.array_equal(live, frozen), f"{what}: max |diff| {np.abs(live - frozen).max()}"


@pytest.mark.parametrize("kernel", [3, 5])
@pytest.mark.parametrize("widths", [(4, 6), (64, 128)])
def test_encoder_matches_frozen_formulas_bit_for_bit(widths, kernel):
    """Every shape runs on one encoder. Each train step runs an eval forward
    on other data between its forward and backward, as validation can."""
    rng = np.random.default_rng(7)
    encoder = ConvEncoder(EncoderConfig(4, widths, kernel), np.random.default_rng(1))
    frozen = FrozenEncoder(encoder)
    params = {prefix: layer.parameters() for prefix, layer in encoder.layers().items()}
    for b, t in itertools.product(BATCHES, TIMES):
        where = f"B={b} T={t}"
        x = rng.normal(size=(b, 4, t))
        _assert_same(encoder.forward(x, "train", cache=True), frozen.forward(x, "train"),
                     f"train output {where}")
        x_other = rng.normal(size=(b + 1, 4, t))
        _assert_same(encoder.forward(x_other, "eval", cache=False),
                     frozen.forward(x_other, "eval"), f"eval output between {where}")
        grad_z = rng.normal(size=(b, widths[1]))
        for layer_params in params.values():
            for p in layer_params.values():
                p.zero_grad()
        dx, grads = frozen.backward(grad_z)
        _assert_same(encoder.backward(grad_z), dx, f"input gradient {where}")
        for prefix, layer_grads in grads.items():
            for name, g in layer_grads.items():
                _assert_same(params[prefix][name].grad, g, f"{prefix}.{name} gradient {where}")
        for prefix, stats in frozen.running_stats().items():
            for name, value in stats.items():
                _assert_same(encoder.layers()[prefix].buffers()[name], value,
                             f"{prefix}.{name} {where}")
        _assert_same(encoder.forward(x, "eval", cache=False), frozen.forward(x, "eval"),
                     f"eval output {where}")


def _layers():
    """(name, layer factory, input channels), BatchNorm with running statistics set."""
    def batchnorm():
        bn = BatchNorm1d(3)
        bn.forward(np.random.default_rng(5).normal(size=(4, 3, 6)), "train", cache=False)
        return bn

    return [("conv1d", lambda: Conv1d(3, 5, rng=np.random.default_rng(0)), 3),
            ("batchnorm1d", batchnorm, 3),
            ("relu", ReLU, 3)]


def _inputs(rng, b, c, t):
    """A batch-major input and a channel-major one, as the encoder passes."""
    return [rng.normal(size=(b, c, t)),
            np.ascontiguousarray(rng.normal(size=(c, b, t))).transpose(1, 0, 2)]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("name,make,channels", _layers())
def test_layers_leave_caller_arrays_unchanged(name, make, channels, mode):
    rng = np.random.default_rng(11)
    layer = make()
    for x in _inputs(rng, 4, channels, 6):
        x_before = x.copy()
        out = layer.forward(x, mode)
        assert np.array_equal(x, x_before), f"{name} {mode} forward wrote into its input"
        if mode == "train":
            grad_out = rng.normal(size=out.shape)
            grad_before = grad_out.copy()
            layer.backward(grad_out)
            assert np.array_equal(grad_out, grad_before), f"{name} backward wrote into grad_out"
            assert np.array_equal(x, x_before), f"{name} backward wrote into the input"


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("name,make,channels", _layers())
def test_returned_arrays_survive_later_calls(name, make, channels, mode):
    rng = np.random.default_rng(12)
    layer = make()
    for x1, x2 in zip(_inputs(rng, 4, channels, 6), _inputs(rng, 4, channels, 6)):
        out1 = layer.forward(x1, mode)
        kept = out1.copy()
        if mode == "train":
            dx1 = layer.backward(rng.normal(size=out1.shape))
            dx_kept = dx1.copy()
        out2 = layer.forward(x2, mode)
        if mode == "train":
            layer.backward(rng.normal(size=out2.shape))
            assert np.array_equal(dx1, dx_kept), f"{name} reused a returned gradient"
        assert np.array_equal(out1, kept), f"{name} {mode} reused a returned output"


@pytest.mark.parametrize("name,make,channels", _layers())
def test_nested_train_forwards_give_the_paired_gradients(name, make, channels):
    """forward x1, forward x2, backward g2, backward g1 (a cache per call,
    popped last-in first-out) against two forward/backward pairs."""
    rng = np.random.default_rng(13)
    x1, x2 = _inputs(rng, 4, channels, 6)
    paired, nested = make(), make()
    outs = [paired.forward(x1, "train")]
    g1 = rng.normal(size=outs[0].shape)
    dx1 = paired.backward(g1)
    outs.append(paired.forward(x2, "train"))
    g2 = rng.normal(size=outs[1].shape)
    dx2 = paired.backward(g2)

    nested_outs = [nested.forward(x1, "train"), nested.forward(x2, "train")]
    nested_dx2 = nested.backward(g2)
    nested_dx1 = nested.backward(g1)
    for a, b in zip(outs + [dx1, dx2], nested_outs + [nested_dx1, nested_dx2]):
        assert np.array_equal(a, b), name
    for pname, p in paired.parameters().items():
        assert np.array_equal(p.grad, nested.parameters()[pname].grad), f"{name}.{pname}"
    for bname, a in paired.buffers().items():
        assert np.array_equal(a, nested.buffers()[bname]), f"{name}.{bname}"


def _eval_ready(widths, channels=4, kernel=3):
    """An encoder with random running statistics, marked initialized, and its frozen twin."""
    rng = np.random.default_rng(3)
    encoder = ConvEncoder(EncoderConfig(channels, widths, kernel), np.random.default_rng(1))
    for bn in (encoder.bn1, encoder.bn2):
        bn.running_mean[:] = rng.normal(size=bn.channels)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.channels)
        bn.initialized = True
    return encoder, FrozenEncoder(encoder)


@pytest.mark.parametrize("widths", [(4, 6), (64, 128)])
@pytest.mark.parametrize("b,t", [(150, 64), (3, 5000)])
def test_blocked_eval_matches_frozen_formulas(widths, b, t):
    """B=150 at T=64 is two full 64-window blocks and a ragged 22; T=5000 is
    one window per block."""
    encoder, frozen = _eval_ready(widths)
    x = np.random.default_rng(8).normal(size=(b, 4, t))
    live, expected = encoder.forward(x, "eval", cache=False), frozen.forward(x, "eval")
    _assert_same(live, expected, f"blocked eval B={b} T={t}")
    # feature-major, as an unblocked pass returns it
    assert live.strides == expected.strides == (8, 8 * b)


def test_eval_buffers_stay_one_block_and_train_still_matches():
    widths, kernel, channels = (64, 128), 3, 4
    encoder, frozen = _eval_ready(widths, channels, kernel)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1000, channels, 64))
    w1, w2 = widths
    # h1 and h2, plus the im2col columns of both convolutions, for one block
    block_bytes = 8 * EVAL_BLOCK_STEPS * (w1 + w2 + channels * kernel + w1 * kernel)
    feature_bytes = 8 * 1000 * w2
    tracemalloc.start()
    try:
        z = encoder.forward(x, "eval", cache=False)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert z.nbytes == feature_bytes
    assert peak <= block_bytes + feature_bytes, "an eval pass held more than one block"
    assert held <= feature_bytes + 64 * 1024, "an eval pass kept arrays beyond its features"

    x = rng.normal(size=(16, channels, 64))
    _assert_same(encoder.forward(x, "train", cache=True), frozen.forward(x, "train"),
                 "train output B=16 after blocked eval")
    grad_z = rng.normal(size=(16, w2))
    dx, grads = frozen.backward(grad_z)
    _assert_same(encoder.backward(grad_z), dx, "input gradient B=16 after blocked eval")
    for prefix, layer_grads in grads.items():
        for name, g in layer_grads.items():
            _assert_same(encoder.layers()[prefix].parameters()[name].grad, g,
                         f"{prefix}.{name} gradient after blocked eval")
