"""Neural-network layers with explicit forward/backward passes.

There is no autodiff tape: each layer caches what its backward pass needs
on a small stack, so a layer reused inside a loop (the LSTM cell, the
decoder output projection) supports backpropagation through time by
popping caches in reverse order. Backward calls accumulate into each
parameter's ``grad`` (zeros from construction) and return the input gradient.

Forward passes push a cache only when ``cache=True`` (the default in
train mode); eval-mode passes are pure.

Memory layout and aliasing of the convolutional layers (`Conv1d`,
`BatchNorm1d`, `ReLU`):

- Shapes are ``[batch, channels, time]``. `Conv1d` alone picks a layout:
  it allocates its output and its input gradient channel-major
  (``[channels, batch, time]``), the memory order of its GEMMs.
  BatchNorm and ReLU write theirs in the memory order of their input, so
  no layer copies in order to re-layout. Every reduction runs over the
  same memory order as when each expression allocated its own result, so
  the bits do not depend on where a result is written.
- A layer never writes into an array its caller passed in, except into an
  ``out=`` array the caller names, numpy-style. Only BatchNorm and ReLU
  take ``out=``, and it may be the input itself, which runs them in place.
  Otherwise forward and backward return a fresh array, so a returned array
  stays valid after later calls.

Every array is allocated per call: long-lived work buffers bought no speed
and held memory between calls (without them, in 5 perfbench pairs, peak RSS
fell 129.3 -> 104.9 MB on eval-100 and 74.1 -> 66.4 MB on train-100).
"""

import numpy as np

from ..errors import DimensionError, InvariantError, ValidationError
from .tensor import Tensor, uniform_init, zeros


class Layer:
    """Base class: named parameters and buffers plus a LIFO stack of forward caches.

    Parameters are trained; buffers are checkpointed arrays that are not.
    """

    def __init__(self):
        self._caches = []

    def parameters(self) -> dict:
        return {}

    def buffers(self) -> dict:
        return {}

    def _pop_cache(self):
        if not self._caches:
            raise InvariantError(
                f"{type(self).__name__}.backward called without a matching "
                "train-mode forward (cache stack is empty)"
            )
        return self._caches.pop()

    @staticmethod
    def _want_cache(mode: str, cache) -> bool:
        return (mode == "train") if cache is None else bool(cache)


class Conv1d(Layer):
    """1D cross-correlation, stride 1, zero padding of kernel_size // 2, no bias.

    The time dimension is preserved exactly. Weight shape is
    [out_channels, in_channels, kernel_size]. There is no bias: the encoder
    feeds each convolution into batch norm, whose mean subtraction cancels
    it, so it would train on rounding noise (arXiv:1502.03167). Forward
    returns a fresh channel-major output. Backward takes the weight gradient
    from the [out_channels, batch·time] gradient matrix, a view when the
    gradient is channel-major, and adds the column gradients back (col2im)
    into one fresh channel-major input gradient.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size % 2 != 1:
            raise ValidationError("conv1d kernel size must be odd for same-length output")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = uniform_init(rng, (out_channels, in_channels, kernel_size),
                                   fan_in=in_channels * kernel_size)

    def parameters(self):
        return {"weight": self.weight}

    def _shifts(self, t: int):
        """(j, s, lo, hi) per kernel tap j: output times [lo, hi) read input times
        shifted by s = j - pad; the rest fall in the zero padding."""
        pad = self.kernel_size // 2
        for j in range(self.kernel_size):
            s = j - pad
            lo = min(max(0, -s), t)
            yield j, s, lo, max(min(t, t - s), lo)

    def forward(self, x: np.ndarray, mode: str = "train", cache=None) -> np.ndarray:
        if x.ndim != 3:
            raise DimensionError(f"conv1d expects a [batch, channels, time] input, got {x.ndim} axes")
        if x.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv1d channel axis mismatch: input has {x.shape[1]} channels, "
                f"layer expects {self.in_channels}")
        b, c, t = x.shape
        k = self.kernel_size
        # [O, B*T], allocated before the columns: allocated after them (`W @ cols`), a
        # 256-window eval pass at default widths faulted about 6100 pages, not 0
        out = np.empty((self.out_channels, b * t))
        # im2col: [C*K, B*T], tap j of channel i in rows i*K + j, zero-padded edges
        cols = np.empty((c * k, b * t))
        taps = cols.reshape(c, k, b, t)
        xt = x.transpose(1, 0, 2)
        for j, s, lo, hi in self._shifts(t):
            taps[:, j, :, :lo] = 0.0
            taps[:, j, :, hi:] = 0.0
            taps[:, j, :, lo:hi] = xt[:, :, lo + s:hi + s]
        np.matmul(self.weight.data.reshape(self.out_channels, c * k), cols, out=out)
        if self._want_cache(mode, cache):
            self._caches.append((cols, (b, c, t)))
        return out.reshape(self.out_channels, b, t).transpose(1, 0, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cols, (b, c, t) = self._pop_cache()
        k = self.kernel_size
        # [O, B*T]: a view of a channel-major gradient, a copy of any other
        dout2 = grad_out.transpose(1, 0, 2).reshape(self.out_channels, b * t)
        self.weight.grad += (cols @ dout2.T).T.reshape(self.out_channels, c, k)
        dcols = (self.weight.data.reshape(self.out_channels, c * k).T @ dout2)
        dcols = dcols.reshape(c, k, b, t)
        # col2im, channel-major: the centre tap covers every time, so it is
        # copied in, and the other taps add in kernel order over their ranges
        pad = k // 2
        dx = dcols[:, pad].copy()
        for j, s, lo, hi in self._shifts(t):
            if j != pad:
                dx[:, :, lo + s:hi + s] += dcols[:, j, :, lo:hi]
        return dx.transpose(1, 0, 2)


class BatchNorm1d(Layer):
    """Per-channel batch normalization over the batch and time axes.

    Train mode normalizes with batch statistics and updates the running
    estimates with momentum 0.1; eval mode requires the running statistics
    to have been populated by at least one train-mode pass.

    Backward needs two reductions per channel over the batch and time axes,
    Σg and Σg·x̂, which are also the β and γ gradients: with n = batch·time,
    dx = γ·inv_std/n · (n·g − Σg − x̂·Σg·x̂), computed as
    (γ·inv_std)·g − (x̂·(γ·inv_std·Σg·x̂/n) + γ·inv_std·Σg/n). It returns dx
    in the memory order of g, written into `out` when given (it may be g).
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        self.gamma = Tensor(np.ones(channels))
        self.beta = zeros((channels,))
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.initialized = False

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x: np.ndarray, mode: str = "train", cache=None, out=None) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise DimensionError(
                f"batchnorm1d expects [batch, {self.channels}, time], got {x.shape}")
        want_cache = self._want_cache(mode, cache)
        if want_cache and mode != "train":
            raise InvariantError("batchnorm1d backward requires a train-mode forward")
        b, c, t = x.shape
        n = b * t
        if out is None:
            out = np.empty_like(x)
        if mode == "train":
            if n < 2:
                raise ValidationError(
                    f"batchnorm1d needs at least 2 values per channel in train mode, got {n}")
            # x - mean once, its square reduced in x's memory order as x.var does
            mean = x.mean(axis=(0, 2))
            np.subtract(x, mean[None, :, None], out=out)
            xhat = np.empty_like(x)
            var = np.multiply(out, out, out=xhat).sum(axis=(0, 2)) / n
            m = self.momentum
            unbiased = var * (n / (n - 1))
            self.running_mean = (1.0 - m) * self.running_mean + m * mean
            self.running_var = (1.0 - m) * self.running_var + m * unbiased
            self.initialized = True
        else:
            if not self.initialized:
                raise InvariantError(
                    "batchnorm1d running statistics are uninitialized; "
                    "run at least one train-mode pass first")
            mean = self.running_mean
            var = self.running_var
            xhat = np.subtract(x, mean[None, :, None], out=out)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        np.multiply(out, inv_std[None, :, None], out=xhat)
        np.multiply(xhat, self.gamma.data[None, :, None], out=out)
        out += self.beta.data[None, :, None]
        if want_cache:
            self._caches.append((xhat, inv_std, n))
        return out

    def backward(self, grad_out: np.ndarray, out=None) -> np.ndarray:
        xhat, inv_std, n = self._pop_cache()
        # both sums are read before `out`, which may be grad_out, is written
        sum_gx = np.einsum("bct,bct->c", grad_out, xhat)
        sum_g = np.einsum("bct->c", grad_out)
        self.gamma.grad += sum_gx
        self.beta.grad += sum_g
        scale = self.gamma.data * inv_std
        shift = np.multiply(xhat, (scale * sum_gx / n)[None, :, None])
        shift += (scale * sum_g / n)[None, :, None]
        dx = np.multiply(grad_out, scale[None, :, None], out=out)
        dx -= shift
        return dx


class ReLU(Layer):
    def forward(self, x: np.ndarray, mode: str = "train", cache=None, out=None) -> np.ndarray:
        if self._want_cache(mode, cache):
            self._caches.append(np.greater(x, 0.0))
        return np.maximum(x, 0.0, out=out)

    def backward(self, grad_out: np.ndarray, out=None) -> np.ndarray:
        mask = self._pop_cache()
        return np.multiply(grad_out, mask, out=out)


class Linear(Layer):
    """Affine map [batch, in] -> [batch, out] with weight shape [out, in]."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = uniform_init(rng, (out_dim, in_dim), fan_in=in_dim)
        self.bias = zeros((out_dim,))

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x: np.ndarray, mode: str = "train", cache=None) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"linear feature axis mismatch: input has shape {x.shape}, "
                f"layer expects [batch, {self.in_dim}]")
        out = x @ self.weight.data.T + self.bias.data[None, :]
        if self._want_cache(mode, cache):
            self._caches.append(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._pop_cache()
        self.weight.grad += grad_out.T @ x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data


class Embedding(Layer):
    """Token id -> row lookup into a [num_tokens, dim] table."""

    def __init__(self, num_tokens: int, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.num_tokens = num_tokens
        self.dim = dim
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = uniform_init(rng, (num_tokens, dim), fan_in=dim)

    def parameters(self):
        return {"weight": self.weight}

    def forward(self, ids: np.ndarray, mode: str = "train", cache=None) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_tokens):
            bad = ids[(ids < 0) | (ids >= self.num_tokens)][0]
            raise IndexError(f"token id {int(bad)} outside vocabulary of size {self.num_tokens}")
        out = self.weight.data[ids]
        if self._want_cache(mode, cache):
            self._caches.append(ids)
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        ids = self._pop_cache()
        np.add.at(self.weight.grad, ids, grad_out)


class LSTMCell(Layer):
    """Standard 4-gate LSTM cell (gate order: input, forget, cell, output).

    One call advances the recurrence by a single step; each train-mode
    call pushes its own cache, so unrolled sequences backpropagate by
    calling backward once per step in reverse order.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        rng = rng if rng is not None else np.random.default_rng(0)
        self.w_x = uniform_init(rng, (4 * hidden_dim, input_dim), fan_in=input_dim)
        self.w_h = uniform_init(rng, (4 * hidden_dim, hidden_dim), fan_in=hidden_dim)
        self.bias = zeros((4 * hidden_dim,))

    def parameters(self):
        return {"w_x": self.w_x, "w_h": self.w_h, "bias": self.bias}

    def forward(self, x: np.ndarray, h: np.ndarray, c: np.ndarray,
                mode: str = "train", cache=None):
        d = self.hidden_dim
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(
                f"lstm_cell input axis mismatch: got {x.shape}, expects [batch, {self.input_dim}]")
        if h.shape != (x.shape[0], d) or c.shape != (x.shape[0], d):
            raise DimensionError(
                f"lstm_cell state axis mismatch: h {h.shape}, c {c.shape}, "
                f"expected [batch, {d}]")
        a = x @ self.w_x.data.T
        a += h @ self.w_h.data.T
        h_new, c_new, gates = self._gates(a, c)
        if self._want_cache(mode, cache):
            self._caches.append((x, h, c, *gates))
        return h_new, c_new

    def step(self, x_term: np.ndarray, h_term: np.ndarray, c: np.ndarray):
        """Eval-only step from precomputed terms x·W_xᵀ and h·W_hᵀ.

        A [4H] `x_term` row is broadcast over the batch, so callers can take
        the input term of a fixed token from a per-token table and reuse one
        recurrent term for every step that starts from the same state.
        Nothing is cached. Returns (h_new, c_new), bit-identical to `forward`
        given the same terms.
        """
        return self._gates(x_term + h_term, c)[:2]

    def _gates(self, a: np.ndarray, c: np.ndarray):
        """The pointwise core on a = x·W_xᵀ + h·W_hᵀ, which it owns and adds b to in
        place, so the sums run in the order (x·W_xᵀ + h·W_hᵀ) + b.

        Returns (h_new, c_new, (gi, gf, gg, go, tc)).
        """
        d = self.hidden_dim
        a += self.bias.data
        gi = _sigmoid(a[:, :d])
        gf = _sigmoid(a[:, d:2 * d])
        gg = np.tanh(a[:, 2 * d:3 * d])
        go = _sigmoid(a[:, 3 * d:])
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        return go * tc, c_new, (gi, gf, gg, go, tc)

    def backward(self, grad_h: np.ndarray, grad_c: np.ndarray):
        x, h, c, gi, gf, gg, go, tc = self._pop_cache()
        d_o = grad_h * tc
        dc_total = grad_c + grad_h * go * (1.0 - tc * tc)
        d_f = dc_total * c
        d_i = dc_total * gg
        d_g = dc_total * gi
        dc_prev = dc_total * gf
        dai = d_i * gi * (1.0 - gi)
        daf = d_f * gf * (1.0 - gf)
        dag = d_g * (1.0 - gg * gg)
        dao = d_o * go * (1.0 - go)
        da = np.concatenate([dai, daf, dag, dao], axis=1)
        self.w_x.grad += da.T @ x
        self.w_h.grad += da.T @ h
        self.bias.grad += da.sum(axis=0)
        dx = da @ self.w_x.data
        dh_prev = da @ self.w_h.data
        return dx, dh_prev, dc_prev


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below.

    Both formulas share ex = e^-|x| and differ only in the numerator, 1 or
    ex. Since 0 <= ex <= 1, max(ex, x >= 0) selects it per element without
    a masked gather/scatter or a data-dependent branch, and the result is
    bit-identical to evaluating each formula on its own half.
    """
    ex = np.abs(x)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    out = np.maximum(ex, x >= 0, dtype=np.float64)
    ex += 1.0
    out /= ex
    return out
