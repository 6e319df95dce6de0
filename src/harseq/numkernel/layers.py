"""Neural-network layers with explicit forward/backward passes.

There is no autodiff tape: each layer caches what its backward pass needs
on a small stack, so a layer reused inside a loop (the LSTM cell, the
decoder output projection) supports backpropagation through time by
popping caches in reverse order. Backward calls accumulate into each
parameter's ``grad`` buffer and return the gradient w.r.t. their inputs.

Forward passes push a cache only when ``cache=True`` (the default in
train mode); eval-mode passes are pure.
"""

import numpy as np

from ..errors import DimensionError, InvariantError, ValidationError
from .tensor import Tensor, uniform_init, zeros


class Layer:
    """Base class: named parameters plus a LIFO stack of forward caches."""

    def __init__(self):
        self._caches = []

    def parameters(self) -> dict:
        return {}

    def clear_caches(self) -> None:
        self._caches.clear()

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
    """1D cross-correlation, stride 1, zero padding of kernel_size // 2.

    The time dimension is preserved exactly. Weight shape is
    [out_channels, in_channels, kernel_size].
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
        self.bias = zeros((out_channels,))

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x: np.ndarray, mode: str = "train", cache=None) -> np.ndarray:
        if x.ndim != 3:
            raise DimensionError(f"conv1d expects a [batch, channels, time] input, got {x.ndim} axes")
        if x.shape[1] != self.in_channels:
            raise DimensionError(
                f"conv1d channel axis mismatch: input has {x.shape[1]} channels, "
                f"layer expects {self.in_channels}")
        b, c, t = x.shape
        k = self.kernel_size
        pad = k // 2
        xpad = np.zeros((b, c, t + 2 * pad), dtype=np.float64)
        xpad[:, :, pad:pad + t] = x
        # im2col: [C*K, B*T] then one matmul against [O, C*K]
        cols = np.stack([xpad[:, :, j:j + t] for j in range(k)], axis=2)
        cols = cols.transpose(1, 2, 0, 3).reshape(c * k, b * t)
        w2 = self.weight.data.reshape(self.out_channels, c * k)
        out = (w2 @ cols).reshape(self.out_channels, b, t).transpose(1, 0, 2)
        out = out + self.bias.data[None, :, None]
        if self._want_cache(mode, cache):
            self._caches.append((cols, (b, c, t)))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        cols, (b, c, t) = self._pop_cache()
        k = self.kernel_size
        pad = k // 2
        dout2 = grad_out.transpose(1, 0, 2).reshape(self.out_channels, b * t)
        dw = (dout2 @ cols.T).reshape(self.out_channels, c, k)
        self.weight.ensure_grad()
        self.weight.grad += dw
        self.bias.ensure_grad()
        self.bias.grad += grad_out.sum(axis=(0, 2))
        dcols = (self.weight.data.reshape(self.out_channels, c * k).T @ dout2)
        dcols = dcols.reshape(c, k, b, t)
        dxpad = np.zeros((b, c, t + 2 * pad), dtype=np.float64)
        for j in range(k):
            dxpad[:, :, j:j + t] += dcols[:, j].transpose(1, 0, 2)
        return dxpad[:, :, pad:pad + t]


class BatchNorm1d(Layer):
    """Per-channel batch normalization over the batch and time axes.

    Train mode normalizes with batch statistics and updates the running
    estimates with the configured momentum; eval mode requires the running
    statistics to have been populated by at least one train-mode pass.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels))
        self.beta = zeros((channels,))
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.initialized = False

    def parameters(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def forward(self, x: np.ndarray, mode: str = "train", cache=None) -> np.ndarray:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise DimensionError(
                f"batchnorm1d expects [batch, {self.channels}, time], got {x.shape}")
        b, c, t = x.shape
        if mode == "train":
            n = b * t
            if n < 2:
                raise ValidationError(
                    f"batchnorm1d needs at least 2 values per channel in train mode, got {n}")
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
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
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
        out = self.gamma.data[None, :, None] * xhat + self.beta.data[None, :, None]
        if self._want_cache(mode, cache):
            if mode != "train":
                raise InvariantError("batchnorm1d backward requires a train-mode forward")
            self._caches.append((xhat, inv_std, b * t))
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, inv_std, n = self._pop_cache()
        self.gamma.ensure_grad()
        self.gamma.grad += (grad_out * xhat).sum(axis=(0, 2))
        self.beta.ensure_grad()
        self.beta.grad += grad_out.sum(axis=(0, 2))
        dxhat = grad_out * self.gamma.data[None, :, None]
        sum_d = dxhat.sum(axis=(0, 2), keepdims=True)
        sum_dx = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
        return (inv_std[None, :, None] / n) * (n * dxhat - sum_d - xhat * sum_dx)


class ReLU(Layer):
    def forward(self, x: np.ndarray, mode: str = "train", cache=None) -> np.ndarray:
        out = np.maximum(x, 0.0)
        if self._want_cache(mode, cache):
            self._caches.append(x > 0.0)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._pop_cache()
        return grad_out * mask


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
        self.weight.ensure_grad()
        self.weight.grad += grad_out.T @ x
        self.bias.ensure_grad()
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
        self.weight.ensure_grad()
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
        # Built in place; the sums run in the order (x·W_x + h·W_h) + b.
        a = x @ self.w_x.data.T
        a += h @ self.w_h.data.T
        a += self.bias.data
        gi = _sigmoid(a[:, :d])
        gf = _sigmoid(a[:, d:2 * d])
        gg = np.tanh(a[:, 2 * d:3 * d])
        go = _sigmoid(a[:, 3 * d:])
        c_new = gf * c + gi * gg
        tc = np.tanh(c_new)
        h_new = go * tc
        if self._want_cache(mode, cache):
            self._caches.append((x, h, c, gi, gf, gg, go, tc))
        return h_new, c_new

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
        self.w_x.ensure_grad()
        self.w_x.grad += da.T @ x
        self.w_h.ensure_grad()
        self.w_h.grad += da.T @ h
        self.bias.ensure_grad()
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
