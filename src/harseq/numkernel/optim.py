"""Bias-corrected Adam over one flat parameter store."""

import numpy as np

from .tensor import Tensor

# the usual moment decay rates and denominator guard (Kingma and Ba, arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# elements stepped per pass: two scratch arrays of this size hold every temporary
BLOCK = 32768


class Adam:
    """Adam state and update rule.

    Construction moves the parameters into one flat store: `data` and `grad`
    are two flat float64 arrays, each parameter's `data` and `grad` become
    views of them (same shapes, same values, in the order of `params`), and
    the moments `m` and `v` are flat arrays of the same length. So `step()`
    walks the store in blocks of `BLOCK` elements, in place, with its
    temporaries in two block-sized scratch arrays, and `zero_grad()` is one
    fill. Each element takes the same operations in the same order as the
    per-parameter update, so the bits are the same. A parameter whose `data`
    or `grad` is later replaced by another array is no longer stepped.

    The step counter increases by exactly one per call to step().
    """

    def __init__(self, params: dict, lr: float = 1e-4):
        self.params: dict[str, Tensor] = dict(params)
        self.lr = lr
        size = sum(p.numel() for p in self.params.values())
        self.data = np.empty(size)
        self.grad = np.empty(size)
        lo = 0
        for p in self.params.values():
            hi = lo + p.numel()
            self.data[lo:hi] = p.data.ravel()
            self.grad[lo:hi] = p.grad.ravel()
            p.data = self.data[lo:hi].reshape(p.shape)
            p.grad = self.grad[lo:hi].reshape(p.shape)
            lo = hi
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty((2, min(size, BLOCK)))
        self.step_count = 0

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for lo in range(0, self.data.size, BLOCK):
            g = self.grad[lo:lo + BLOCK]
            m = self.m[lo:lo + BLOCK]
            v = self.v[lo:lo + BLOCK]
            s, r = self._scratch[:, :g.size]
            # m = β1·m + (1 − β1)·g; v = β2·v + (1 − β2)·g²
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            np.multiply(g, g, out=s)
            s *= 1.0 - BETA2
            v += s
            # data −= lr·(m/bc1) / (√(v/bc2) + ε)
            np.divide(m, bc1, out=s)
            s *= self.lr
            np.divide(v, bc2, out=r)
            np.sqrt(r, out=r)
            r += EPS
            s /= r
            self.data[lo:lo + BLOCK] -= s
