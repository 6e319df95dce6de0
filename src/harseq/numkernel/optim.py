"""Bias-corrected Adam over a dict of named parameters."""

import numpy as np

from .tensor import Tensor

# the usual moment decay rates and denominator guard (Kingma and Ba, arXiv:1412.6980)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam state and update rule.

    Holds first/second moment buffers per parameter and a step counter
    that increases by exactly one per call to step().
    """

    def __init__(self, params: dict, lr: float = 1e-4):
        self.params: dict[str, Tensor] = dict(params)
        self.lr = lr
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
