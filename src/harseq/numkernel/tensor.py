"""Dense float64 tensors with explicit gradient buffers.

Everything in the kernel is 64-bit and row-major; gradients live in a
separate buffer of the same shape, zeroed at construction, that layers accumulate into.
"""

import math

import numpy as np


class Tensor:
    """A dense array plus a zeroed gradient buffer of identical shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self):
        return self.data.shape

    def numel(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)})"


def check_allocatable(shape) -> None:
    """A MemoryError, worded as numpy's own, for a float64 array of `shape` with
    more bytes than numpy can index, which numpy itself fails on with a
    ValueError or an OverflowError."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"Unable to allocate a float64 array of shape {tuple(shape)}")


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Uniform init in +/- 1/sqrt(fan_in), the default for all weights."""
    check_allocatable(shape)
    limit = 1.0 / math.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-limit, limit, size=shape))


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64))
