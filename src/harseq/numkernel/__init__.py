"""Minimal deterministic float64 tensor kernel.

Layers expose explicit forward/backward passes with cached activations;
gradients are verified against the finite-difference oracle in the tests.
"""

from .tensor import Tensor, check_allocatable, uniform_init, zeros
from .layers import Layer, Conv1d, BatchNorm1d, ReLU, Linear, Embedding, LSTMCell
from .losses import log_softmax, softmax_cross_entropy
from .optim import Adam
from .gradcheck import finite_difference_grad, max_relative_error
from .checkpoint import save_container, load_container

__all__ = [
    "Tensor", "check_allocatable", "uniform_init", "zeros",
    "Layer", "Conv1d", "BatchNorm1d", "ReLU", "Linear", "Embedding", "LSTMCell",
    "log_softmax", "softmax_cross_entropy",
    "Adam",
    "finite_difference_grad", "max_relative_error",
    "save_container", "load_container",
]
