"""Shared test helpers: independent oracles and small synthetic setups."""

import os
import time
from multiprocessing.context import ForkProcess

import numpy as np
import pytest
from hypothesis import strategies as st

from harseq import experiment
from harseq.data import SyntheticSpec, generate_synthetic
from harseq.experiment import TrainConfig
from harseq.labelspace import END_ID, START_ID
from harseq.numkernel import log_softmax
from harseq.numkernel.optim import BETA1, BETA2, EPS


def per_class_oracle_scores(model, space, x):
    """Independent decode scorer: teacher-force each class alone, no trie sharing."""
    z = model.encoder.forward(x, "eval", cache=False)
    h0 = model.init_h.forward(z, "eval", cache=False)
    c0 = model.init_c.forward(z, "eval", cache=False)
    batch = x.shape[0]
    scores = np.zeros((batch, space.num_classes))
    for seq in space.sequences:
        h, c = h0, c0
        total = np.zeros(batch)
        inputs = (START_ID,) + seq.tokens
        targets = seq.tokens + (END_ID,)
        for tok_in, tok_tgt in zip(inputs, targets):
            logits, h, c = model.decode_step(np.full(batch, tok_in, dtype=np.int64), h, c)
            total += log_softmax(logits)[:, tok_tgt]
        scores[:, seq.class_id] = total
    return scores


def naive_metrics(y_true, y_pred, num_classes):
    """O(N*C) reference implementation, independent of the vectorized one.

    Returns (accuracy, precision list, recall list, f1 list, macro_f1,
    confusion list-of-lists). Summation orders match the contract: per-class
    loops in class-id order, sequential sums.
    """
    n = len(y_true)
    confusion = [[0 for _ in range(num_classes)] for _ in range(num_classes)]
    for t, p in zip(y_true, y_pred):
        confusion[t][p] += 1
    correct = 0
    for t, p in zip(y_true, y_pred):
        if t == p:
            correct += 1
    accuracy = correct / n
    precision, recall, f1 = [], [], []
    for c in range(num_classes):
        tp = fp = fn = 0
        for t, p in zip(y_true, y_pred):
            if p == c and t == c:
                tp += 1
            elif p == c and t != c:
                fp += 1
            elif p != c and t == c:
                fn += 1
        prec = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        rec = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2.0 * prec * rec / (prec + rec) if (prec + rec) > 0 else 0.0)
    total = 0.0
    for v in f1:
        total += v
    return accuracy, precision, recall, f1, total / num_classes, confusion


def small_synthetic(noise=0.0, per_class=40, timesteps=32, channels=4,
                    class_defs=((0, 0), (0, 1), (1, 2), (1, 3)), seed=0):
    counts = per_class if isinstance(per_class, tuple) else (per_class,) * len(class_defs)
    spec = SyntheticSpec(class_defs=class_defs, samples_per_class=counts,
                         noise_std=noise, timesteps=timesteps, channels=channels, seed=seed)
    return generate_synthetic(spec)


def small_config(**overrides):
    base = dict(epochs=5, batch_size=16, learning_rate=3e-3, p_aug=0.5,
                val_fraction=0.2, seed=0, conv_channels=(8, 12),
                hidden_dim=12, embed_dim=6)
    base.update(overrides)
    return TrainConfig(**base)


def naive_csv_windows(rows, window, stride, label_names=None):
    """Reference CSV windowing over (subject, label, channel values) rows in file order.

    Contiguous rows sharing (subject, label), or the subject alone without
    label_names, form a run; windows start at range(0, run length - window + 1,
    stride). Returns (windows as [channel][time] lists, class ids or None).
    """
    runs = []
    for subject, label, values in rows:
        key = subject if label_names is None else (subject, label)
        if runs and runs[-1][0] == key:
            runs[-1][1].append(values)
        else:
            runs.append((key, [values]))
    windows, class_ids = [], []
    for key, run in runs:
        for start in range(0, len(run) - window + 1, stride):
            part = run[start:start + window]
            windows.append([[row[ch] for row in part] for ch in range(len(part[0]))])
            if label_names is not None:
                class_ids.append(list(label_names).index(key[1]))
    return windows, None if label_names is None else class_ids


# byte strings a CSV edit writes: structure (separators, line ends, quotes), cells
# that float() reads or rejects or reads as non-finite, labels known and unknown,
# and bytes that are not UTF-8
CSV_TOKENS = [b"", b"7", b"1e5", b",", b"\n", b"\r", b"\r\n", b'"', b" ", b"\t", b"\x00", b"#",
              b"-", b".", b"e", b"1_0", b"nan", b"-inf", b"1e400", b"walk", b"run", b"jog", b"s2",
              "\u0661".encode(), "\u2003".encode(), b"\xff\xfe", b"\xc3"]


@st.composite
def csv_edits(draw, size):
    """Up to three edits of a `size`-byte file: (offset, bytes removed, bytes written)."""
    return draw(st.lists(st.tuples(st.integers(0, size), st.sampled_from((0, 0, 1, 5)),
                                   st.sampled_from(CSV_TOKENS)), min_size=1, max_size=3))


def edited_bytes(data: bytes, edits) -> bytes:
    """`data` after each (offset, bytes removed, bytes written) edit in turn."""
    for offset, removed, written in edits:
        offset = min(offset, len(data))
        data = data[:offset] + written + data[offset + removed:]
    return data


class FrozenEncoder:
    """The encoder's conv -> batchnorm -> relu formulas, frozen as the bit-level
    reference: the forward as it stood before the encoder kept its activations
    channel-major, and the backward with the channel-major pooled gradient and the
    two-sum batch norm. The convolutions have no bias, eval-mode batch norm is
    one affine map per channel, and train-mode batch norm takes its statistics
    by einsum and keeps the centred input, not x̂, for backward.

    Each expression allocates its own result, so numpy picks every memory
    order, and with it the order of every reduction. Parameters are copied
    from a live `model.ConvEncoder` at construction; running statistics start
    from that encoder's too and are updated by train-mode forwards here.
    """

    def __init__(self, encoder):
        self.k = encoder.config.kernel_size
        self.conv = [encoder.conv1.weight.data.copy(), encoder.conv2.weight.data.copy()]
        self.bn = [[encoder.bn1.gamma.data.copy(), encoder.bn1.beta.data.copy(),
                    encoder.bn1.running_mean.copy(), encoder.bn1.running_var.copy()],
                   [encoder.bn2.gamma.data.copy(), encoder.bn2.beta.data.copy(),
                    encoder.bn2.running_mean.copy(), encoder.bn2.running_var.copy()]]
        self.eps, self.momentum = encoder.bn1.eps, encoder.bn1.momentum
        self.caches = []

    def _conv(self, x, weight):
        b, c, t = x.shape
        k, pad = self.k, self.k // 2
        out_channels = weight.shape[0]
        xpad = np.zeros((b, c, t + 2 * pad), dtype=np.float64)
        xpad[:, :, pad:pad + t] = x
        cols = np.stack([xpad[:, :, j:j + t] for j in range(k)], axis=2)
        cols = cols.transpose(1, 2, 0, 3).reshape(c * k, b * t)
        w2 = weight.reshape(out_channels, c * k)
        out = (w2 @ cols).reshape(out_channels, b, t).transpose(1, 0, 2)
        return out, cols

    def _conv_backward(self, grad_out, cols, weight, shape):
        b, c, t = shape
        k, pad = self.k, self.k // 2
        out_channels = weight.shape[0]
        dout2 = grad_out.transpose(1, 0, 2).reshape(out_channels, b * t)
        dw = (cols @ dout2.T).T.reshape(out_channels, c, k)
        dcols = (weight.reshape(out_channels, c * k).T @ dout2).reshape(c, k, b, t)
        # channel-major; the centre tap first, then the others in kernel order
        dxpad = np.zeros((c, b, t + 2 * pad), dtype=np.float64)
        dxpad[:, :, pad:pad + t] = dcols[:, pad]
        for j in range(k):
            if j != pad:
                dxpad[:, :, j:j + t] += dcols[:, j]
        return dxpad[:, :, pad:pad + t].transpose(1, 0, 2), dw

    def _bn(self, x, i, mode):
        gamma, beta, running_mean, running_var = self.bn[i]
        if mode != "train":
            # one affine map per channel: x·s + (β − μ·s), s = γ/√(var+ε)
            scale = gamma / np.sqrt(running_var + self.eps)
            return x * scale[None, :, None] + (beta - running_mean * scale)[None, :, None], None
        b, c, t = x.shape
        n = b * t
        # einsum statistics, the variance two-pass over the centred array
        mean = np.einsum("bct->c", x) / n
        centred = x - mean[None, :, None]
        var = np.einsum("bct,bct->c", centred, centred) / n
        m = self.momentum
        self.bn[i][2] = (1.0 - m) * running_mean + m * mean
        self.bn[i][3] = (1.0 - m) * running_var + m * (var * (n / (n - 1)))
        inv_std = 1.0 / np.sqrt(var + self.eps)
        out = centred * (gamma * inv_std)[None, :, None] + beta[None, :, None]
        return out, (centred, inv_std, n)

    def _bn_backward(self, grad_out, i, cache):
        centred, inv_std, n = cache
        gamma = self.bn[i][0]
        dgamma = np.einsum("bct,bct->c", grad_out, centred) * inv_std
        dbeta = np.einsum("bct->c", grad_out)
        scale = gamma * inv_std
        dx = grad_out * scale[None, :, None] - (
            centred * (inv_std * (scale * dgamma / n))[None, :, None]
            + (scale * dbeta / n)[None, :, None])
        return dx, dgamma, dbeta

    def forward(self, x, mode):
        """Returns the [batch, feature] output; a train-mode call keeps its caches."""
        caches = []
        h = x
        for i in range(2):
            shape = h.shape
            h, cols = self._conv(h, self.conv[i])
            h, bn_cache = self._bn(h, i, mode)
            mask = h > 0.0
            h = np.maximum(h, 0.0)
            caches.append((cols, shape, bn_cache, mask))
        if mode == "train":
            self.caches.append((caches, h.shape[2]))
        return h.mean(axis=2)

    def backward(self, grad_z):
        """Returns {layer prefix: {parameter name: gradient}}."""
        caches, t = self.caches.pop()
        # channel-major, as the live encoder lays its pooled gradient out
        grad = np.repeat(grad_z.T[:, :, None], t, axis=2).transpose(1, 0, 2) / t
        grads = {}
        for i in (1, 0):
            cols, shape, bn_cache, mask = caches[i]
            grad = grad * mask
            grad, dgamma, dbeta = self._bn_backward(grad, i, bn_cache)
            grad, dw = self._conv_backward(grad, cols, self.conv[i], shape)
            grads[f"enc.bn{i + 1}"] = {"gamma": dgamma, "beta": dbeta}
            grads[f"enc.conv{i + 1}"] = {"weight": dw}
        return grads

    def running_stats(self):
        return {f"enc.bn{i + 1}": {"running_mean": self.bn[i][2], "running_var": self.bn[i][3]}
                for i in range(2)}


class PerParameterAdam:
    """Adam as it stepped each parameter with its own moments and temporaries,
    frozen as the bit-level reference for `numkernel.Adam`'s flat store."""

    def __init__(self, params: dict, lr: float):
        self.params = dict(params)
        self.lr = lr
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.step_count = 0

    def step(self):
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


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` makes the suites see n CPUs, so they run in process (1) or in
    up to n workers, whatever this machine has."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def worker_procs(monkeypatch):
    """Every worker process forked through `multiprocessing` while the test runs;
    each keeps its `exitcode`."""
    procs = []
    start = ForkProcess.start

    def recorded(self):
        procs.append(self)
        start(self)

    monkeypatch.setattr(ForkProcess, "start", recorded)
    return procs


@pytest.fixture
def in_worker(monkeypatch):
    """`in_worker(action)` makes a suite worker run `action(task)` in place of the
    task, through `experiment._run_task`, which forked workers inherit. In the
    test process itself the patched function raises, so an action that exits
    cannot end the test run."""
    parent = os.getpid()

    def patch(action):
        def run(task):
            if os.getpid() == parent:
                raise AssertionError(f"{task} ran in the test process")
            return action(task)

        monkeypatch.setattr(experiment, "_run_task", run)

    return patch


class InWorker:
    """Stands in for a suite task: under `in_worker(InWorker.run)`, a worker
    given it calls `func(*args)`."""

    def __init__(self, func, *args):
        self.func, self.args = func, args

    def run(self):
        return self.func(*self.args)

    def __str__(self):
        return f"{self.func.__name__}{self.args}"


def exit_after(seconds, code):
    time.sleep(seconds)
    os._exit(code)


def touch(path):
    open(path, "w").close()
