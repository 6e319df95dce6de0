"""One training loop, evaluation metrics, and the few-shot/imbalance protocols.

Both models are trained by the same loop and scored by the same code, through
the two methods they share: `batch_loss(x, y, rng, p_aug)` for a training
step and `class_log_scores(x)` for [batch, classes] log-scores (summed token
log-probabilities from the trie walk for the sequence model, the head's
log-softmax for the baseline). Training runs a fixed epoch budget with a
stratified train/validation split; the parameters from the epoch with the
best validation macro-F1 are restored at the end. Token-level augmentation
happens only inside the training batches. Validation and test score the
original label sequences: the prediction is the argmax of the class
log-scores, and one scoring pass per chunk also gives the validation loss.
All randomness is drawn from one generator seeded by the config.

Work is spread over forked worker processes, at most one per CPU, through one
seam (`_map_in_workers`): the protocol suites train each cell's two models as
separate tasks side by side, and scoring hands whole EVAL_CHUNK chunks to the
workers when there are at least FORKED_SCORING_MIN_CHUNKS of them. A process
that is itself a worker, or that runs other Python threads, does all of its
work in process.
"""

import functools
import json
import math
import os
import sys
import threading
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import (
    Dataset,
    compute_normalization_stats,
    downsample,
    normalize,
    stratified_split,
    subsample_train,
)
from .errors import NumericError, ValidationError, check_finite_windows
from .labelspace import LabelSpace, load_embeddings
from .model import (
    EncoderConfig,
    ShareModel,
    VanillaModel,
    count_parameters,
    snapshot_parameters,
)
from .model import constrained_decode  # noqa: F401 -- perfbench's tracer self-check reads it here
from .numkernel import Adam

# windows per scoring or feature-export call: bounds the trie walk's [batch, 4H]
# temporaries and fixes each window's encoder block, which can move its last bits
EVAL_CHUNK = 256
# the fewest EVAL_CHUNK chunks that scoring hands to forked workers; fewer are scored
# here. Measured on 2 CPUs with a six-class linear head at default widths, where the
# encoder's GEMMs dominate: 2 to 6 chunks in two workers took 1.49x down to 0.90-1.02x
# the time in process at two BLAS threads, 7 chunks 0.94x and 8 chunks 0.84-0.87x.
FORKED_SCORING_MIN_CHUNKS = 7


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-4
    p_aug: float = 0.5
    val_fraction: float = 0.2
    seed: int = 0
    embedding_path: str | None = None
    label_map_path: str | None = None
    stop_tokens_path: str | None = None
    conv_channels: tuple = (64, 128)
    hidden_dim: int = 128
    embed_dim: int = 64
    retrain_full: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValidationError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValidationError("batch size must be at least 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError("val fraction must lie in (0, 1)")
        if not 0.0 <= self.p_aug <= 1.0:
            raise ValidationError("p_aug must lie in [0, 1]")
        if not 0 < self.learning_rate < math.inf:  # also rejects NaN
            raise ValidationError(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")

    def as_dict(self) -> dict:
        return {**asdict(self), "conv_channels": list(self.conv_channels)}


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: tuple
    recall: tuple
    f1: tuple
    macro_f1: float
    confusion: tuple  # rows = truth, cols = prediction

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "Metrics":
        return Metrics(**{f.name: _tuples(d[f.name]) for f in fields(Metrics)})


def _tuples(value):
    """`value` with every list, nested ones included, turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def compute_metrics(y_true, y_pred, num_classes: int) -> Metrics:
    """Accuracy, per-class precision/recall/F1, macro-F1, confusion matrix.

    Per-class F1 is 0 whenever precision + recall is 0, so classes absent
    from both truth and predictions still count in the macro mean.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValidationError("prediction and truth vectors differ in length")
    if y_true.size == 0:
        raise ValidationError("cannot compute metrics of an empty set")
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (y_true, y_pred), 1)
    precision, recall, f1 = [], [], []
    for c in range(num_classes):
        tp = int(conf[c, c])
        pred_c = int(conf[:, c].sum())
        true_c = int(conf[c, :].sum())
        p = tp / pred_c if pred_c > 0 else 0.0
        r = tp / true_c if true_c > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2.0 * p * r / (p + r) if (p + r) > 0 else 0.0)
    accuracy = int(np.trace(conf)) / int(conf.sum())
    macro_f1 = sum(f1) / num_classes
    return Metrics(accuracy=accuracy, precision=tuple(precision), recall=tuple(recall),
                   f1=tuple(f1), macro_f1=macro_f1,
                   confusion=tuple(tuple(int(v) for v in row) for row in conf))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_macro_f1: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    model_kind: str
    config: dict
    seed: int
    parameter_count: int
    epochs: list = field(default_factory=list)
    final_test: Metrics | None = None
    wall_clock_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)  # epochs and final_test become dicts as well

    @staticmethod
    def from_dict(d: dict) -> "RunRecord":
        return RunRecord(**{
            **{f.name: d[f.name] for f in fields(RunRecord)},
            "epochs": [EpochRecord(**e) for e in d["epochs"]],
            "final_test": Metrics.from_dict(d["final_test"]) if d["final_test"] else None})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunRecord":
        return RunRecord.from_dict(json.loads(text))


def _split_for_training(dataset: Dataset, config: TrainConfig):
    train_ds, val_ds = stratified_split(dataset, config.val_fraction, seed=config.seed)
    empty = np.flatnonzero(np.bincount(train_ds.class_ids, minlength=dataset.num_classes) == 0)
    if empty.size:
        names = [dataset.label_names[c] for c in empty]
        raise ValidationError(f"classes with no training samples: {names!r}")
    if config.epochs > 0 and len(val_ds) == 0:
        raise ValidationError("validation split is empty; dataset too small for val_fraction")
    return train_ds, val_ds


class _Chunks(tuple):
    """The first rows of the EVAL_CHUNK slices that one scoring worker takes."""

    def __str__(self):
        return f"the scoring chunks at rows {', '.join(map(str, self))}"


def _score_chunks(model, x: np.ndarray, space: LabelSpace | None = None) -> list:
    """(first row, class log-scores) per EVAL_CHUNK-window slice of x, in order.

    With at least FORKED_SCORING_MIN_CHUNKS chunks and an OpenBLAS thread
    setter, k = min(chunks, CPUs) workers score them (`_map_in_workers`),
    worker j taking chunks j, j + k, and so on. Each chunk is scored whole, so
    every window keeps its encoder block. A worker scores at one BLAS thread:
    where OpenBLAS splits a GEMM unevenly over this process's threads (the
    110-window encoder blocks at T=37 on two), the last bits can differ.
    """
    starts = range(0, x.shape[0], EVAL_CHUNK)
    k = (min(len(starts), len(os.sched_getaffinity(0)))
         if len(starts) >= FORKED_SCORING_MIN_CHUNKS and _blas_thread_setter() else 1)

    def score(chunks):
        return [(lo, model.class_log_scores(x[lo:lo + EVAL_CHUNK], space)) for lo in chunks]

    parts = _map_in_workers(score, [_Chunks(starts[j::k]) for j in range(k)])
    return sorted((chunk for part in parts for chunk in part), key=lambda chunk: chunk[0])


def _validate(model, x: np.ndarray, y: np.ndarray, num_classes: int):
    """Validation loss and metrics from one scoring pass per chunk.

    A window's loss is its true class's negative log-score per prediction:
    the teacher-forced loss on the original label, or the cross entropy.
    """
    total = 0.0
    preds = np.empty(len(y), dtype=np.int64)
    for lo, scores in _score_chunks(model, x):
        n = scores.shape[0]
        truth = y[lo:lo + n]
        weights = 1.0 / (n * model.steps_per_class[truth])
        total += float(-(weights * scores[np.arange(n), truth]).sum()) * n
        preds[lo:lo + n] = scores.argmax(axis=1)
    return total / len(y), compute_metrics(y, preds, num_classes)


def _fit(model, fit_ds: Dataset, epochs: int, rng, config: TrainConfig, val=None) -> list:
    """Adam on `model.batch_loss` over shuffled batches for a fixed epoch count.

    With stacked validation arrays, each epoch is scored and recorded, and the
    parameters of the best macro-F1 epoch are restored; returns the records.
    A non-finite batch loss stops training with a NumericError.
    """
    opt = Adam(model.parameters(), lr=config.learning_rate)
    x_tr, y_tr = fit_ds.stacked()
    history, best = [], (-1.0, None)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(y_tr))
        total = 0.0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            opt.zero_grad()
            loss = model.batch_loss(x_tr[idx], y_tr[idx], rng, config.p_aug)
            if not math.isfinite(loss):
                raise NumericError(f"non-finite training loss {loss} in epoch {epoch} "
                                   f"(learning rate {config.learning_rate:g})")
            opt.step()
            total += loss * len(idx)
        if val is None:
            continue
        val_loss, val_metrics = _validate(model, *val, fit_ds.num_classes)
        history.append(EpochRecord(epoch=epoch, train_loss=total / len(y_tr),
                                   val_loss=val_loss, val_macro_f1=val_metrics.macro_f1))
        if val_metrics.macro_f1 > best[0]:
            best = (val_metrics.macro_f1, snapshot_parameters(model))
    if best[1] is not None:
        model.load_state(best[1], bn_initialized=True)
    return history


def _train(dataset: Dataset, config: TrainConfig, build):
    """Fit `build(encoder_config, rng)` on a windowed, normalized dataset.

    With retrain_full, a second `build` from a fresh generator of the same
    seed is fit on all of the data for the best epoch count.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    train_ds, val_ds = _split_for_training(dataset, config)
    enc = EncoderConfig(in_channels=dataset.channels, conv_channels=tuple(config.conv_channels))
    model = build(enc, rng)
    record = RunRecord(model_kind=model.kind, config=config.as_dict(), seed=config.seed,
                       parameter_count=count_parameters(model))
    record.epochs = _fit(model, train_ds, config.epochs, rng, config, val_ds.stacked())
    if config.retrain_full and record.epochs:
        best_epoch = 1 + int(np.argmax([e.val_macro_f1 for e in record.epochs]))
        rng = np.random.default_rng(config.seed)
        model = build(enc, rng)
        _fit(model, dataset, best_epoch, rng, config)
    record.wall_clock_seconds = time.perf_counter() - started
    return model, record


def train_share(dataset: Dataset, space: LabelSpace, config: TrainConfig):
    """Train the sequence model on augmented teacher forcing, selecting the epoch
    by constrained decoding of the validation split; returns (model, RunRecord)."""
    if space.num_classes != dataset.num_classes:
        raise ValidationError(
            f"label space has {space.num_classes} classes, dataset has {dataset.num_classes}")
    table = None

    def build(enc, rng):
        nonlocal table
        if config.embedding_path and table is None:  # first build only; a rebuild reuses it
            table = load_embeddings(config.embedding_path, space, config.embed_dim, rng)
        return ShareModel(space, enc, hidden_dim=config.hidden_dim,
                          embed_dim=config.embed_dim, embedding_table=table, rng=rng)

    return _train(dataset, config, build)


def train_vanilla(dataset: Dataset, config: TrainConfig):
    """Train the linear-head baseline with the same loop, minus augmentation."""
    return _train(dataset, config,
                  lambda enc, rng: VanillaModel(dataset.num_classes, enc, rng=rng))


def predict_classes(model, x: np.ndarray, space: LabelSpace | None = None) -> np.ndarray:
    """Argmax of the class log-scores, lowest id on ties. The sequence model
    decodes over `space` (default: its own); the baseline ignores it. A window
    whose scores are not finite is a NumericError that names it."""
    preds = np.empty(x.shape[0], dtype=np.int64)
    for lo, scores in _score_chunks(model, x, space):
        check_finite_windows(scores, "has class scores that are not finite: its values "
                                     "overflow float64 in the model", lo)
        preds[lo:lo + scores.shape[0]] = scores.argmax(axis=1)
    return preds


def evaluate(model, dataset: Dataset, space: LabelSpace | None = None) -> Metrics:
    """Score a dataset with constrained decoding (sequence model) or argmax."""
    x, y = dataset.stacked()
    preds = predict_classes(model, x, space)
    return compute_metrics(y, preds, dataset.num_classes)


@dataclass(frozen=True)
class _Task:
    """One model of one suite cell: train it on `train`, score it on `test`, and
    record the cell's `value` under `key`."""
    kind: str  # "share" or "vanilla"
    train: Dataset
    test: Dataset
    space: LabelSpace
    config: TrainConfig
    key: str
    value: object

    def __str__(self):
        return f"the {self.kind} model of {self.key} {self.value}, seed {self.config.seed}"


def _run_task(task: _Task) -> RunRecord:
    if task.kind == "share":
        model, record = train_share(task.train, task.space, task.config)
    else:
        model, record = train_vanilla(task.train, task.config)
    record.final_test = evaluate(model, task.test, task.space)
    record.config[task.key] = task.value
    return record


@functools.cache
def _blas_thread_setter():
    """The thread-count setter exported by the OpenBLAS this process has loaded,
    as `/proc/self/maps` names it, or None; forked workers inherit the lookup."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps
                            if "openblas" in line})
    except OSError:
        return None
    names = [f"{p}openblas_set_num_threads{s}" for p in ("", "scipy_") for s in ("", "64_")]
    for setter in (getattr(lib, n) for lib in map(ctypes.CDLL, paths) for n in names
                   if hasattr(lib, n)):
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return setter
    return None


def _end_with_parent(parent: int) -> None:
    """Ask the kernel (Linux `prctl(PR_SET_PDEATHSIG)`) to kill this process when
    its parent ends; exit at once if `parent` has ended already."""
    import ctypes
    import signal

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _work(func, item, conn, parent: int) -> None:
    """A forked worker: end with `parent`, set one BLAS thread (without a setter
    the inherited count stays, and workers side by side oversubscribe the
    CPUs), run `func(item)`, and send (result, exception, warnings) to the
    parent."""
    _end_with_parent(parent)
    if (setter := _blas_thread_setter()) is not None:
        setter(1)
    result = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = func(item)
        except Exception as exc:
            error = exc
    conn.send((result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]))


def _warn_again(caught) -> None:
    """Issue a worker's warnings here, each under the module and registry that
    its source file has in this process, so repeats are shown as in process."""
    for message, category, filename, lineno in caught:
        scope = next((vars(m) for m in list(sys.modules.values())
                      if getattr(m, "__file__", None) == filename), {})
        warnings.warn_explicit(message, category, filename, lineno, module=scope.get("__name__"),
                               registry=scope.setdefault("__warningregistry__", {}))


def _map_in_workers(func, items: list) -> list:
    """`func(item)` for each item, in order.

    With one item or one CPU, with other Python threads running (forking those
    is unsafe), or in a process that is itself a worker (a worker never starts
    workers), the items run here, one after the other. Otherwise each runs in
    a forked child (`_work`), at most one per CPU at a time, in item order, and
    this process only waits. A child ends with this process, and its warnings
    are issued again here. The first failing item in list order raises its
    exception here, or a RuntimeError if its child ended without a result;
    later items then do not start, and running ones are killed. No child
    outlives the call.
    """
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers <= 1 or threading.active_count() > 1 or _in_worker():
        return [func(item) for item in items]
    import multiprocessing.connection

    fork = multiprocessing.get_context("fork")
    queued, running, outcomes, failed = iter(range(len(items))), {}, {}, len(items)
    try:
        while True:
            while len(running) < workers and (i := next(queued, failed)) < failed:
                reader, writer = fork.Pipe(duplex=False)
                proc = fork.Process(target=_work, args=(func, items[i], writer, os.getpid()))
                proc.start()  # flushes this process's stdio first
                writer.close()
                running[reader] = i, proc
            if not running:
                break
            for reader in multiprocessing.connection.wait(list(running)):
                i, proc = running[reader]
                try:
                    outcome = reader.recv()
                except (EOFError, OSError):  # no result, or one cut short
                    outcome = None
                proc.join()
                del running[reader]
                outcomes[i] = outcome or (None, RuntimeError(
                    f"the worker for {items[i]} exited with code {proc.exitcode} "
                    "without a result"), [])
                if outcomes[i][1] is not None and i < failed:
                    failed = i
                    for j, other in running.values():
                        if j > failed:
                            other.kill()
    finally:
        for _, proc in running.values():
            proc.kill()
            proc.join()
    for i in range(len(items)):  # ends at the first failure: later outcomes may be missing
        _warn_again(outcomes[i][2])
        if outcomes[i][1] is not None:
            raise outcomes[i][1]
    return [outcomes[i][0] for i in range(len(items))]


def _in_worker() -> bool:
    """Whether this process is a `multiprocessing` child, a worker among them."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


def _run_tasks(tasks: list) -> list:
    """The record of each suite task, in order, through `_map_in_workers`."""
    return _map_in_workers(_run_task, tasks)


def _run_cells(cells, seeds, space: LabelSpace, config: TrainConfig, key: str) -> list:
    """Train and test both models per (value, seed, train, test) cell, normalized
    with the cell's training statistics; `key` names the value in the records.
    Every seed is checked through TrainConfig, and every cell is built, before
    `_run_tasks` trains anything."""
    configs = {seed: replace(config, seed=seed) for seed in seeds}
    tasks = []
    for value, seed, train, test in cells:
        stats = compute_normalization_stats(train)
        tr, te = normalize(train, stats), normalize(test, stats)
        tasks += [_Task(kind, tr, te, space, configs[seed], key, value)
                  for kind in ("share", "vanilla")]
    return _run_tasks(tasks)


def _check_test_labels(train_dataset: Dataset, test_dataset: Dataset) -> None:
    """A suite scores the test set's class ids against the training set's label
    names, so both sets must have the same names in the same order."""
    train, test = list(train_dataset.label_names), list(test_dataset.label_names)
    if test != train:
        raise ValidationError(f"the test set has labels {test!r}, but the training set's, "
                              f"in order, are {train!r}")


def run_fewshot_suite(train_dataset: Dataset, test_dataset: Dataset, space: LabelSpace,
                      fractions, seeds, config: TrainConfig):
    """Reduced-training-sample protocol over fractions x seeds x both models.

    Each cell subsamples the training set. Every fraction must lie in (0, 1],
    and the test set must have the training set's label names; both are
    checked before the first cell trains. Returns one RunRecord per
    (fraction, seed, model).
    """
    _check_test_labels(train_dataset, test_dataset)
    bad = [f for f in fractions if not 0.0 < f <= 1.0]
    if bad:
        raise ValidationError(f"fractions must lie in (0, 1], got {bad}")
    cells = ((fraction, seed, subsample_train(train_dataset, fraction, seed), test_dataset)
             for fraction in fractions for seed in seeds)
    return _run_cells(cells, seeds, space, config, "train_fraction")


def run_downsample_suite(train_dataset: Dataset, test_dataset: Dataset, space: LabelSpace,
                         factors, seeds, config: TrainConfig):
    """Reduced-sampling-frequency protocol. Every factor must be at least 1, and
    the test set must have the training set's label names; both are checked
    before the first cell trains. Factors leaving too few timesteps are
    skipped with a warning."""
    _check_test_labels(train_dataset, test_dataset)
    bad = [f for f in factors if f < 1]
    if bad:
        raise ValidationError(f"downsample factors must be at least 1, got {bad}")

    def cells():
        for factor in factors:
            try:
                tr_ds = downsample(train_dataset, factor)
                te_ds = downsample(test_dataset, factor)
            except ValidationError as exc:
                warnings.warn(f"skipping downsample factor {factor}: {exc}")
                continue
            for seed in seeds:
                yield factor, seed, tr_ds, te_ds

    return _run_cells(cells(), seeds, space, config, "downsample_factor")


def export_features(model, dataset: Dataset, path) -> None:
    """Write eval-mode encoder features plus class ids as CSV (d + 1 columns). A
    window whose features are not finite is a NumericError, raised before the
    file is opened."""
    x, y = dataset.stacked()
    dim = model.encoder_config.feature_dim
    z = np.concatenate([np.zeros((0, dim))] + [
        model.encoder.forward(x[lo:lo + EVAL_CHUNK], "eval", cache=False)
        for lo in range(0, x.shape[0], EVAL_CHUNK)])
    check_finite_windows(z, "has encoder features that are not finite: its values overflow "
                            "float64 in the model")
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(f"f{i}" for i in range(dim)) + ",class_id\n")
        for row, cid in zip(z, y):
            f.write(",".join(repr(float(v)) for v in row) + f",{int(cid)}\n")


def write_records_json(records, path) -> None:
    payload = {"records": [r.to_dict() for r in records]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def load_records_json(path):
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    return [RunRecord.from_dict(d) for d in payload["records"]]


def summarize_records(records) -> list:
    """Mean +/- std of test accuracy and macro-F1 per (cell, model) group."""
    groups: dict = {}
    for r in records:
        cell = r.config.get("train_fraction", r.config.get("downsample_factor", "full"))
        groups.setdefault((cell, r.model_kind), []).append(r)
    rows = []
    for (cell, kind) in sorted(groups, key=lambda k: (str(k[0]), k[1])):
        runs = groups[(cell, kind)]
        row = {"cell": cell, "model": kind, "runs": len(runs)}
        for metric in ("accuracy", "macro_f1"):
            values = np.array([getattr(r.final_test, metric) for r in runs if r.final_test])
            row.update({f"{metric}_mean": float(values.mean()),
                        f"{metric}_std": float(values.std())})
        rows.append(row)
    return rows


def write_summary_csv(records, path) -> None:
    rows = summarize_records(records)
    cols = ["cell", "model", "runs", "accuracy_mean", "accuracy_std",
            "macro_f1_mean", "macro_f1_std"]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(str(row[c]) for c in cols) + "\n")


def write_confusion_csv(metrics: Metrics, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in metrics.confusion:
            f.write(",".join(str(v) for v in row) + "\n")
