"""Spans around calls into harseq's public functions, wrapped from outside.

A `Tracer` replaces each traced function or method with a wrapper that
records a span: name, start, end, parent span and the region (set-up or one
operation) it ran in. A function imported by name into several modules
(`experiment.constrained_decode`, `cli.load_dataset`, ...) is replaced in
every harseq module that holds it. A target that no longer exists is listed
as absent and skipped. Spans stay in memory until `write` dumps them.

`layer_metrics` turns the spans into the per-layer metrics named in
`PER_LAYER`: busy seconds, self seconds and counts, each given per set-up
plus one operation.
"""

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _decode_windows(args, kwargs, result):
    return {"windows": int(args[1].shape[0])}


def _mode(index, default):
    return lambda args, kwargs, result: {"mode": _arg(args, kwargs, index, "mode", default)}


def _encoder_attrs(args, kwargs, result):
    return {"windows": int(args[1].shape[0]), "mode": _arg(args, kwargs, 2, "mode")}


def _file_bytes(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _csv_rows(args, kwargs, result):
    with open(_arg(args, kwargs, 0, "data_path"), "rb") as f:
        return {"rows": max(0, sum(1 for line in f if line.strip()) - 1)}


def _epochs(args, kwargs, result):
    return {"epochs": len(result[1].epochs)}


def _trie_nodes(args, kwargs, result):
    return {"trie_nodes": result.trie_node_count()}


# (module, attribute, span name, attributes taken from args and result)
TARGETS = (
    ("harseq.numkernel.layers", "Conv1d.forward", "numkernel.conv1d.fwd", None),
    ("harseq.numkernel.layers", "Conv1d.backward", "numkernel.conv1d.bwd", None),
    ("harseq.numkernel.layers", "BatchNorm1d.forward", "numkernel.batchnorm.fwd", None),
    ("harseq.numkernel.layers", "BatchNorm1d.backward", "numkernel.batchnorm.bwd", None),
    ("harseq.numkernel.layers", "LSTMCell.forward", "numkernel.lstm.fwd", None),
    ("harseq.numkernel.layers", "LSTMCell.backward", "numkernel.lstm.bwd", None),
    ("harseq.numkernel.layers", "Linear.forward", "numkernel.linear.fwd", None),
    ("harseq.numkernel.layers", "Linear.backward", "numkernel.linear.bwd", None),
    ("harseq.numkernel.losses", "softmax_cross_entropy", "numkernel.loss", None),
    ("harseq.numkernel.optim", "Adam.step", "numkernel.adam.step", None),
    ("harseq.numkernel.optim", "Adam.zero_grad", "numkernel.adam.zero_grad", None),
    ("harseq.numkernel.checkpoint", "save_container", "numkernel.checkpoint.save", _file_bytes),
    ("harseq.numkernel.checkpoint", "load_container", "numkernel.checkpoint.load", _file_bytes),
    ("harseq.model", "ConvEncoder.forward", "model.encoder.fwd", _encoder_attrs),
    ("harseq.model", "ConvEncoder.backward", "model.encoder.bwd", None),
    ("harseq.model", "constrained_decode", "model.decode", _decode_windows),
    ("harseq.model", "teacher_forced_loss", "model.teacher_forced", _mode(4, "train")),
    ("harseq.model", "vanilla_forward", "model.vanilla_forward", _mode(3, "train")),
    ("harseq.model", "snapshot_parameters", "model.snapshot", None),
    ("harseq.model", "load_model", "model.load", None),
    ("harseq.experiment", "train_share", "experiment.train_share", _epochs),
    ("harseq.experiment", "train_vanilla", "experiment.train_vanilla", _epochs),
    ("harseq.experiment", "evaluate", "experiment.evaluate", None),
    ("harseq.experiment", "compute_metrics", "experiment.metrics", None),
    ("harseq.data", "load_dataset", "data.load_csv", _csv_rows),
    ("harseq.data", "normalize", "data.normalize", None),
    ("harseq.data", "Dataset.stacked", "data.stacked", None),
    ("harseq.data", "stratified_split", "data.split", None),
    ("harseq.labelspace", "build_label_space", "labelspace.build", _trie_nodes),
    ("harseq.labelspace", "augment_label", "labelspace.augment", None),
    ("harseq.cli", "main", "cli.main", None),
    ("harseq.cli", "cmd_eval", "cli.eval", None),
)

TRAIN_SPANS = ("experiment.train_share", "experiment.train_vanilla")
EVAL_MODEL_SPANS = ("model.decode", "model.teacher_forced", "model.vanilla_forward")

# per-layer metric -> (unit, source span or spans, how it is read): "busy" sums
# durations, "self" sums self times, "calls" counts spans, any other word sums
# that span attribute, and "derived" is worked out in layer_metrics
PER_LAYER = {
    "numkernel.conv1d.fwd_s": ("s", "numkernel.conv1d.fwd", "busy"),
    "numkernel.conv1d.bwd_s": ("s", "numkernel.conv1d.bwd", "busy"),
    "numkernel.batchnorm.fwd_s": ("s", "numkernel.batchnorm.fwd", "busy"),
    "numkernel.batchnorm.bwd_s": ("s", "numkernel.batchnorm.bwd", "busy"),
    "model.encoder.fwd_s": ("s", "model.encoder.fwd", "busy"),
    "model.encoder.bwd_s": ("s", "model.encoder.bwd", "busy"),
    "model.encoder.windows": ("count", "model.encoder.fwd", "windows"),
    "numkernel.adam.step_s": ("s", "numkernel.adam.step", "busy"),
    "numkernel.adam.zero_grad_s": ("s", "numkernel.adam.zero_grad", "busy"),
    "numkernel.adam.steps": ("count", "numkernel.adam.step", "calls"),
    "model.snapshot_s": ("s", "model.snapshot", "busy"),
    "model.snapshots": ("count", "model.snapshot", "calls"),
    "numkernel.lstm.fwd_s": ("s", "numkernel.lstm.fwd", "busy"),
    "numkernel.lstm.fwd_calls": ("count", "numkernel.lstm.fwd", "calls"),
    "model.decode_s": ("s", "model.decode", "busy"),
    "model.decode.windows": ("count", "model.decode", "windows"),
    "model.decode.lstm_calls_per_batch": ("count", "model.decode", "derived"),
    "numkernel.lstm.bwd_s": ("s", "numkernel.lstm.bwd", "busy"),
    "numkernel.linear.fwd_s": ("s", "numkernel.linear.fwd", "busy"),
    "numkernel.linear.bwd_s": ("s", "numkernel.linear.bwd", "busy"),
    "numkernel.loss_s": ("s", "numkernel.loss", "busy"),
    "model.teacher_forced.self_s": ("s", "model.teacher_forced", "self"),
    "model.teacher_forced.calls": ("count", "model.teacher_forced", "calls"),
    "experiment.validation_s": ("s", TRAIN_SPANS, "derived"),
    "experiment.val_encoder_passes_per_batch": ("count", "experiment.train_share", "derived"),
    "experiment.train_share_s": ("s", "experiment.train_share", "busy"),
    "experiment.train_vanilla_s": ("s", "experiment.train_vanilla", "busy"),
    "experiment.evaluate_s": ("s", "experiment.evaluate", "busy"),
    "experiment.metrics_s": ("s", "experiment.metrics", "busy"),
    "experiment.epochs": ("count", TRAIN_SPANS, "epochs"),
    "data.load_csv_s": ("s", "data.load_csv", "busy"),
    "data.csv_rows": ("count", "data.load_csv", "rows"),
    "data.csv_rows_per_s": ("1/s", "data.load_csv", "derived"),
    "data.normalize_s": ("s", "data.normalize", "busy"),
    "data.stacked_s": ("s", "data.stacked", "busy"),
    "data.split_s": ("s", "data.split", "busy"),
    "numkernel.checkpoint.load_s": ("s", "numkernel.checkpoint.load", "busy"),
    "numkernel.checkpoint.save_s": ("s", "numkernel.checkpoint.save", "busy"),
    "numkernel.checkpoint.bytes": ("bytes", ("numkernel.checkpoint.save",
                                             "numkernel.checkpoint.load"), "bytes"),
    "model.load_s": ("s", "model.load", "busy"),
    "labelspace.build_s": ("s", "labelspace.build", "busy"),
    "labelspace.trie_nodes": ("count", "labelspace.build", "derived"),
    "labelspace.augment_s": ("s", "labelspace.augment", "busy"),
    "labelspace.augment_calls": ("count", "labelspace.augment", "calls"),
    "cli.eval_s": ("s", "cli.eval", "busy"),
    "cli.self_s": ("s", "cli.main", "self"),
}
# measured by the runner, not read from spans
RUN_METRICS = {"trace.spans": "count", "trace.overhead_pct": "%"}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "region", "attrs")

    def __init__(self, id, parent, name, start, region):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.region = region
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps the targets while installed; records spans for the current region."""

    def __init__(self, workload: str, targets=TARGETS):
        self.workload = workload
        self.targets = targets
        self.spans: list[Span] = []
        self.region = None
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list = []

    def _wrap(self, fn, name, attrs_fn):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None, name, clock(),
                        tracer.region)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "harseq" or n.startswith("harseq."))]
        self.absent = []
        for module_name, attr, name, attrs_fn in self.targets:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, attrs_fn)
            if path:  # a method: patch the class named in the target
                self._patches.append((owner, leaf, owner.__dict__.get(leaf)))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:  # a function: patch every namespace holding it
                if getattr(module, leaf, None) is original:
                    self._patches.append((module, leaf, original))
                    setattr(module, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            if original is None:  # the method was inherited
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)
        self._patches = []

    @contextlib.contextmanager
    def recording(self, region: str):
        """Trace the calls made inside the block under the given region name."""
        self.region = region
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.region = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                       "end": s.end, "region": s.region, "workload": self.workload}
                if s.attrs:
                    row.update(s.attrs)
                f.write(json.dumps(row) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    index = {s.id: i for i, s in enumerate(spans)}
    for s in spans:
        if s.parent is not None and s.parent in index:
            child[index[s.parent]] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans, n_ops: int = 1) -> dict:
    """Per-layer values from the spans of one set-up plus `n_ops` operations.

    Set-up spans count once and operation spans (region "op-*") are averaged
    over the operations. A metric whose span never ran reads 0.
    """
    by_id = {s.id: s for s in spans}
    selfs = dict(zip((s.id for s in spans), self_times(spans)))

    def ancestor(span, names):
        p = by_id.get(span.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        return p

    busy, self_busy, count = defaultdict(float), defaultdict(float), defaultdict(float)
    attr, walks = defaultdict(float), defaultdict(float)
    trie_nodes = 0
    for s in spans:
        w = 1.0 / n_ops if (s.region or "").startswith("op") else 1.0
        busy[s.name] += w * s.duration
        self_busy[s.name] += w * selfs[s.id]
        count[s.name] += w
        attrs = s.attrs or {}
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                attr[s.name, key] += w * value
        trie_nodes = max(trie_nodes, attrs.get("trie_nodes", 0))
        if s.name == "numkernel.lstm.fwd" and ancestor(s, ("model.decode",)):
            walks["decode_lstm_calls"] += w
        eval_call = s.name in EVAL_MODEL_SPANS and attrs.get("mode", "eval") == "eval"
        if eval_call and ancestor(s, TRAIN_SPANS) and not ancestor(s, EVAL_MODEL_SPANS):
            walks["validation_s"] += w * s.duration
        if ancestor(s, ("experiment.train_share",)):
            if s.name == "model.encoder.fwd" and attrs.get("mode") == "eval":
                walks["share_val_encoder_passes"] += w
            elif s.name == "model.decode":
                walks["share_val_batches"] += w

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "model.decode.lstm_calls_per_batch": ratio(walks["decode_lstm_calls"],
                                                   count["model.decode"]),
        "experiment.validation_s": walks["validation_s"],
        "experiment.val_encoder_passes_per_batch": ratio(walks["share_val_encoder_passes"],
                                                         walks["share_val_batches"]),
        "data.csv_rows_per_s": ratio(attr["data.load_csv", "rows"], busy["data.load_csv"]),
        "labelspace.trie_nodes": float(trie_nodes),
    }
    out = {}
    for name, (_, source, how) in PER_LAYER.items():
        sources = (source,) if isinstance(source, str) else source
        if how == "derived":
            out[name] = derived[name]
        else:
            table = {"busy": busy, "self": self_busy, "calls": count}.get(how)
            out[name] = sum(table[s] if table is not None else attr[s, how] for s in sources)
    return out


def absent_metrics(absent_spans) -> list:
    """PER_LAYER names whose source spans all have no target any more."""
    gone = set(absent_spans)
    return [name for name, (_, source, _) in PER_LAYER.items()
            if set((source,) if isinstance(source, str) else source) <= gone]
