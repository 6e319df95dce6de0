"""The three workloads. Each builds its inputs from the seed in `setup`,
runs one operation through harseq's public entry points in `run`, turns the
result into a checkable output in `collect` (untimed) and checks a list of
outputs in `check`.

Calls into the layers go through module attributes (`harseq.data.normalize`)
so that a traced run sees them; the one bookkeeping call, `stratified_split`
to count training windows, is imported by name and so stays untraced.

`tiny=True` shrinks every shape so the self-check runs in seconds.
"""

import contextlib
import csv
import io
import json
import os

import numpy as np

import harseq.cli
import harseq.data
import harseq.experiment
import harseq.labelspace
import harseq.model
from harseq.data import (
    SyntheticSpec,
    compute_normalization_stats,
    generate_synthetic,
    stratified_split,
)
from harseq.experiment import TrainConfig
from harseq.model import EncoderConfig, ShareModel

from checks import (
    check_eval,
    check_record,
    check_repeats_agree,
    confusion,
    oracle_predictions,
)

NOISE = 1.6


def _hundred_defs(num_classes: int, actions: int) -> tuple:
    """Classes named "action{i % actions} object{i}"."""
    return tuple((i % actions, i) for i in range(num_classes))


class FewshotTail:
    name = "fewshot-tail"
    why = ("one cell of the few-shot protocol on the six-class tail set: "
           "encoder and Adam carry it, trie decoding over 6 classes is small")
    CLASS_DEFS = ((0, 0), (0, 1), (2, 0), (2, 1), (0, 2), (2, 2))
    TAIL_IDS = (4, 5)

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.counts, self.test_per_class, self.timesteps = (10,) * 4 + (4,) * 2, 3, 16
            self.config = TrainConfig(epochs=1, learning_rate=1e-3, conv_channels=(4, 6),
                                      hidden_dim=6, embed_dim=4, seed=seed)
        else:
            # the acceptance-6 cell cut to 4 of its 40 epochs, so one run times several cells
            self.counts, self.test_per_class, self.timesteps = (200,) * 4 + (10,) * 2, 50, 64
            self.config = TrainConfig(epochs=4, learning_rate=1e-3, conv_channels=(32, 64),
                                      hidden_dim=64, embed_dim=32, seed=seed)

    def _spec(self, counts, seed):
        return SyntheticSpec(class_defs=self.CLASS_DEFS, samples_per_class=counts,
                             noise_std=NOISE, timesteps=self.timesteps, channels=4, seed=seed)

    def setup(self) -> None:
        self.train = generate_synthetic(self._spec(self.counts, self.seed))
        self.test = generate_synthetic(
            self._spec((self.test_per_class,) * len(self.CLASS_DEFS), self.seed + 1000))
        self.space = harseq.labelspace.build_label_space(self.train.label_names)
        fit, _ = stratified_split(self.train, self.config.val_fraction, self.config.seed)
        self.train_windows = len(fit)

    def run(self):
        return harseq.experiment.run_fewshot_suite(
            self.train, self.test, self.space, fractions=[1.0], seeds=[self.seed],
            config=self.config)

    def collect(self, records):
        return records

    def windows(self) -> int:
        """Training windows stepped per cell, both models."""
        return 2 * self.config.epochs * self.train_windows

    def quality(self, records) -> dict:
        out = {}
        for r in records:
            out[f"{r.model_kind}_macro_f1"] = r.final_test.macro_f1
            out[f"{r.model_kind}_tail_f1"] = float(
                np.mean([r.final_test.f1[c] for c in self.TAIL_IDS]))
        return out

    def check(self, outputs) -> list:
        errors = [[e for r in records for e in check_record(r, len(self.test))]
                  for records in outputs]
        if any(errors):
            return errors
        return check_repeats_agree([self.quality(records) for records in outputs])

    def summary(self, outputs, op_s: float) -> dict:
        return {"cell_s": op_s, **self.quality(outputs[0])}


class EvalHundred:
    name = "eval-100"
    why = ("CLI eval of a CSV recording over 100 classes and a 211-node trie: "
           "constrained decoding dominates, no backward pass and no Adam")

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.num_classes, self.actions, self.per_class, self.timesteps = 12, 3, 2, 16
            self.model_shape = dict(conv_channels=(4, 6), hidden_dim=6, embed_dim=4)
        else:
            self.num_classes, self.actions, self.per_class, self.timesteps = 100, 10, 20, 64
            self.model_shape = dict(conv_channels=(64, 128), hidden_dim=128, embed_dim=64)
        self.run_dir = os.path.join(workdir, "model")
        self.csv_path = os.path.join(workdir, "test.csv")
        self.out_dir = os.path.join(workdir, "eval")

    def setup(self) -> None:
        spec = SyntheticSpec(class_defs=_hundred_defs(self.num_classes, self.actions),
                             samples_per_class=(self.per_class,) * self.num_classes,
                             noise_std=NOISE, timesteps=self.timesteps, channels=4,
                             seed=self.seed)
        ds = generate_synthetic(spec)
        with open(self.csv_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["subject", "timestamp", "label"] + [f"ch{i}" for i in range(4)])
            row = 0
            for s in ds.samples:
                label = ds.label_names[s.class_id]
                for values in s.values.T:
                    writer.writerow(["s1", row, label] + [repr(float(v)) for v in values])
                    row += 1
        stats = compute_normalization_stats(ds)
        space = harseq.labelspace.build_label_space(ds.label_names)
        rng = np.random.default_rng(self.seed)
        model = ShareModel(space, EncoderConfig(in_channels=4,
                                                conv_channels=self.model_shape["conv_channels"]),
                           hidden_dim=self.model_shape["hidden_dim"],
                           embed_dim=self.model_shape["embed_dim"], rng=rng)
        self.x, self.y = harseq.data.normalize(ds, stats).stacked()
        pick = rng.choice(len(self.y), size=min(256, len(self.y)), replace=False)
        model.encoder.forward(self.x[pick], "train", cache=False)  # batch-norm statistics
        harseq.model.save_model(model, self.run_dir, normalization=stats,
                                extra={"original_label_names": list(ds.label_names),
                                       "window": self.timesteps, "stride": self.timesteps})
        with open(os.path.join(self.run_dir, "labels.txt"), "w", encoding="utf-8") as f:
            f.write("\n".join(ds.label_names) + "\n")

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return harseq.cli.main(["eval", "--model", self.run_dir, "--data", self.csv_path,
                                    "--out", self.out_dir])

    def collect(self, exit_code):
        metrics = {}
        path = os.path.join(self.out_dir, "metrics.json")
        if exit_code == 0:
            with open(path, "r", encoding="utf-8") as f:
                metrics = json.load(f)
            os.remove(path)
        return exit_code, metrics

    def windows(self) -> int:
        return len(self.y)

    def check(self, outputs) -> list:
        model, _ = harseq.model.load_model(self.run_dir)
        expected = confusion(self.y, oracle_predictions(model, model.space, self.x),
                             self.num_classes)
        return [check_eval(code, metrics, expected) for code, metrics in outputs]

    def summary(self, outputs, op_s: float) -> dict:
        return {"eval_windows_per_s": self.windows() / op_s,
                "macro_f1_untrained": outputs[0][1].get("macro_f1")}


class TrainHundred:
    name = "train-100"
    why = ("train_share with default sizes over 100 classes: teacher forcing over a "
           "112-token vocabulary plus validation decoding over the 211-node trie")

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.num_classes, self.actions, self.per_class, self.timesteps = 12, 3, 5, 16
            self.config = TrainConfig(epochs=1, conv_channels=(4, 6), hidden_dim=6,
                                      embed_dim=4, seed=seed)
        else:
            self.num_classes, self.actions, self.per_class, self.timesteps = 100, 10, 8, 64
            self.config = TrainConfig(epochs=2, seed=seed)

    def _dataset(self, per_class, seed):
        return generate_synthetic(SyntheticSpec(
            class_defs=_hundred_defs(self.num_classes, self.actions),
            samples_per_class=(per_class,) * self.num_classes, noise_std=NOISE,
            timesteps=self.timesteps, channels=4, seed=seed))

    def setup(self) -> None:
        train = self._dataset(self.per_class, self.seed)
        stats = compute_normalization_stats(train)
        self.train = harseq.data.normalize(train, stats)
        self.test = harseq.data.normalize(self._dataset(2, self.seed + 1000), stats)
        self.space = harseq.labelspace.build_label_space(train.label_names)
        fit, _ = stratified_split(self.train, self.config.val_fraction, self.config.seed)
        self.train_windows = len(fit)

    def run(self):
        return harseq.experiment.train_share(self.train, self.space, self.config)

    def collect(self, result):
        model, record = result
        record.final_test = harseq.experiment.evaluate(model, self.test, self.space)
        return record

    def windows(self) -> int:
        return self.config.epochs * self.train_windows

    def quality(self, record) -> dict:
        return {"share_macro_f1": record.final_test.macro_f1,
                "best_val_macro_f1": max(e.val_macro_f1 for e in record.epochs)}

    def check(self, outputs) -> list:
        errors = [check_record(r, len(self.test)) for r in outputs]
        if any(errors):
            return errors
        return check_repeats_agree([self.quality(r) for r in outputs])

    def summary(self, outputs, op_s: float) -> dict:
        return {"train_windows_per_s": self.windows() / op_s, **self.quality(outputs[0])}


WORKLOADS = {w.name: w for w in (FewshotTail, EvalHundred, TrainHundred)}
