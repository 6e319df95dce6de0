"""End-to-end command-line tests: config resolution, train/predict/eval flow."""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import csv_edits, edited_bytes
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import harseq
from harseq import experiment
from harseq.cli import build_parser, main, resolve_config
from harseq.errors import FormatError, ValidationError
from harseq.experiment import RunRecord
from harseq.numkernel import load_container, save_container


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    code = run_cli("synth", "--classes", "4", "--shared-actions", "2",
                   "--per-class", "14,14,14,14", "--test-per-class", "6",
                   "--timesteps", "16", "--channels", "4", "--noise", "0.3",
                   "--seed", "1", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture
def run_dir(tmp_path, synth_dir):
    out = tmp_path / "run1"
    code = run_cli("train", "--data", str(synth_dir / "train.nkc"),
                   "--out", str(out), "--epochs", "2", "--seed", "7",
                   "--conv-channels", "6,8", "--hidden-dim", "8", "--embed-dim", "4",
                   "--lr", "3e-3")
    assert code == 0
    return out


class TestResolveConfig:
    def test_defaults(self):
        config = resolve_config(None, {})
        assert config.batch_size == 16
        assert config.learning_rate == 1e-4
        assert config.p_aug == 0.5

    def test_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 1e-3\nepochs = 5\n")
        config = resolve_config(cfg, {"learning_rate": 1e-2})
        assert config.learning_rate == 1e-2
        assert config.epochs == 5

    def test_file_beats_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nbatch_size = 8\nconv_channels = 16,32\n")
        config = resolve_config(cfg, {})
        assert config.batch_size == 8
        assert config.conv_channels == (16, 32)

    def test_unknown_key_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learing_rate = 1e-3\n")
        with pytest.raises(ValidationError, match="learing_rate"):
            resolve_config(cfg, {})

    def test_bad_value_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = many\n")
        with pytest.raises(ValidationError, match="epochs"):
            resolve_config(cfg, {})


class TestFlagsAndConfigLinesShareAParser:
    def test_embeddings_none_unsets_a_path_the_file_set(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("embedding_path = vectors.txt\n")
        args = build_parser().parse_args(["train", "--data", "d.nkc", "--out", "o",
                                          "--config", str(cfg), "--embeddings", "none"])
        assert resolve_config(cfg, {}).embedding_path == "vectors.txt"
        assert resolve_config(cfg, {"embedding_path": args.embedding_path}).embedding_path is None

    @pytest.mark.parametrize("flag, line, message", [
        ("--epochs", "epochs", "setting 'epochs' expects an integer, got 'many'"),
        ("--lr", "learning_rate", "setting 'learning_rate' expects a number, got 'many'"),
        ("--conv-channels", "conv_channels",
         "setting 'conv_channels' expects comma-separated integers, got 'many'")])
    def test_flag_and_line_give_one_error(self, tmp_path, capsys, flag, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line} = many\n")
        train = ["train", "--data", str(tmp_path / "d.nkc"), "--out", str(tmp_path / "o")]
        for extra in ([flag, "many"], ["--config", str(cfg)]):
            capsys.readouterr()
            assert run_cli(*train, *extra) == 1
            assert f"error: {message}" in capsys.readouterr().err


class TestSynth:
    def test_outputs_exist(self, synth_dir):
        assert (synth_dir / "train.nkc").exists()
        assert (synth_dir / "test.nkc").exists()
        labels = (synth_dir / "labels.txt").read_text().strip().split("\n")
        assert len(labels) == 4
        assert labels[0] == "action0 object0"

    def test_count_mismatch_rejected(self, tmp_path):
        code = run_cli("synth", "--classes", "3", "--shared-actions", "2",
                       "--per-class", "5,5", "--out", str(tmp_path / "x"))
        assert code == 1

    @pytest.mark.parametrize("per_class, test_per_class, named", [
        ("a,b", "5", "--per-class"),
        ("3,2.5", "5", "--per-class"),
        ("3,-1", "5", "-1"),
        ("3,3", "-1", "-1"),
    ])
    def test_bad_counts_rejected(self, tmp_path, capsys, per_class, test_per_class, named):
        out = tmp_path / "x"
        code = run_cli("synth", "--classes", "2", "--shared-actions", "1",
                       "--per-class", per_class, "--test-per-class", test_per_class,
                       "--out", str(out))
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_run_directory_contents(self, run_dir):
        for name in ("checkpoint.nkc", "manifest.json", "run_record.json"):
            assert (run_dir / name).exists(), name
        assert not (run_dir / "labels.txt").exists()  # the manifest holds the label names
        record = RunRecord.from_json((run_dir / "run_record.json").read_text())
        assert record.model_kind == "share"
        assert len(record.epochs) == 2
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "normalization" in manifest
        assert manifest["extra"]["window"] == 16

    def test_vanilla_kind(self, tmp_path, synth_dir):
        out = tmp_path / "van"
        code = run_cli("train", "--data", str(synth_dir / "train.nkc"),
                       "--out", str(out), "--epochs", "1", "--model-kind", "vanilla",
                       "--conv-channels", "6,8")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model_kind"] == "vanilla"

    def test_unknown_flag_is_usage_error(self, synth_dir, tmp_path, capsys):
        code = run_cli("train", "--data", str(synth_dir / "train.nkc"),
                       "--out", str(tmp_path / "x"), "--bogus-flag", "1")
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPredictAndEval:
    def test_predict_prints_label_per_window(self, run_dir, synth_dir, capsys):
        code = run_cli("predict", "--model", str(run_dir),
                       "--data", str(synth_dir / "test.nkc"))
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 24  # 4 classes x 6 test windows
        valid = set((synth_dir / "labels.txt").read_text().strip().split("\n"))
        assert set(lines) <= valid

    @pytest.mark.parametrize("command", ["predict", "eval", "export-features"])
    def test_labels_flag_is_a_usage_error(self, run_dir, tmp_path, synth_dir, capsys, command):
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(json.loads((run_dir / "manifest.json").read_text())
                                    ["extra"]["original_label_names"]) + "\n")
        out = tmp_path / "out"
        argv = [command, "--model", str(run_dir), "--data", str(synth_dir / "test.nkc"),
                "--labels", str(labels)] + (["--out", str(out)] if command != "predict" else [])
        capsys.readouterr()
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: unrecognized arguments: --labels " + str(labels) + "\n"
        assert captured.out == ""
        assert not out.exists()

    def test_eval_writes_metrics(self, run_dir, synth_dir, tmp_path, capsys):
        out = tmp_path / "evalout"
        code = run_cli("eval", "--model", str(run_dir),
                       "--data", str(synth_dir / "test.nkc"), "--out", str(out))
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        rows = (out / "confusion.csv").read_text().strip().split("\n")
        assert len(rows) == 4

    def test_eval_reproducible(self, run_dir, synth_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("eval", "--model", str(run_dir),
                           "--data", str(synth_dir / "test.nkc"), "--out", str(out)) == 0
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]

    def test_export_features(self, run_dir, synth_dir, tmp_path):
        out = tmp_path / "feats.csv"
        code = run_cli("export-features", "--model", str(run_dir),
                       "--data", str(synth_dir / "test.nkc"), "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 25  # header + 24 windows


# `python -c PREDICT_SCRIPT RUN DATA`: `predict` with two CPUs, after output that sits
# unflushed in the block-buffered stdout; stderr gets the count of forked workers
PREDICT_SCRIPT = """
import os, sys
from multiprocessing.context import ForkProcess
from harseq import cli
os.sched_getaffinity = lambda pid: {0, 1}
forked, start = [], ForkProcess.start
ForkProcess.start = lambda self: forked.append(self) or start(self)
print("output before predict")
code = cli.main(["predict", "--model", sys.argv[1], "--data", sys.argv[2]])
print(f"forked {len(forked)}", file=sys.stderr)
sys.exit(code)
"""


class TestForkedPredict:
    @pytest.mark.skipif(experiment._blas_thread_setter() is None,
                        reason="without an OpenBLAS thread setter scoring does not fork")
    def test_each_label_is_printed_once(self, tmp_path, capsys, cpus):
        synth = tmp_path / "synth"
        assert run_cli("synth", "--classes", "4", "--shared-actions", "2",
                       "--per-class", "8,8,8,8", "--test-per-class", "450", "--timesteps", "16",
                       "--seed", "1", "--out", str(synth)) == 0
        run = tmp_path / "run"
        assert run_cli("train", "--data", str(synth / "train.nkc"), "--out", str(run),
                       "--epochs", "1", "--conv-channels", "4,6", "--hidden-dim", "6",
                       "--embed-dim", "3") == 0
        cpus(1)
        capsys.readouterr()
        assert run_cli("predict", "--model", str(run), "--data", str(synth / "test.nkc")) == 0
        in_process = capsys.readouterr().out.splitlines()
        assert len(in_process) == 1800
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harseq.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, "-c", PREDICT_SCRIPT, str(run),
                               str(synth / "test.nkc")], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "forked 2" in proc.stderr
        assert proc.stdout.splitlines() == ["output before predict"] + in_process


class TestChannelMismatch:
    @pytest.mark.parametrize("command", ["eval", "predict", "export-features"])
    def test_data_with_other_channel_count_fails_before_inference(
            self, run_dir, tmp_path, capsys, monkeypatch, command):
        three = tmp_path / "synth3"
        assert run_cli("synth", "--classes", "4", "--shared-actions", "2",
                       "--per-class", "2,2,2,2", "--test-per-class", "2", "--timesteps", "16",
                       "--channels", "3", "--out", str(three)) == 0

        def no_inference(*args, **kwargs):
            raise AssertionError("inference ran on mismatched channels")

        for name in ("evaluate", "predict_classes", "export_features"):
            monkeypatch.setattr(f"harseq.cli.{name}", no_inference)
        capsys.readouterr()
        code = run_cli(command, "--model", str(run_dir), "--data", str(three / "test.nkc"),
                       *(["--out", str(tmp_path / "f.csv")] if command == "export-features" else []))
        captured = capsys.readouterr()
        assert code == 1
        assert "has 3 channels per window, but the model was trained on 4" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestWindowMismatch:
    @pytest.mark.parametrize("command", ["eval", "predict", "export-features"])
    def test_cache_with_other_window_is_scored_with_a_warning(
            self, run_dir, synth_dir, tmp_path, capsys, command):
        short = tmp_path / "synth8"
        assert run_cli("synth", "--classes", "4", "--shared-actions", "2",
                       "--per-class", "2,2,2,2", "--test-per-class", "2", "--timesteps", "8",
                       "--out", str(short)) == 0
        warning = (f"warning: {short / 'test.nkc'} has windows of 8 steps, but the model "
                   f"was trained on windows of 16")
        out = ["--out", str(tmp_path / "f.csv")] if command == "export-features" else []
        for data, warned in ((synth_dir / "test.nkc", False), (short / "test.nkc", True)):
            capsys.readouterr()
            assert run_cli(command, "--model", str(run_dir), "--data", str(data), *out) == 0
            captured = capsys.readouterr()
            assert (warning in captured.err) is warned
            assert ("warning" in captured.err) is warned
            if command == "predict":
                assert len(captured.out.splitlines()) == (8 if warned else 24)


class TestCsvPipeline:
    def test_prepare_then_train(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["subject,timestamp,label,ch0,ch1"]
        for subject in ("s1", "s2"):
            for label in ("walk", "run"):
                for i in range(40):
                    a, b = rng.normal(size=2)
                    base = 1.0 if label == "walk" else -1.0
                    rows.append(f"{subject},{i},{label},{base + 0.1 * a},{-base + 0.1 * b}")
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("walk\nrun\n")

        cache = tmp_path / "d.nkc"
        assert run_cli("prepare", "--data", str(data), "--labels", str(labels),
                       "--window", "8", "--stride", "8", "--out", str(cache)) == 0
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(cache), "--out", str(out),
                       "--epochs", "2", "--conv-channels", "4,6",
                       "--hidden-dim", "6", "--embed-dim", "3", "--lr", "3e-3") == 0
        assert (out / "checkpoint.nkc").exists()

    def test_train_from_csv_directly(self, tmp_path):
        rows = ["subject,timestamp,label,ch0"]
        rows += [f"s1,{i},walk,{np.sin(i / 3.0)}" for i in range(60)]
        rows += [f"s1,{60 + i},run,{np.cos(i / 2.0)}" for i in range(60)]
        data = tmp_path / "d.csv"
        data.write_text("\n".join(rows) + "\n")
        labels = tmp_path / "labels.txt"
        labels.write_text("walk\nrun\n")
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(data), "--labels", str(labels),
                       "--window", "6", "--stride", "6", "--out", str(out),
                       "--epochs", "1", "--conv-channels", "4,6",
                       "--hidden-dim", "6", "--embed-dim", "3")
        assert code == 0

    def test_missing_labels_for_csv(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("subject,timestamp,label,ch0\ns1,0,walk,1.0\n")
        code = run_cli("train", "--data", str(data), "--out", str(tmp_path / "x"))
        assert code == 1


class TestSuitesCli:
    def test_synth_then_fewshot(self, tmp_path, synth_dir):
        out = tmp_path / "fs"
        code = run_cli("fewshot", "--train", str(synth_dir / "train.nkc"),
                       "--test", str(synth_dir / "test.nkc"),
                       "--fractions", "1.0", "--seeds", "0,1", "--out", str(out),
                       "--epochs", "1", "--conv-channels", "4,6",
                       "--hidden-dim", "6", "--embed-dim", "3")
        assert code == 0
        payload = json.loads((out / "records.json").read_text())
        assert len(payload["records"]) == 2 * 2  # seeds x both models
        assert (out / "summary.csv").exists()

    def test_downsample_suite(self, tmp_path, synth_dir):
        out = tmp_path / "ds"
        code = run_cli("downsample", "--train", str(synth_dir / "train.nkc"),
                       "--test", str(synth_dir / "test.nkc"),
                       "--factors", "2", "--seeds", "0", "--out", str(out),
                       "--epochs", "1", "--conv-channels", "4,6",
                       "--hidden-dim", "6", "--embed-dim", "3")
        assert code == 0
        payload = json.loads((out / "records.json").read_text())
        assert len(payload["records"]) == 2

    @staticmethod
    def _fewshot(synth_dir, out, *flags):
        return run_cli("fewshot", "--train", str(synth_dir / "train.nkc"),
                       "--test", str(synth_dir / "test.nkc"), "--seeds", "0", "--out", str(out),
                       "--conv-channels", "4,6", "--hidden-dim", "6", "--embed-dim", "3", *flags)

    def test_failure_in_a_worker_reads_as_in_process(self, tmp_path, synth_dir, capsys, cpus):
        outcomes = []
        for n in (1, 2):
            cpus(n)
            capsys.readouterr()
            out = tmp_path / f"fs{n}"
            code = self._fewshot(synth_dir, out, "--fractions", "0.5,1.0", "--epochs", "3",
                                 "--lr", "1e200")
            outcomes.append((code, capsys.readouterr().err))
            assert not out.exists()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2
        assert outcomes[0][1].startswith("runtime error: non-finite training loss")

    def test_worker_that_dies_is_a_named_runtime_error(self, tmp_path, synth_dir, capsys, cpus,
                                                       in_worker):
        cpus(2)
        in_worker(lambda task: os._exit(3))  # each worker ends before it trains
        capsys.readouterr()
        out = tmp_path / "fs"
        assert self._fewshot(synth_dir, out, "--fractions", "1.0", "--epochs", "1") == 2
        assert capsys.readouterr().err == (
            "runtime error: the worker for the share model of train_fraction 1.0, seed 0 "
            "exited with code 3 without a result\n")
        assert not out.exists()


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        code = run_cli("train", "--data", str(tmp_path / "nope.nkc"),
                       "--out", str(tmp_path / "x"))
        assert code == 1

    def test_runtime_error_is_exit_two(self, tmp_path, synth_dir):
        # a model trained 0 epochs has uninitialized batch-norm statistics;
        # evaluating it is a runtime failure, not a config problem
        out = tmp_path / "run0"
        assert run_cli("train", "--data", str(synth_dir / "train.nkc"),
                       "--out", str(out), "--epochs", "0",
                       "--conv-channels", "4,6", "--hidden-dim", "6",
                       "--embed-dim", "3") == 0
        code = run_cli("eval", "--model", str(out),
                       "--data", str(synth_dir / "test.nkc"))
        assert code == 2


@pytest.fixture
def csv_run(tmp_path):
    """A model trained from a CSV recording, plus that recording and its labels."""
    rows = ["subject,timestamp,label,ch0"]
    rows += [f"s1,{i},walk,{np.sin(i / 3.0)}" for i in range(60)]
    rows += [f"s1,{60 + i},run,{np.cos(i / 2.0)}" for i in range(60)]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("walk\nrun\n")
    out = tmp_path / "run"
    assert run_cli("train", "--data", str(data), "--labels", str(labels),
                   "--window", "6", "--out", str(out), "--epochs", "1",
                   "--conv-channels", "4,6", "--hidden-dim", "6", "--embed-dim", "3") == 0
    return out, data, labels


@pytest.mark.parametrize("stride", ["0", "-3", "two"])
class TestStrideFlag:
    def test_predict_rejects_non_positive_stride(self, csv_run, stride, capsys):
        run, data, _ = csv_run
        capsys.readouterr()
        code = run_cli("predict", "--model", str(run), "--data", str(data), "--stride", stride)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--stride" in captured.err

    def test_eval_rejects_non_positive_stride(self, csv_run, stride):
        run, data, _ = csv_run
        code = run_cli("eval", "--model", str(run), "--data", str(data), "--stride", stride)
        assert code == 1

    def test_prepare_rejects_non_positive_stride(self, csv_run, stride, tmp_path):
        _, data, labels = csv_run
        code = run_cli("prepare", "--data", str(data), "--labels", str(labels),
                       "--window", "6", "--stride", stride, "--out", str(tmp_path / "c.nkc"))
        assert code == 1
        assert not (tmp_path / "c.nkc").exists()


class TestLabelNamesFromManifest:
    def test_csv_is_scored_without_a_labels_file(self, csv_run, tmp_path):
        """`eval --out` and `export-features` read a CSV's labels against the
        manifest's names, so a labels.txt in the run directory changes no byte."""
        run, data, labels = csv_run
        (run / "labels.txt").unlink(missing_ok=True)
        outputs = []
        for present in (False, True):
            if present:
                shutil.copy(labels, run / "labels.txt")
            out = tmp_path / f"labels-file-{present}"
            assert run_cli("eval", "--model", str(run), "--data", str(data),
                           "--out", str(out / "eval")) == 0
            assert run_cli("export-features", "--model", str(run), "--data", str(data),
                           "--out", str(out / "features.csv")) == 0
            outputs.append({path.relative_to(out): path.read_bytes()
                            for path in out.rglob("*") if path.is_file()})
        assert len(outputs[0]) == 3  # metrics.json, confusion.csv and the features
        assert outputs[0] == outputs[1]


class TestWindowFlagsOnCaches:
    """A .nkc cache is already windowed, so --stride and --window are usage errors."""

    def test_predict_rejects_stride(self, run_dir, synth_dir, capsys):
        capsys.readouterr()
        code = run_cli("predict", "--model", str(run_dir),
                       "--data", str(synth_dir / "test.nkc"), "--stride", "7")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--stride" in captured.err

    def test_eval_rejects_stride(self, run_dir, synth_dir, tmp_path, capsys):
        out = tmp_path / "evalout"
        code = run_cli("eval", "--model", str(run_dir), "--data", str(synth_dir / "test.nkc"),
                       "--stride", "7", "--out", str(out))
        assert code == 1
        assert "--stride" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--stride", "--window"])
    def test_train_rejects_flag(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "run"
        code = run_cli("train", "--data", str(synth_dir / "train.nkc"), flag, "7",
                       "--out", str(out), "--epochs", "1")
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_suite_rejects_stride_on_test_cache(self, synth_dir, tmp_path, capsys):
        code = run_cli("fewshot", "--train", str(synth_dir / "train.nkc"),
                       "--test", str(synth_dir / "test.nkc"), "--stride", "4",
                       "--fractions", "1.0", "--seeds", "0", "--out", str(tmp_path / "fs"))
        assert code == 1
        assert "--stride" in capsys.readouterr().err


class TestPredictMalformedCsv:
    def test_short_rows_are_a_format_error(self, csv_run, tmp_path, capsys):
        run, _, _ = csv_run
        data = tmp_path / "bad.csv"
        data.write_text("subject,timestamp,label,ch0,ch1,ch2,ch3\n"
                        + "".join(f"s1,{i},walk,{i}.0\n" for i in range(12)))
        argv = ["predict", "--model", str(run), "--data", str(data)]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "row 2" in captured.err
        args = build_parser().parse_args(argv)
        with pytest.raises(FormatError, match="row 2 has 4 fields, expected 7"):
            args.func(args)


def _rewrite_checkpoint(run, edit):
    """Apply `edit` to the run's checkpoint tensors and write them back."""
    path = run / "checkpoint.nkc"
    arrays, meta = load_container(path)
    edit(arrays)
    save_container(path, arrays, meta)


def _csv_with_cell(data, tmp_path, cell):
    """A copy of the recording whose fourth data row holds `cell` in ch0, or, with
    `cell` None, whose every channel value is 1e308 (finite, but it overflows in
    the model)."""
    lines = data.read_text().split("\n")
    for i in [4] if cell is not None else range(1, len(lines) - 1):
        lines[i] = ",".join(lines[i].split(",")[:3] + [cell or "1e308"])
    bad = tmp_path / "cell.csv"
    bad.write_text("\n".join(lines))
    return bad


def _predict(run, data):
    return ["predict", "--model", str(run), "--data", str(data)]


def _eval(run, data):
    return ["eval", "--model", str(run), "--data", str(data)]


def _case_non_utf8_csv(run, data, labels, tmp_path):
    bad = tmp_path / "bin.csv"
    bad.write_bytes(b"\xff\xfe\x00")
    return _predict(run, bad)


def _case_nkc_cut(size):
    def case(run, data, labels, tmp_path):
        path = run / "checkpoint.nkc"
        path.write_bytes(path.read_bytes()[:size])
        return _eval(run, data)
    return case


def _case_nkc_trailing(run, data, labels, tmp_path):
    path = run / "checkpoint.nkc"
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    return _predict(run, data)


def _case_corrupt_manifest(run, data, labels, tmp_path):
    (run / "manifest.json").write_text('{"model_kind": "share",')
    return _predict(run, data)


def _case_manifest_without_extra(run, data, labels, tmp_path):
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["extra"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    return _predict(run, data)


def _case_missing_bn_tensor(run, data, labels, tmp_path):
    _rewrite_checkpoint(run, lambda arrays: arrays.pop("enc.bn1.running_mean"))
    return _eval(run, data)


def _case_bn_tensor_wrong_shape(run, data, labels, tmp_path):
    _rewrite_checkpoint(run, lambda arrays: arrays.update({"enc.bn1.running_mean": np.zeros(1)}))
    return _eval(run, data)


def _case_cell(cell, command):
    def case(run, data, labels, tmp_path):
        bad = _csv_with_cell(data, tmp_path, cell)
        if command == "predict":
            return _predict(run, bad)
        if command in ("eval", "export-features"):
            return [command, "--model", str(run), "--data", str(bad),
                    "--out", str(tmp_path / "out")]
        return ["train", "--data", str(bad), "--labels", str(labels), "--window", "6",
                "--out", str(tmp_path / "out"), "--epochs", "1"]
    return case


def _case_suite_flags(command, *flags):
    def case(run, data, labels, tmp_path):
        return [command, "--train", str(data), "--test", str(data), "--labels", str(labels),
                "--window", "6", *flags, "--out", str(tmp_path / "suite"), "--epochs", "1"]
    return case


def _case_synth(*flags):
    def case(run, data, labels, tmp_path):
        return ["synth", "--classes", "2", "--shared-actions", "1", "--per-class", "3,3",
                *flags, "--out", str(tmp_path / "out")]
    return case


def _non_utf8_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe\x00")
    return path


def _train_flags(data, labels, tmp_path, *flags):
    return ["train", "--data", str(data), "--labels", str(labels), "--window", "6",
            "--out", str(tmp_path / "out"), "--epochs", "1", *flags]


def _case_side_file_line(flag, text):
    """`train` with `flag` naming a side file that holds the line or lines `text`."""
    def case(run, data, labels, tmp_path):
        side = tmp_path / "side.txt"
        side.write_text(text + "\n")
        return _train_flags(data, labels, tmp_path, flag, str(side))
    return case


def _case_non_utf8_side_file(flag):
    def case(run, data, labels, tmp_path):
        bad = _non_utf8_file(tmp_path, "side.txt")
        if flag == "--labels":
            return _train_flags(data, bad, tmp_path)
        return _train_flags(data, labels, tmp_path, flag, str(bad))
    return case


def _case_dataset_cache(arrays, drop=None):
    def case(run, data, labels, tmp_path):
        meta = {"kind": "dataset", "label_names": ["walk", "run"], "channels": 1, "window": 6}
        meta.pop(drop, None)
        path = tmp_path / "ds_bad.nkc"
        save_container(path, arrays, meta)
        return ["eval", "--model", str(run), "--data", str(path)]
    return case


def _case_cache_labels(names, command="eval"):
    """A well-formed cache, one window per class, labeled `names` instead of the
    run's ["walk", "run"]."""
    def case(run, data, labels, tmp_path):
        path = tmp_path / "relabeled.nkc"
        save_container(path, {"values": np.zeros((len(names), 1, 6)),
                              "class_ids": np.arange(len(names), dtype=np.float64)},
                       {"kind": "dataset", "label_names": list(names), "channels": 1,
                        "window": 6})
        argv = [command, "--model", str(run), "--data", str(path)]
        if command == "export-features":
            argv += ["--out", str(tmp_path / "features.csv")]
        return argv
    return case


def _case_labels_on_cache(command):
    """`train` or `fewshot` on a valid cache of the recording, with --labels naming
    two other classes."""
    def case(run, data, labels, tmp_path):
        cache = tmp_path / "recording.nkc"
        assert run_cli("prepare", "--data", str(data), "--labels", str(labels), "--window", "6",
                       "--out", str(cache)) == 0
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("jump\nsit\n")
        inputs = (["--data", str(cache)] if command == "train"
                  else ["--train", str(cache), "--test", str(cache), "--fractions", "1.0",
                        "--seeds", "0"])
        return [command, *inputs, "--labels", str(wrong), "--out", str(tmp_path / "out"),
                "--epochs", "1", "--conv-channels", "4,6", "--hidden-dim", "6",
                "--embed-dim", "3"]
    return case


def _case_manifest_without(*keys):
    def case(run, data, labels, tmp_path):
        manifest = json.loads((run / "manifest.json").read_text())
        section = manifest
        for key in keys[:-1]:
            section = section[key]
        del section[keys[-1]]
        (run / "manifest.json").write_text(json.dumps(manifest))
        return _predict(run, data)
    return case


def _edit_manifest(run, edit):
    """Apply `edit` to the run's decoded manifest and write it back."""
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest)
    (run / "manifest.json").write_text(json.dumps(manifest))


def _case_manifest_edit(edit, command="predict"):
    def case(run, data, labels, tmp_path):
        _edit_manifest(run, edit)
        if command == "predict":
            return _predict(run, data)
        return ["eval", "--model", str(run), "--data", str(data)]
    return case


def _case_deep_manifest(run, data, labels, tmp_path):
    (run / "manifest.json").write_text('{"model_kind": ' + "[" * 10**5 + "]" * 10**5 + "}")
    return _predict(run, data)


def _case_two_channel_short_mean(run, data, labels, tmp_path):
    """A two-channel run whose manifest keeps the mean of one channel only."""
    rows = ["subject,timestamp,label,ch0,ch1"]
    rows += [f"s1,{i},{'walk' if i < 60 else 'run'},{np.sin(i / 3.0)},{np.cos(i / 5.0)}"
             for i in range(120)]
    two = tmp_path / "two.csv"
    two.write_text("\n".join(rows) + "\n")
    run2 = tmp_path / "run2"
    assert run_cli("train", "--data", str(two), "--labels", str(labels), "--window", "6",
                   "--out", str(run2), "--epochs", "1", "--conv-channels", "4,6",
                   "--hidden-dim", "6", "--embed-dim", "3") == 0
    _edit_manifest(run2, lambda m: m["normalization"].update(mean=m["normalization"]["mean"][:1]))
    return _predict(run2, two)


def _case_nan_checkpoint_tensor(run, data, labels, tmp_path):
    def edit(arrays):
        arrays["dec.proj.bias"][0] = np.nan
    _rewrite_checkpoint(run, edit)
    return _predict(run, data)


def _case_checkpoint_extra_tensor(run, data, labels, tmp_path):
    _rewrite_checkpoint(run, lambda arrays: arrays.update({"enc.conv1.bias": np.zeros(4)}))
    return _predict(run, data)


def _case_huge_learning_rate(run, data, labels, tmp_path):
    return ["train", "--data", str(data), "--labels", str(labels), "--window", "6",
            "--out", str(tmp_path / "out"), "--epochs", "3", "--lr", "1e200",
            "--conv-channels", "4,6", "--hidden-dim", "6", "--embed-dim", "3"]


MALFORMED = [
    # (case id, argv builder, exit code, text the error names)
    ("non-utf8-csv", _case_non_utf8_csv, 1, "not UTF-8"),
    ("nkc-cut-to-10-bytes", _case_nkc_cut(10), 1, "truncated container header"),
    ("nkc-cut-to-20-bytes", _case_nkc_cut(20), 1, "truncated container header"),
    ("nkc-cut-in-data", _case_nkc_cut(-8), 1, "truncated data for tensor"),
    ("nkc-trailing-bytes", _case_nkc_trailing, 1, "8 trailing bytes"),
    ("corrupt-manifest", _case_corrupt_manifest, 1, "not a JSON manifest"),
    ("manifest-without-extra", _case_manifest_without_extra, 1, "no 'extra' section"),
    ("missing-bn-tensor", _case_missing_bn_tensor, 1,
     "missing tensor 'enc.bn1.running_mean'"),
    ("bn-tensor-wrong-shape", _case_bn_tensor_wrong_shape, 1,
     "tensor 'enc.bn1.running_mean' has shape (1,), expected (4,)"),
    ("nan-cell-train", _case_cell("nan", "train"), 1, "non-finite channel value at row 5"),
    ("inf-cell-predict", _case_cell("-inf", "predict"), 1, "non-finite channel value at row 5"),
    ("seeds-not-int", _case_suite_flags("fewshot", "--fractions", "1.0", "--seeds", "a"), 1,
     "--seeds: expected a comma-separated list of int values, got 'a'"),
    ("fractions-not-float", _case_suite_flags("fewshot", "--fractions", "half"), 1,
     "--fractions: expected a comma-separated list of float values"),
    ("factors-not-int", _case_suite_flags("downsample", "--factors", "2.5"), 1,
     "--factors: expected a comma-separated list of int values"),
    ("seeds-empty", _case_suite_flags("fewshot", "--fractions", "1.0", "--seeds", ","), 1,
     "--seeds"),
    ("synth-negative-seed", _case_synth("--seed", "-1"), 1, "seed must be non-negative, got -1"),
    ("train-negative-seed", lambda run, data, labels, tmp_path:
     _train_flags(data, labels, tmp_path, "--seed", "-1"), 1, "seed must be non-negative, got -1"),
    ("fewshot-negative-seed", _case_suite_flags("fewshot", "--fractions", "0.5", "--seeds", "-1"),
     1, "seed must be non-negative, got -1"),
    ("synth-noise-nan", _case_synth("--noise", "nan"), 1,
     "noise_std must be finite and non-negative, got nan"),
    ("non-finite-training-loss", _case_huge_learning_rate, 2, "non-finite training loss"),
    ("lr-nan", lambda run, data, labels, tmp_path: _train_flags(
        data, labels, tmp_path, "--lr", "nan"), 1,
     "learning rate must be positive and finite, got nan"),
    ("lr-inf-zero-epochs", lambda run, data, labels, tmp_path: _train_flags(
        data, labels, tmp_path, "--lr", "inf", "--epochs", "0"), 1,
     "learning rate must be positive and finite, got inf"),
    ("lr-nan-config-line", _case_side_file_line("--config", "learning_rate = nan"), 1,
     "learning rate must be positive and finite, got nan"),
    ("embeddings-nan-entry", _case_side_file_line("--embeddings", "walk nan 1 2 3"), 1,
     "side.txt:1: non-finite vector entry"),
    ("label-map-repeated-original",
     _case_side_file_line("--label-map", "walk\tmove left\nwalk\tmove right"), 1,
     "side.txt:2: label map repeats the original name 'walk' of line 1"),
    ("label-map-repeated-generated",
     _case_side_file_line("--label-map", "walk\tmove left\nrun\tmove left"), 1,
     "side.txt:2: label map repeats the generated name 'move left' of line 1"),
    ("label-map-empty-generated", _case_side_file_line("--label-map", "walk\tmove left\nrun\t"),
     1, "side.txt:2: generated name '' has no meaningful tokens"),
    ("labels-repeated-line", _case_side_file_line("--labels", "walk\nrun\nwalk"), 1,
     "side.txt:3: class name 'walk' repeats line 1"),
    ("dataset-cache-without-values", _case_dataset_cache({"class_ids": np.zeros(3)}), 1,
     "dataset has no 'values' tensor"),
    ("dataset-cache-class-ids-wrong-shape",
     _case_dataset_cache({"values": np.zeros((3, 1, 6)), "class_ids": np.zeros(2)}), 1,
     "tensor 'class_ids' has shape (2,), expected (3,)"),
    ("dataset-cache-values-wrong-shape",
     _case_dataset_cache({"values": np.zeros((3, 2, 6)), "class_ids": np.zeros(3)}), 1,
     "tensor 'values' has shape (3, 2, 6), expected (3, 1, 6)"),
    ("dataset-cache-without-window",
     _case_dataset_cache({"values": np.zeros((3, 1, 6)), "class_ids": np.zeros(3)},
                         drop="window"), 1,
     "dataset metadata field 'window' is missing"),
    ("dataset-cache-nan-value",
     _case_dataset_cache({"values": np.array([0.0, np.nan, 0.0]).repeat(6).reshape(3, 1, 6),
                          "class_ids": np.zeros(3)}), 1,
     "tensor 'values' is not finite in window 1"),
    ("dataset-cache-class-id-beyond-int64",
     _case_dataset_cache({"values": np.zeros((3, 1, 6)), "class_ids": np.array([0, 1e300, 0])}),
     1, "tensor 'class_ids' holds 1e+300, not a whole class id"),
    ("train-statistics-overflow", _case_cell("1e308", "train"), 2,
     "runtime error: the mean or std of channel 0 overflows float64"),
    # 1.7e308 over the recording's std of 0.70 overflows in `stats.apply`; 1e308 does
    # not, but a recording of it overflows in the encoder (its time pooling)
    ("eval-normalized-overflow", _case_cell("1.7e308", "eval"), 2,
     "cell.csv is not finite once normalized with the run's statistics"),
    ("eval-model-overflow", _case_cell(None, "eval"), 2,
     "runtime error: window 0 has class scores that are not finite: its values overflow float64 "
     "in the model"),
    ("predict-normalized-overflow", _case_cell("1.7e308", "predict"), 2,
     "cell.csv is not finite once normalized with the run's statistics"),
    ("predict-model-overflow", _case_cell(None, "predict"), 2,
     "runtime error: window 0 has class scores that are not finite: its values overflow float64 "
     "in the model"),
    ("export-features-normalized-overflow", _case_cell("1.7e308", "export-features"), 2,
     "cell.csv is not finite once normalized with the run's statistics"),
    ("export-features-model-overflow", _case_cell(None, "export-features"), 2,
     "runtime error: window 0 has encoder features that are not finite: its values overflow "
     "float64 in the model"),
    ("eval-cache-labels-reordered", _case_cache_labels(["run", "walk"]), 1,
     "has labels ['run', 'walk'], but the model's label set, in order, is ['walk', 'run']"),
    ("eval-cache-fewer-labels", _case_cache_labels(["walk"]), 1,
     "has labels ['walk'], but the model's label set, in order, is ['walk', 'run']"),
    ("export-features-cache-labels-reordered",
     _case_cache_labels(["run", "walk"], command="export-features"), 1,
     "has labels ['run', 'walk'], but the model's label set, in order, is ['walk', 'run']"),
    ("non-utf8-labels", _case_non_utf8_side_file("--labels"), 1, "side.txt: not UTF-8"),
    ("train-labels-on-cache", _case_labels_on_cache("train"), 1,
     "--labels does not apply to"),
    ("fewshot-labels-on-cache", _case_labels_on_cache("fewshot"), 1,
     "recording.nkc: a .nkc dataset cache carries its own label names"),
    ("non-utf8-label-map", _case_non_utf8_side_file("--label-map"), 1, "side.txt: not UTF-8"),
    ("non-utf8-stop-tokens", _case_non_utf8_side_file("--stop-tokens"), 1,
     "side.txt: not UTF-8"),
    ("non-utf8-embeddings", _case_non_utf8_side_file("--embeddings"), 1,
     "side.txt: not UTF-8"),
    ("non-utf8-config", _case_non_utf8_side_file("--config"), 1, "side.txt: not UTF-8"),
    ("manifest-without-encoder", _case_manifest_without("encoder"), 1,
     "manifest lacks required field 'encoder'"),
    ("manifest-without-hidden-dim", _case_manifest_without("hidden_dim"), 1,
     "manifest lacks required field 'hidden_dim'"),
    ("manifest-without-kernel-size", _case_manifest_without("encoder", "kernel_size"), 1,
     "manifest lacks required field 'encoder.kernel_size'"),
    ("manifest-extra-not-object", _case_manifest_edit(lambda m: m.update(extra=[1])), 1,
     "manifest field 'extra' is not of type dict"),
    ("manifest-without-extra-window", _case_manifest_edit(lambda m: m["extra"].pop("window")),
     1, "manifest lacks required field 'extra.window'"),
    ("manifest-mean-not-numeric",
     _case_manifest_edit(lambda m: m["normalization"].update(mean=["a"])), 1,
     "manifest field 'normalization.mean[0]' is not of type float"),
    ("manifest-mean-short", _case_two_channel_short_mean, 1,
     "field 'normalization' must hold 2 finite means and 2 positive finite stds"),
    ("manifest-std-zero", _case_manifest_edit(lambda m: m["normalization"].update(std=[0.0])),
     1, "field 'normalization' must hold 1 finite means and 1 positive finite stds"),
    ("manifest-conv-channels-not-int",
     _case_manifest_edit(lambda m: m["encoder"].update(conv_channels=["a", "b"])), 1,
     "manifest field 'encoder.conv_channels[0]' is not of type int"),
    ("manifest-in-channels-bool",
     _case_manifest_edit(lambda m: m["encoder"].update(in_channels=True)), 1,
     "manifest field 'encoder.in_channels' is not of type int"),
    ("manifest-class-name-not-str",
     _case_manifest_edit(lambda m: m.update(class_names=[1, 2])), 1,
     "manifest field 'class_names[0]' is not of type str"),
    ("manifest-bn-initialized-not-bool",
     _case_manifest_edit(lambda m: m.update(bn_initialized="no")), 1,
     "manifest field 'bn_initialized' is not of type bool"),
    ("manifest-hidden-dim-negative", _case_manifest_edit(lambda m: m.update(hidden_dim=-1)),
     1, "checkpoint tensor 'dec.lstm.w_x' has shape (24, 3), expected (-4, 3)"),
    ("manifest-hidden-dim-huge", _case_manifest_edit(lambda m: m.update(hidden_dim=2**60)),
     1, "checkpoint tensor 'dec.lstm.w_x' has shape (24, 3), expected"),
    ("hidden-dim-flag-negative", lambda run, data, labels, tmp_path: _train_flags(
        data, labels, tmp_path, "--hidden-dim", "-1"), 1,
     "hidden_dim and embed_dim must be positive, got -1 and 64"),
    ("embed-dim-flag-zero", lambda run, data, labels, tmp_path: _train_flags(
        data, labels, tmp_path, "--embed-dim", "0"), 1,
     "hidden_dim and embed_dim must be positive, got 128 and 0"),
    ("label-names-short-predict", _case_manifest_edit(
        lambda m: m["extra"].update(original_label_names=["walk"])), 1,
     "field 'extra.original_label_names' holds 1 names for the model's 2 classes"),
    ("manifest-lone-surrogate", _case_manifest_edit(
        lambda m: m["extra"].update(original_label_names=["\ud800", "\ud801"])), 1,
     "not a JSON manifest"),
    ("manifest-deeply-nested", _case_deep_manifest, 1, "not a JSON manifest"),
    ("label-names-repeated-eval", _case_manifest_edit(
        lambda m: m["extra"].update(original_label_names=["walk", "walk"]), command="eval"), 1,
     "manifest field 'extra.original_label_names' repeats the name 'walk'"),
    ("label-names-short-eval", _case_manifest_edit(
        lambda m: m["extra"].update(original_label_names=["walk"]), command="eval"), 1,
     "field 'extra.original_label_names' holds 1 names for the model's 2 classes"),
    ("checkpoint-nan-tensor", _case_nan_checkpoint_tensor, 1,
     "checkpoint tensor 'dec.proj.bias' holds non-finite values"),
    ("checkpoint-extra-tensor", _case_checkpoint_extra_tensor, 1,
     "checkpoint tensor 'enc.conv1.bias' is not one of the model's"),
    ("manifest-format-1", _case_manifest_edit(lambda m: m.update(format_version=1)), 1,
     "format_version 1, but this harseq reads format_version 2 only; retrain the run"),
    # sizes of 10^12 or more, so the allocation fails at once and holds no memory
    ("synth-timesteps-huge", _case_synth("--timesteps", "999999999999"), 2,
     "runtime error: Unable to allocate"),
    ("synth-per-class-huge", _case_synth("--per-class", "1000000000000,1"), 2,
     "runtime error: Unable to allocate"),
    ("synth-noise-overflow", _case_synth("--noise", "1e308"), 2,
     "runtime error: window 0 of the synthetic set is not finite: noise_std 1e+308 overflows "
     "float64"),
    ("synth-timesteps-beyond-indexing", _case_synth("--timesteps", str(10**30)), 2,
     f"runtime error: Unable to allocate a float64 array of shape (6, 4, {10**30})"),
    ("synth-test-per-class-beyond-indexing", _case_synth("--test-per-class", str(10**30)), 2,
     f"runtime error: Unable to allocate a float64 array of shape ({2 * 10**30}, 4, 64)"),
    ("train-conv-channels-huge", lambda run, data, labels, tmp_path: _train_flags(
        data, labels, tmp_path, "--conv-channels", "1000000000000,4"), 2,
     "runtime error: Unable to allocate"),
    # a size beyond what numpy can index fails as a too-large allocation does
    ("train-hidden-dim-beyond-indexing", lambda run, data, labels, tmp_path: _train_flags(
        data, labels, tmp_path, "--hidden-dim", str(10**30)), 2,
     f"runtime error: Unable to allocate a float64 array of shape ({10**30},"),
]


class TestMalformedInputs:
    """Each malformed input ends in a named error with its exit code, never a traceback."""

    @pytest.mark.parametrize("build, code, text", [row[1:] for row in MALFORMED],
                             ids=[row[0] for row in MALFORMED])
    def test_named_error_and_exit_code(self, csv_run, tmp_path, capsys, build, code, text):
        run, data, labels = csv_run
        argv = build(run, data, labels, tmp_path)
        capsys.readouterr()
        assert run_cli(*argv) == code
        captured = capsys.readouterr()
        assert text in captured.err
        assert "Traceback" not in captured.err
        if argv[0] == "predict":
            assert captured.out == ""
        assert not (tmp_path / "out").exists()  # nothing is written for a failed train


def _json_values():
    """Any JSON value Python's json module writes and reads back, NaN and the
    infinities included, nested in short lists and objects."""
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                        max_leaves=5)


def _field_paths(value, path=()):
    """The path of every field of a JSON value at any depth, list items included."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from _field_paths(item, path + (key,))


class TestManifestFuzz:
    """One field of a valid manifest, at any depth, replaced by any JSON value:
    `predict` exits 0 or 1 and raises nothing."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_replaced_field_exits_0_or_1(self, csv_run, capsys, data):
        run, csv, _ = csv_run
        path = run / "manifest.json"
        original = path.read_text()
        manifest = json.loads(original)
        field = data.draw(st.sampled_from(sorted(_field_paths(manifest), key=str)))
        edited = copy.deepcopy(manifest)
        section = edited
        for key in field[:-1]:
            section = section[key]
        section[field[-1]] = data.draw(_json_values())
        try:
            path.write_text(json.dumps(edited))
            assert main(["predict", "--model", str(run), "--data", str(csv)]) in (0, 1)
        finally:
            path.write_text(original)
        capsys.readouterr()


# a small valid config: one epoch of a tiny model on the `csv_run` recording
VALID_CONFIG = {"epochs": "1", "batch_size": "8", "learning_rate": "0.003", "p_aug": "0.5",
                "val_fraction": "0.2", "seed": "3", "conv_channels": "4,6", "hidden_dim": "6",
                "embed_dim": "3", "retrain_full": "false"}
# replacement values, capped: epochs stay at most 2, and a size is either small or
# 10^12, so its allocation fails at once and holds no memory
_HUGE = str(10**12)
CONFIG_VALUES = {
    "epochs": ["-1", "0", "2", "1.5", "x", ""],
    "batch_size": ["-1", "0", "1", "3", _HUGE, "2.0"],
    "learning_rate": ["0", "-1e-3", "nan", "inf", "1e200", "5e-324", "1e-3", "one"],
    "p_aug": ["0", "1", "-0.1", "1.1", "nan", "0.25"],
    "val_fraction": ["0", "1", "1e-9", "0.999", "nan", "0.5"],
    "seed": ["-1", "0", str(2**64), str(10**30), "1e3"],
    "conv_channels": ["0,4", "4", "4,6,8", "-1,4", "1,1", f"{_HUGE},4", f"4,{_HUGE}", ",", "a,b"],
    "hidden_dim": ["0", "-2", "1", _HUGE, "six"],
    "embed_dim": ["0", "-2", "1", _HUGE, "3.0"],
    "retrain_full": ["true", "yes", "2", ""],
    "embedding_path": ["none", "missing.txt"],
    "label_map_path": ["none", "missing.txt"],
    "stop_tokens_path": ["none", "missing.txt"],
    "colour": ["red"],
}


# every single edit: each key set to each of its values, each line dropped, and
# each line written without its `=`
SINGLE_EDITS = ([("set", key, value) for key in sorted(CONFIG_VALUES) for value in CONFIG_VALUES[key]]
                + [(op, key, "") for op in ("drop", "no-equals") for key in sorted(VALID_CONFIG)])


def _floats(value):
    """Every float in a JSON value (its integers are finite by construction)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


def _train_with_edited_config(edits, data, labels, tmp_path, capsys):
    """`train --config` on VALID_CONFIG after `edits`, checked by `_check_train`."""
    lines = dict(VALID_CONFIG)
    for op, key, value in edits:
        if op == "drop":
            lines.pop(key, None)
        else:
            lines[key] = value if op == "set" else None
    cfg = tmp_path / "edited.cfg"
    cfg.write_text("".join(f"{key}\n" if value is None else f"{key} = {value}\n"
                           for key, value in lines.items()))
    _check_train(["--data", str(data), "--labels", str(labels), "--window", "6",
                  "--config", str(cfg)], edits, tmp_path, capsys)


def _written_numbers(path):
    """The numbers in a file a command wrote: the floats of a JSON file, the
    tensors of a container, and the cells of a CSV that read as numbers."""
    if path.suffix == ".json":
        return _floats(json.loads(path.read_text()))
    if path.suffix == ".nkc":
        return [x for array in load_container(path)[0].values() for x in array.ravel()]
    numbers = []
    for cell in path.read_text().replace("\n", ",").split(","):
        try:
            numbers.append(float(cell))
        except ValueError:
            pass  # a header or a label name
    return numbers


def _check_command(argv, edits, out, capsys, files=()):
    """`argv` through `cli.main`: exit 0, 1 or 2. A failure prints one named
    error line and nothing on stdout, and leaves no `out` (a file or a
    directory, or None for a command that writes none); a success writes `out`,
    with each of `files` in it when it is a directory, and only finite numbers
    there. Returns the exit code and stdout."""
    capsys.readouterr()
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (edits, captured.err)
    assert "Traceback" not in captured.err
    if code:
        named = [line for line in captured.err.splitlines()
                 if line.startswith(("error:", "runtime error:"))]
        assert len(named) == 1 and captured.out == "", (edits, captured.err)
        assert out is None or not out.exists(), f"{edits}: exit {code} left {out}"
    elif out is not None:
        missing = [name for name in files if not (out / name).is_file()]
        assert out.exists() and not missing, f"{edits}: exit 0 without {out} {missing}"
        for path in [out] if out.is_file() else filter(Path.is_file, out.rglob("*")):
            assert all(map(math.isfinite, _written_numbers(path))), \
                f"{edits}: a non-finite number in {path.name}"
    return code, captured.out


def _check_train(argv, edits, tmp_path, capsys):
    """`train *argv`, checked by `_check_command`."""
    out = tmp_path / "edited-run"
    try:
        _check_command(["train", *argv, "--out", str(out)], edits, out, capsys,
                       files=("checkpoint.nkc", "manifest.json", "run_record.json"))
    finally:
        shutil.rmtree(out, ignore_errors=True)


class TestConfigFuzz:
    """`train --config` with a small valid config edited: every single edit, then
    random sets of up to three."""

    def test_every_single_edit(self, csv_run, tmp_path, capsys):
        _, data, labels = csv_run
        for edit in SINGLE_EDITS:
            _train_with_edited_config([edit], data, labels, tmp_path, capsys)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.sampled_from(SINGLE_EDITS), min_size=2, max_size=3))
    def test_combined_edits(self, csv_run, tmp_path, capsys, edits):
        _, data, labels = csv_run
        _train_with_edited_config(edits, data, labels, tmp_path, capsys)


# a small valid share run's side files on the `csv_run` recording: per flag, the
# separator of a line's fields and the lines, each a list of fields
SIDE_FILES = {
    "--labels": ("", [["walk"], ["run"]]),
    "--label-map": ("\t", [["walk", "move left"], ["run", "move right"]]),
    "--stop-tokens": ("", [["move"]]),
    "--embeddings": (" ", [["move", "0.1", "0.2", "0.3"], ["left", "0.4", "0.5", "0.6"],
                           ["right", "0.7", "-0.8", "0.9"]]),
}
# replacement fields: empty, a tab, a NaN, an overflow, a name that tokenizes to the
# first generated name, bytes that are not UTF-8, and a vector of another length
SIDE_VALUES = ["", "\t", "nan", "1e400", "Move, LEFT!", b"\xff\xfe", "0.5 0.5"]
# every single edit: each line dropped or duplicated, and each field set to each value
SIDE_EDITS = [(op, flag, i, None, None) for flag, (_, lines) in SIDE_FILES.items()
              for i in range(len(lines)) for op in ("drop", "duplicate")] + [
    ("set", flag, i, j, value) for flag, (_, lines) in SIDE_FILES.items()
    for i, line in enumerate(lines) for j in range(len(line)) for value in SIDE_VALUES]


def _side_file_bytes(flag, edits):
    """The bytes of `flag`'s side file after those of `edits` that name it."""
    sep, lines = SIDE_FILES[flag]
    lines = [list(line) for line in lines]
    for op, target, i, j, value in edits:
        if target != flag or i >= len(lines):
            continue
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, list(lines[i]))
        else:
            lines[i][j] = value
    encoded = [[f if isinstance(f, bytes) else f.encode() for f in line] for line in lines]
    return b"".join(sep.encode().join(line) + b"\n" for line in encoded)


def _train_with_edited_side_files(edits, data, tmp_path, capsys):
    """`train` of a small share model with all four side files, after `edits`,
    checked by `_check_train`."""
    argv = ["--data", str(data), "--window", "6", "--epochs", "1", "--conv-channels", "4,6",
            "--hidden-dim", "6"]
    for flag in SIDE_FILES:
        path = tmp_path / f"side{flag}.txt"
        path.write_bytes(_side_file_bytes(flag, edits))
        argv += [flag, str(path)]
    _check_train(argv, edits, tmp_path, capsys)


class TestSideFileFuzz:
    """`train` with its labels, label-map, stop-token and embeddings files edited:
    every single edit, then random sets of two or three."""

    def test_every_single_edit(self, csv_run, tmp_path, capsys):
        for edit in SIDE_EDITS:
            _train_with_edited_side_files([edit], csv_run[1], tmp_path, capsys)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.sampled_from(SIDE_EDITS), min_size=2, max_size=3))
    def test_combined_edits(self, csv_run, tmp_path, capsys, edits):
        _train_with_edited_side_files(edits, csv_run[1], tmp_path, capsys)


class TestCsvBytesFuzz:
    """`predict` and `train` on the `csv_run` recording with its bytes edited:
    exit 0, 1 or 2, one named error line on a failure, and no run directory
    left by a failed train."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_bytes(self, csv_run, tmp_path, capsys, data):
        run, csv, labels = csv_run
        original = csv.read_bytes()
        edits = data.draw(csv_edits(len(original)))
        edited = tmp_path / "edited.csv"
        edited.write_bytes(edited_bytes(original, edits))
        code, out = _check_command(_predict(run, edited), edits, None, capsys)
        if code == 0:
            assert set(out.split()) <= {"walk", "run"}, edits
        _check_train(["--data", str(edited), "--labels", str(labels), "--window", "6",
                      "--epochs", "1", "--conv-channels", "4,6", "--hidden-dim", "6",
                      "--embed-dim", "3"], edits, tmp_path, capsys)


def _set_meta(key, value):
    return lambda arrays, meta: meta.update({key: value})


def _set_cell(name, index, value):
    def edit(arrays, meta):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[index] = value
    return edit


def _windows(rows):
    return lambda arrays, meta: arrays.update(values=arrays["values"][rows],
                                              class_ids=arrays["class_ids"][rows])


# edits of a valid cache of the `csv_run` recording (20 windows of 1 channel x 6
# steps, labels walk and run), applied to (tensors, metadata) in turn. A size stays
# small, or is 10^12 or beyond 64 bits, which no check lets through to an allocation.
CACHE_EDITS = {
    **{f"{key}={value!r}": _set_meta(key, value) for key, values in {
        "kind": [None, "model", 1],
        "label_names": [[], ["walk"], ["run", "walk"], ["walk", "run", "jump"], ["walk", "walk"],
                        ["walk", ""], [1, 2], "walk", None],
        "channels": [0, -1, 2, 10**12, 2**64, 1.5, "1", True, None],
        "window": [0, -1, 2, 5, 7, 10**12, 2**64, 6.0, "6", None],
    }.items() for value in values},
    **{f"drop {key}": (lambda key: lambda arrays, meta: meta.pop(key))(key)
       for key in ("kind", "label_names", "channels", "window")},
    **{f"drop {name}": (lambda name: lambda arrays, meta: arrays.pop(name))(name)
       for name in ("values", "class_ids")},
    "values window 5": lambda arrays, meta: arrays.update(values=arrays["values"][:, :, :5]),
    "values 2 channels": lambda arrays, meta: arrays.update(
        values=np.concatenate([arrays["values"]] * 2, axis=1)),
    "values 2-d": lambda arrays, meta: arrays.update(values=arrays["values"][:, 0]),
    "values one row fewer": lambda arrays, meta: arrays.update(values=arrays["values"][1:]),
    "class_ids 2-d": lambda arrays, meta: arrays.update(class_ids=arrays["class_ids"][:, None]),
    **{f"values[3]={value!r}": _set_cell("values", 3, value)
       for value in (np.nan, np.inf, -np.inf, 1e308, -1e-320)},
    "values all 1e300": lambda arrays, meta: arrays.update(
        values=np.full_like(arrays["values"], 1e300)),
    "values all 0": lambda arrays, meta: arrays.update(values=np.zeros_like(arrays["values"])),
    **{f"class_ids[0]={value!r}": _set_cell("class_ids", 0, value)
       for value in (np.nan, np.inf, -1.0, 2.0, 0.5, 1.0 - 2**-53, 1e300, 2.0**63)},
    "no windows": _windows(slice(0, 0)),
    "one window": _windows(slice(0, 1)),
    "windows reversed": _windows(slice(None, None, -1)),
}


def _check_cache_commands(edits, base, run, tmp_path, capsys):
    """`train`, `eval --out` and `predict` on the base cache after `edits`, each
    checked by `_check_command`. A successful eval counts, in each row of its
    confusion matrix, the windows that the cache gives that class id."""
    arrays, meta = dict(base[0]), copy.deepcopy(base[1])
    for name in edits:
        try:
            CACHE_EDITS[name](arrays, meta)
        except (KeyError, IndexError):
            pass  # an earlier edit dropped the field or tensor, or the cell
    path = tmp_path / "edited.nkc"
    save_container(path, arrays, meta)
    _check_train(["--data", str(path), "--epochs", "1", "--conv-channels", "4,6",
                  "--hidden-dim", "6", "--embed-dim", "3"], edits, tmp_path, capsys)
    out = tmp_path / "edited-eval"
    try:
        if _check_command(["eval", "--model", str(run), "--data", str(path), "--out", str(out)],
                          edits, out, capsys, files=("metrics.json", "confusion.csv"))[0] == 0:
            confusion = np.loadtxt(out / "confusion.csv", delimiter=",", ndmin=2)
            ids = arrays["class_ids"]
            assert confusion.sum(axis=1).tolist() == [np.sum(ids == c) for c in (0, 1)], edits
    finally:
        shutil.rmtree(out, ignore_errors=True)
    code, printed = _check_command(_predict(run, path), edits, None, capsys)
    if code == 0:
        assert set(printed.split()) <= {"walk", "run"}, edits


@pytest.fixture
def recording_cache(csv_run, tmp_path):
    """The `csv_run` run, and its recording as a dataset cache's (tensors, metadata)."""
    run, data, labels = csv_run
    path = tmp_path / "recording.nkc"
    assert run_cli("prepare", "--data", str(data), "--labels", str(labels), "--window", "6",
                   "--out", str(path)) == 0
    return run, load_container(path)


class TestDatasetCacheFuzz:
    """`train`, `eval` and `predict` on a valid dataset cache with its metadata or
    tensors edited: every single edit, then random sets of two or three."""

    def test_every_single_edit(self, recording_cache, tmp_path, capsys):
        run, base = recording_cache
        for name in CACHE_EDITS:
            _check_cache_commands([name], base, run, tmp_path, capsys)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.sampled_from(sorted(CACHE_EDITS)), min_size=2, max_size=3))
    def test_combined_edits(self, recording_cache, tmp_path, capsys, edits):
        run, base = recording_cache
        _check_cache_commands(edits, base, run, tmp_path, capsys)


# each numeric flag of `train`, and each list flag of the suites alone and after a
# valid item, set to each of these; `--epochs` skips the huge integer, which would
# train for ever, and a conv width is set in either place
FLAG_VALUES = ["0", "-1", "nan", "inf", "1e400", "", "x", str(10**30)]
TRAIN_FLAGS = ["--epochs", "--batch-size", "--lr", "--p-aug", "--val-fraction", "--seed",
               "--hidden-dim", "--embed-dim", "--window", "--stride"]
SYNTH_FLAGS = ["--classes", "--shared-actions", "--per-class", "--test-per-class",
               "--timesteps", "--channels", "--noise", "--seed"]
# the list flags of each suite, with the valid item that a run takes when the flag
# is not the one under test
SUITE_LISTS = {"fewshot": {"--seeds": "0", "--fractions": "1.0"},
               "downsample": {"--seeds": "0", "--factors": "1"}}
_TINY = ["--epochs", "1", "--conv-channels", "4,6", "--hidden-dim", "6", "--embed-dim", "3"]


class TestNumericFlagsFuzz:
    """`train`, `fewshot`, `downsample` and `synth` with one numeric flag set to a
    bad, extreme or empty value, each checked by `_check_command`."""

    def test_synth_flags(self, tmp_path, capsys):
        out = tmp_path / "synth"
        for flag, value in [(flag, value) for flag in SYNTH_FLAGS for value in FLAG_VALUES]:
            # --per-class is a list: the value alone, and after a valid count
            for text in (value, f"3,{value}") if flag == "--per-class" else (value,):
                argv = ["synth", "--classes", "2", "--shared-actions", "1", "--per-class", "3,3",
                        "--test-per-class", "2", flag, text, "--out", str(out)]
                try:
                    _check_command(argv, (flag, text), out, capsys,
                                   files=("train.nkc", "test.nkc", "labels.txt"))
                finally:
                    shutil.rmtree(out, ignore_errors=True)

    def test_train_flags(self, csv_run, tmp_path, capsys):
        _, data, labels = csv_run
        cases = [(flag, value) for flag in TRAIN_FLAGS for value in FLAG_VALUES
                 if (flag, value) != ("--epochs", FLAG_VALUES[-1])]
        cases += [("--conv-channels", width) for value in FLAG_VALUES
                  for width in (f"{value},6", f"4,{value}")]
        for flag, value in cases:
            _check_train(["--data", str(data), "--labels", str(labels), "--window", "6", *_TINY,
                          flag, value], (flag, value), tmp_path, capsys)

    def test_suite_lists(self, csv_run, tmp_path, capsys):
        _, data, labels = csv_run
        out = tmp_path / "suite"
        for command, lists in SUITE_LISTS.items():
            valid_lists = [word for flag_and_items in lists.items() for word in flag_and_items]
            for flag, valid in lists.items():
                for items in (text for value in FLAG_VALUES
                              for text in (value, f"{valid},{value}")):
                    argv = [command, "--train", str(data), "--test", str(data),
                            "--labels", str(labels), "--window", "6", *_TINY, *valid_lists,
                            flag, items, "--out", str(out)]
                    try:
                        _check_command(argv, (command, flag, items), out, capsys,
                                       files=("records.json", "summary.csv"))
                    finally:
                        shutil.rmtree(out, ignore_errors=True)
