"""End-to-end command-line tests: config resolution, train/predict/eval flow."""

import json

import numpy as np
import pytest

from harseq.cli import main, resolve_config
from harseq.errors import ValidationError
from harseq.experiment import RunRecord


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


class TestTrain:
    def test_run_directory_contents(self, run_dir):
        for name in ("checkpoint.nkc", "manifest.json", "run_record.json", "labels.txt"):
            assert (run_dir / name).exists(), name
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

    def test_predict_label_mismatch_fails_before_inference(self, run_dir, tmp_path, synth_dir):
        wrong = tmp_path / "wrong_labels.txt"
        wrong.write_text("alpha\nbeta\ngamma\ndelta\n")
        code = run_cli("predict", "--model", str(run_dir),
                       "--data", str(synth_dir / "test.nkc"), "--labels", str(wrong))
        assert code == 1

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
        run, data, labels = csv_run
        code = run_cli("eval", "--model", str(run), "--data", str(data),
                       "--labels", str(labels), "--stride", stride)
        assert code == 1

    def test_prepare_rejects_non_positive_stride(self, csv_run, stride, tmp_path):
        _, data, labels = csv_run
        code = run_cli("prepare", "--data", str(data), "--labels", str(labels),
                       "--window", "6", "--stride", stride, "--out", str(tmp_path / "c.nkc"))
        assert code == 1
        assert not (tmp_path / "c.nkc").exists()
