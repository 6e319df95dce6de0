"""tools/same_bits.py: how much each kind of compared file differs."""

import importlib.util
import json
import os

import numpy as np

from harseq.data import Dataset, read_csv_windows, save_dataset_cache
from harseq.numkernel import save_container

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "same_bits.py")
_SPEC = importlib.util.spec_from_file_location("same_bits", _PATH)
same_bits = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bits)


def _pair(tmp_path, name, write, a, b):
    paths = [tmp_path / "parent" / name, tmp_path / "change" / name]
    for path, content in zip(paths, (a, b)):
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path, content)
    return [str(p) for p in paths]


def test_checkpoint_names_each_differing_tensor_with_its_max_diff(tmp_path):
    a = {"enc.bn1.beta": np.zeros(3), "enc.conv1.bias": np.ones(2),
         "enc.conv1.weight": np.ones(2), "w": np.eye(2)}
    b = {"enc.bn1.beta": np.array([0.0, 2.5e-16, -1e-15]), "enc.bn1.gamma": np.ones(3),
         "enc.conv1.weight": np.ones(2), "w": np.zeros((3, 3))}
    pa, pb = _pair(tmp_path, "checkpoint.nkc", save_container, a, b)
    assert same_bits.difference(pa, pb, "run/checkpoint.nkc") == [
        "enc.bn1.beta: max |diff| 1e-15", "enc.bn1.gamma: only in the change",
        "enc.conv1.bias: only in the parent", "w: shapes (2, 2) and (3, 3)"]


def test_scores_and_csv_give_the_max_diff(tmp_path):
    pa, pb = _pair(tmp_path, "s.f64", lambda p, x: np.asarray(x).tofile(p),
                   [1.0, -2.0], [1.0, -2.0 + 2**-40])
    assert same_bits.difference(pa, pb, "s.f64") == [f"max |diff| {2**-40:.3g}"]
    pa, pb = _pair(tmp_path, "f.csv", lambda p, s: p.write_text(s),
                   "f0,class_id\n0.5,1\n0.25,0\n", "f0,class_id\n0.5,1\n0.2500001,0\n")
    assert same_bits.difference(pa, pb, "f.csv") == ["1 cells differ, max |diff| 1e-07"]


def test_run_record_names_the_differing_keys_less_wall_clock(tmp_path):
    record = {"epochs": [{"epoch": 1, "train_loss": 0.5}, {"epoch": 2, "train_loss": 0.25}],
              "model_kind": "share", "wall_clock_seconds": 1.0}
    changed = json.loads(json.dumps(record))
    changed["epochs"][1]["train_loss"] = 0.25 + 2**-50
    changed["model_kind"] = "vanilla"
    changed["wall_clock_seconds"] = 9.0
    pa, pb = _pair(tmp_path, "run_record.json", lambda p, d: p.write_text(json.dumps(d)),
                   record, changed)
    assert same_bits.difference(pa, pb, "share/run_record.json") == [
        f"epochs[].train_loss: max |diff| {2**-50:.3g}", "model_kind"]


def test_recording_reads_back_as_the_test_cache(tmp_path):
    values = np.random.default_rng(0).normal(size=(3, 2, 4))
    (tmp_path / "synth").mkdir()
    save_dataset_cache(Dataset(values, np.array([1, 1, 0]), ("walk", "run")),
                       tmp_path / same_bits.TEST_DATA)
    for name, first_cell in same_bits.RECORDINGS:
        same_bits.write_recording(str(tmp_path), f"{name}.csv", first_cell)
        windows, class_ids = read_csv_windows(tmp_path / f"{name}.csv", 4, 4, ["walk", "run"])
        expected = values.copy()
        if first_cell:
            expected[0, 0, 0] = float(first_cell)
        assert windows.tobytes() == expected.tobytes() and class_ids.tolist() == [1, 1, 0]
