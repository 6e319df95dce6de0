"""Dataset loading, windowing arithmetic, and the synthetic generator."""

import pickle
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import naive_csv_windows
from hypothesis import given, settings
from hypothesis import strategies as st

from harseq.data import (
    Dataset,
    SyntheticSpec,
    compute_normalization_stats,
    downsample,
    generate_synthetic,
    load_dataset,
    load_dataset_cache,
    normalize,
    read_csv_windows,
    save_dataset_cache,
    stratified_split,
    subsample_train,
)
from harseq.errors import FormatError, ValidationError
from harseq.numkernel import save_container


def write_csv(path, rows, v=2):
    header = "subject,timestamp,label," + ",".join(f"ch{i}" for i in range(v))
    lines = [header]
    for subject, ts, label, values in rows:
        lines.append(f"{subject},{ts},{label}," + ",".join(str(x) for x in values))
    path.write_text("\n".join(lines) + "\n")


def single_run_rows(n, label="walk", subject="s1", v=2, start_ts=0):
    return [(subject, start_ts + i, label, [float(i), float(-i)] if v == 2 else [float(i)] * v)
            for i in range(n)]


@pytest.fixture
def labels_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("walk\nrun\n")
    return path


class TestLoadDataset:
    def test_window_count_exact_division(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        write_csv(data, single_run_rows(300))
        ds = load_dataset(data, labels_file, window=100, stride=100)
        assert len(ds) == 3
        assert ds.channels == 2
        assert all(s.values.shape == (2, 100) for s in ds.samples)

    def test_window_count_with_overlap(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        write_csv(data, single_run_rows(150))
        ds = load_dataset(data, labels_file, window=100, stride=50)
        assert len(ds) == 2

    def test_windows_never_mix_labels(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        rows = single_run_rows(10, label="walk") + single_run_rows(10, label="run", start_ts=10)
        write_csv(data, rows)
        ds = load_dataset(data, labels_file, window=5, stride=5)
        # each 10-row run yields exactly 2 windows; nothing spans the change
        assert len(ds) == 4
        assert [s.class_id for s in ds.samples] == [0, 0, 1, 1]

    def test_subject_change_breaks_run(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        rows = single_run_rows(6, subject="a") + single_run_rows(6, subject="b", start_ts=6)
        write_csv(data, rows)
        ds = load_dataset(data, labels_file, window=4, stride=4)
        assert len(ds) == 2  # one window per subject, remainder dropped

    def test_unknown_label_names_string_and_row(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        write_csv(data, [("s1", 0, "walk", [0, 0]), ("s1", 1, "fly", [0, 0])])
        with pytest.raises(ValidationError, match="'fly' at row 3"):
            load_dataset(data, labels_file, window=3, stride=1)

    def test_ragged_row_rejected(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        data.write_text("subject,timestamp,label,ch0,ch1\ns1,0,walk,1.0\n")
        with pytest.raises(FormatError, match="row 2"):
            load_dataset(data, labels_file, window=3, stride=1)

    def test_short_run_warns_and_skips(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        write_csv(data, single_run_rows(4))
        with pytest.warns(UserWarning, match="shorter than window"):
            ds = load_dataset(data, labels_file, window=10, stride=10)
        assert len(ds) == 0

    def test_every_run_short_gives_empty_dataset_with_shape(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        write_csv(data, single_run_rows(4, v=3) + single_run_rows(5, label="run", v=3), v=3)
        with pytest.warns(UserWarning, match="shorter than window"):
            ds = load_dataset(data, labels_file, window=10, stride=10)
        assert (len(ds), ds.channels, ds.window) == (0, 3, 10)
        x, y = ds.stacked()
        assert x.shape == (0, 3, 10) and y.shape == (0,)

    def test_bad_header(self, tmp_path, labels_file):
        data = tmp_path / "d.csv"
        data.write_text("time,label,ch0\n")
        with pytest.raises(FormatError, match="header"):
            load_dataset(data, labels_file, window=3, stride=1)


LABELS = ("walk", "run", "sit")


class TestCsvWindowsMatchReference:
    """Windows of random CSVs equal those of the naive reference in conftest."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("s1", "s2")), st.sampled_from(LABELS),
                              st.integers(min_value=1, max_value=12)), max_size=6),
           st.integers(min_value=1, max_value=3), st.integers(min_value=3, max_value=6),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    def test_windows_and_class_ids(self, runs, channels, window, stride, seed):
        rng = np.random.default_rng(seed)
        rows = [(subject, label, [float(x) for x in rng.normal(size=channels)])
                for subject, label, length in runs for _ in range(length)]
        with tempfile.TemporaryDirectory() as tmp:
            data, labels = Path(tmp) / "d.csv", Path(tmp) / "labels.txt"
            write_csv(data, [(s, i, lab, v) for i, (s, lab, v) in enumerate(rows)], v=channels)
            labels.write_text("\n".join(LABELS) + "\n")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # runs shorter than the window
                labelled = read_csv_windows(data, window, stride, list(LABELS))
                unlabelled = read_csv_windows(data, window, stride)
                ds = load_dataset(data, labels, window, stride)
        for (values, class_ids), names in ((labelled, LABELS), (unlabelled, None)):
            ref_values, ref_ids = naive_csv_windows(rows, window, stride, names)
            expected = np.array(ref_values, dtype=np.float64).reshape(-1, channels, window)
            assert values.shape == expected.shape
            assert values.tobytes() == expected.tobytes()
            assert (class_ids is None) if names is None else class_ids.tolist() == ref_ids
        assert ds.values.tobytes() == labelled[0].tobytes()
        assert ds.class_ids.tolist() == labelled[1].tolist()
        assert (ds.channels, ds.window) == (channels, window)


class TestDatasetContract:
    @pytest.mark.parametrize("values, class_ids, match", [
        (np.zeros((2, 8)), [0, 0], r"\[n, channels, window\]"),
        (np.zeros((2, 1, 8, 1)), [0, 0], r"\[n, channels, window\]"),
        (np.zeros((2, 1, 8)), [0], "class_ids has shape"),
        (np.zeros((2, 1, 8)), [0, 2], "class id 2 outside label set"),
        (np.zeros((2, 1, 8)), [-1, 0], "class id -1 outside label set"),
    ])
    def test_malformed_arrays_rejected(self, values, class_ids, match):
        with pytest.raises(ValidationError, match=match):
            Dataset(values, class_ids, ("a", "b"))

    def test_shape_fields_come_from_values(self):
        ds = Dataset(np.zeros((5, 3, 7)), [0, 1, 1, 0, 1], ("a", "b"))
        assert (len(ds), ds.channels, ds.window, ds.num_classes) == (5, 3, 7, 2)
        assert [s.class_id for s in ds.samples] == [0, 1, 1, 0, 1]

    def test_stacked_arrays_are_read_only(self):
        ds = generate_synthetic(SyntheticSpec(class_defs=((0, 0), (1, 1)),
                                              samples_per_class=(2, 2), noise_std=0.1))
        x, y = ds.stacked()
        assert x is ds.values and y is ds.class_ids
        with pytest.raises(ValueError):
            x[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            y[0] = 1
        with pytest.raises(ValueError):
            ds.samples[0].values[0, 0] = 1.0

    def test_unpickled_copy_is_equal_and_read_only(self):
        """A pickled copy is rebuilt through the checks."""
        ds = Dataset(np.arange(12.0).reshape(2, 1, 6), [1, 0], ("a", "b"))
        copy = pickle.loads(pickle.dumps(ds))
        assert np.array_equal(copy.values, ds.values)
        assert np.array_equal(copy.class_ids, ds.class_ids)
        assert copy.label_names == ds.label_names
        assert not (copy.values.flags.writeable or copy.class_ids.flags.writeable)

    def test_caller_array_stays_writable(self):
        values = np.zeros((1, 2, 4))
        Dataset(values, [0], ("a",))
        values[0, 0, 0] = 1.0


class TestNormalize:
    def make_dataset(self, rng, n=20, v=3, t=16):
        values = np.stack([rng.normal(loc=[2.0, -1.0, 0.5][:v], scale=3.0, size=(t, v)).T
                           for _ in range(n)])
        return Dataset(values, [0] * n, ("walk",))

    def test_training_split_self_statistics(self):
        ds = self.make_dataset(np.random.default_rng(0))
        stats = compute_normalization_stats(ds)
        out = normalize(ds, stats)
        x, _ = out.stacked()
        np.testing.assert_allclose(x.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(x.std(axis=(0, 2)), 1.0, atol=1e-9)

    def test_constant_channel_floored(self):
        ds = Dataset(np.full((1, 2, 8), 5.0), [0], ("walk",))
        out = normalize(ds, compute_normalization_stats(ds))
        np.testing.assert_array_equal(out.samples[0].values, 0.0)

    def test_other_split_uses_train_stats(self):
        rng = np.random.default_rng(1)
        train = self.make_dataset(rng)
        test = self.make_dataset(rng)
        stats = compute_normalization_stats(train)
        out = normalize(test, stats)
        expected = (test.samples[0].values - stats.mean[:, None]) / stats.std[:, None]
        np.testing.assert_array_equal(out.samples[0].values, expected)

    def test_affine_invertible(self):
        rng = np.random.default_rng(2)
        ds = self.make_dataset(rng, n=5)
        stats = compute_normalization_stats(ds)
        out = normalize(ds, stats)
        for before, after in zip(ds.samples, out.samples):
            recovered = after.values * stats.std[:, None] + stats.mean[:, None]
            np.testing.assert_allclose(recovered, before.values, atol=1e-12)


class TestDownsample:
    def make_dataset(self, t=128):
        rng = np.random.default_rng(3)
        values = np.stack([rng.normal(size=(2, t)) for _ in range(4)])
        return Dataset(values, [0] * 4, ("walk",))

    def test_halves_window(self):
        out = downsample(self.make_dataset(), 2)
        assert out.window == 64
        assert out.samples[0].values.shape == (2, 64)

    def test_factor_one_identity(self):
        ds = self.make_dataset()
        assert downsample(ds, 1) is ds

    def test_composition(self):
        ds = self.make_dataset()
        twice = downsample(downsample(ds, 2), 2)
        once = downsample(ds, 4)
        assert twice.window == once.window
        for a, b in zip(twice.samples, once.samples):
            np.testing.assert_array_equal(a.values, b.values)

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError, match="< 3"):
            downsample(self.make_dataset(t=16), 8)


class TestSubsampleTrain:
    def make_dataset(self, counts=(50, 30, 20)):
        values = np.concatenate([np.repeat(np.arange(n, dtype=float)[:, None, None], 4, axis=2)
                                 for n in counts])
        return Dataset(values, np.repeat(np.arange(len(counts)), counts),
                       tuple(f"c{i}" for i in range(len(counts))))

    def test_fraction_one_identity(self):
        ds = self.make_dataset()
        assert subsample_train(ds, 1.0, seed=0) is ds

    def test_exact_count(self):
        ds = self.make_dataset((60, 40))
        out = subsample_train(ds, 0.2, seed=1)
        assert len(out) == 20

    def test_same_seed_same_subset(self):
        ds = self.make_dataset()
        a = subsample_train(ds, 0.3, seed=7)
        b = subsample_train(ds, 0.3, seed=7)
        for s1, s2 in zip(a.samples, b.samples):
            assert s1.class_id == s2.class_id
            np.testing.assert_array_equal(s1.values, s2.values)

    def test_class_coverage_preserved(self):
        ds = self.make_dataset((50, 30, 20))
        for seed in range(10):
            out = subsample_train(ds, 0.1, seed=seed)  # 10 samples for 3 classes
            present = {s.class_id for s in out.samples}
            assert present == {0, 1, 2}

    def test_invalid_fraction(self):
        with pytest.raises(ValidationError, match="fraction"):
            subsample_train(self.make_dataset(), 0.0, seed=0)


class TestStratifiedSplit:
    def test_every_class_in_both_when_large(self):
        counts = (20, 10, 5)
        ds = Dataset(np.zeros((sum(counts), 1, 4)), np.repeat(np.arange(3), counts),
                     ("a", "b", "c"))
        main, hold = stratified_split(ds, 0.2, seed=0)
        main_classes = {s.class_id for s in main.samples}
        hold_classes = {s.class_id for s in hold.samples}
        assert main_classes == {0, 1, 2}
        assert hold_classes == {0, 1, 2}  # every class has >= 5 samples

    def test_tiny_class_stays_in_main(self):
        ds = Dataset(np.zeros((11, 1, 4)), [0] + [1] * 10, ("rare", "common"))
        main, _ = stratified_split(ds, 0.2, seed=0)
        assert any(s.class_id == 0 for s in main.samples)


class TestSynthetic:
    def test_shared_action_identical_action_channels(self):
        spec = SyntheticSpec(class_defs=((0, 0), (0, 1)), samples_per_class=(1, 1),
                             noise_std=0.0, timesteps=32, channels=4, seed=0)
        ds = generate_synthetic(spec)
        a, b = ds.samples[0].values, ds.samples[1].values
        np.testing.assert_array_equal(a[:2], b[:2])  # action-driven half matches
        assert not np.array_equal(a[2:], b[2:])

    def test_reproducible_bit_exact(self):
        spec = SyntheticSpec(class_defs=((0, 0), (1, 1)), samples_per_class=(5, 5),
                             noise_std=0.4, timesteps=16, channels=4, seed=11)
        x1, y1 = generate_synthetic(spec).stacked()
        x2, y2 = generate_synthetic(spec).stacked()
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_label_names_compose_action_object(self):
        spec = SyntheticSpec(class_defs=((0, 0), (1, 1)), samples_per_class=(1, 1))
        ds = generate_synthetic(spec)
        assert ds.label_names == ("action0 object0", "action1 object1")

    def test_noise_free_nearest_centroid_is_perfect(self):
        spec = SyntheticSpec(class_defs=((0, 0), (0, 1), (1, 2), (1, 3)),
                             samples_per_class=(10, 10, 10, 10),
                             noise_std=0.0, timesteps=32, channels=4, seed=3)
        ds = generate_synthetic(spec)
        x, y = ds.stacked()
        flat = x.reshape(len(ds), -1)
        centroids = np.stack([flat[y == c].mean(axis=0) for c in range(ds.num_classes)])
        dists = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        preds = dists.argmin(axis=1)
        assert (preds == y).all()

    def test_duplicate_class_defs_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            SyntheticSpec(class_defs=((0, 0), (0, 0)), samples_per_class=(1, 1))

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ValidationError, match="noise_std must be finite and non-negative"):
            SyntheticSpec(class_defs=((0, 0), (1, 1)), samples_per_class=(1, 1), noise_std=noise)


class TestDatasetCache:
    def test_roundtrip(self, tmp_path):
        spec = SyntheticSpec(class_defs=((0, 0), (1, 1)), samples_per_class=(3, 2),
                             noise_std=0.2, timesteps=12, channels=4, seed=5)
        ds = generate_synthetic(spec)
        path = tmp_path / "ds.nkc"
        save_dataset_cache(ds, path)
        loaded = load_dataset_cache(path)
        assert loaded.label_names == ds.label_names
        assert loaded.window == ds.window and loaded.channels == ds.channels
        x1, y1 = ds.stacked()
        x2, y2 = loaded.stacked()
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    @pytest.mark.parametrize("ids, shown", [((0.7, 1.9), "0.7"), ((0.0, np.nan), "nan")])
    def test_class_ids_that_are_not_whole_are_format_errors(self, tmp_path, ids, shown):
        path = tmp_path / "ids.nkc"
        save_container(path, {"values": np.zeros((2, 1, 4)), "class_ids": np.array(ids)},
                       {"kind": "dataset", "label_names": ["a", "b"], "channels": 1, "window": 4})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=f"tensor 'class_ids' holds {shown}, not a whole"):
                load_dataset_cache(path)

    def test_resave_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(class_defs=((0, 0), (1, 1), (1, 2)), samples_per_class=(3, 0, 2),
                             noise_std=0.2, timesteps=12, channels=3, seed=5)
        first, second = tmp_path / "a.nkc", tmp_path / "b.nkc"
        save_dataset_cache(generate_synthetic(spec), first)
        save_dataset_cache(load_dataset_cache(first), second)
        assert first.read_bytes() == second.read_bytes()
