"""Metrics oracle, training-loop behavior, and protocol suites."""

import re

import numpy as np
import pytest
from conftest import naive_metrics, small_config, small_synthetic

from harseq.data import Dataset, compute_normalization_stats, normalize, stratified_split
from harseq.errors import ValidationError
from harseq.experiment import (
    EVAL_CHUNK,
    Metrics,
    RunRecord,
    TrainConfig,
    compute_metrics,
    evaluate,
    export_features,
    run_downsample_suite,
    run_fewshot_suite,
    summarize_records,
    train_share,
    train_vanilla,
    write_records_json,
    load_records_json,
    predict_classes,
)
from harseq.labelspace import build_label_space
from harseq.model import (
    EncoderConfig,
    ShareModel,
    VanillaModel,
    teacher_forced_loss,
    vanilla_forward,
)


def normalized(dataset):
    return normalize(dataset, compute_normalization_stats(dataset))


@pytest.fixture(scope="module")
def trained_share():
    """One small trained run shared across tests (noise-free 4-class data)."""
    ds = normalized(small_synthetic(noise=0.0, per_class=40))
    space = build_label_space(ds.label_names)
    config = small_config(epochs=30)
    model, record = train_share(ds, space, config)
    return model, record, ds, space, config


class TestComputeMetrics:
    def test_hand_case(self):
        m = compute_metrics([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert m.accuracy == 0.75
        assert m.precision == (1.0, 2 / 3)
        assert m.recall == (0.5, 1.0)
        f0 = 2 * 1.0 * 0.5 / 1.5
        f1 = 2 * (2 / 3) * 1.0 / (2 / 3 + 1.0)
        assert m.f1 == (f0, f1)
        assert m.macro_f1 == (f0 + f1) / 2
        assert abs(m.macro_f1 - 11 / 15) < 1e-12
        assert m.confusion == ((1, 1), (0, 2))

    def test_perfect_predictions(self):
        y = [0, 1, 2, 2, 1, 0]
        m = compute_metrics(y, y, 3)
        assert m.accuracy == 1.0
        assert m.macro_f1 == 1.0
        conf = np.array(m.confusion)
        assert (conf == np.diag(np.diag(conf))).all()

    def test_absent_class_counts_zero(self):
        # class 2 never true and never predicted: F1 contributes 0
        m = compute_metrics([0, 0, 1, 1], [0, 0, 1, 1], 3)
        assert m.f1[2] == 0.0
        assert m.macro_f1 == (1.0 + 1.0 + 0.0) / 3

    def test_matches_naive_reference_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 9))
            n = int(rng.integers(1, 60))
            y_true = rng.integers(0, c, size=n).tolist()
            y_pred = rng.integers(0, c, size=n).tolist()
            m = compute_metrics(y_true, y_pred, c)
            acc, prec, rec, f1, macro, conf = naive_metrics(y_true, y_pred, c)
            assert m.accuracy == acc
            assert list(m.precision) == prec
            assert list(m.recall) == rec
            assert list(m.f1) == f1
            assert m.macro_f1 == macro
            assert [list(r) for r in m.confusion] == conf

    def test_accuracy_is_trace_over_total(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 4, size=100)
        y_pred = rng.integers(0, 4, size=100)
        m = compute_metrics(y_true, y_pred, 4)
        conf = np.array(m.confusion)
        assert m.accuracy == np.trace(conf) / conf.sum()


class TestTrainShare:
    def test_zero_epochs_returns_initialized_model(self):
        ds = normalized(small_synthetic(per_class=10))
        space = build_label_space(ds.label_names)
        model, record = train_share(ds, space, small_config(epochs=0))
        assert record.epochs == []
        assert not model.encoder.bn1.initialized

    def test_training_reduces_loss(self, trained_share):
        _, record, _, _, _ = trained_share
        assert record.epochs[-1].train_loss < record.epochs[0].train_loss

    def test_trained_model_evaluates_well(self, trained_share):
        model, _, ds, space, _ = trained_share
        metrics = evaluate(model, ds, space)
        assert metrics.accuracy > 0.9

    def test_identical_seeds_identical_histories(self):
        ds = normalized(small_synthetic(noise=0.5, per_class=12))
        space = build_label_space(ds.label_names)
        config = small_config(epochs=3, seed=4)
        _, rec_a = train_share(ds, space, config)
        _, rec_b = train_share(ds, space, config)
        assert [e.to_dict() for e in rec_a.epochs] == [e.to_dict() for e in rec_b.epochs]

    def test_empty_class_rejected(self):
        ds = normalized(small_synthetic(per_class=10))
        space = build_label_space(list(ds.label_names) + ["action9 object9"])
        from dataclasses import replace
        ds_extra = replace(ds, label_names=ds.label_names + ("action9 object9",))
        with pytest.raises(ValidationError, match="no training samples"):
            train_share(ds_extra, space, small_config(epochs=1))

    def test_best_epoch_parameters_restored(self):
        # pick a seed whose best validation score is not at the final epoch,
        # then check the returned model reproduces that best score
        ds = normalized(small_synthetic(noise=1.2, per_class=14, seed=2))
        space = build_label_space(ds.label_names)
        for seed in range(8):
            config = small_config(epochs=4, seed=seed, learning_rate=5e-3)
            model, record = train_share(ds, space, config)
            scores = [e.val_macro_f1 for e in record.epochs]
            if int(np.argmax(scores)) != len(scores) - 1:
                _, val_ds = stratified_split(ds, config.val_fraction, seed=config.seed)
                got = evaluate(model, val_ds, space)
                assert got.macro_f1 == max(scores)
                return
        pytest.fail("no seed produced a non-final best epoch; widen the search")

    def test_retrain_full_mode_runs(self):
        ds = normalized(small_synthetic(per_class=12))
        space = build_label_space(ds.label_names)
        model, record = train_share(ds, space, small_config(epochs=2, retrain_full=True))
        assert len(record.epochs) == 2
        assert model.encoder.bn1.initialized


class TestTrainVanilla:
    def test_zero_epochs(self):
        ds = normalized(small_synthetic(per_class=10))
        _, record = train_vanilla(ds, small_config(epochs=0))
        assert record.epochs == []

    def test_training_reduces_loss(self):
        ds = normalized(small_synthetic(per_class=20))
        model, record = train_vanilla(ds, small_config(epochs=25))
        assert record.epochs[-1].train_loss < record.epochs[0].train_loss
        assert evaluate(model, ds).accuracy > 0.9

    def test_identical_seeds_identical_histories(self):
        ds = normalized(small_synthetic(noise=0.5, per_class=12))
        config = small_config(epochs=3, seed=9)
        _, rec_a = train_vanilla(ds, config)
        _, rec_b = train_vanilla(ds, config)
        assert [e.to_dict() for e in rec_a.epochs] == [e.to_dict() for e in rec_b.epochs]


class TestRunRecord:
    def test_json_roundtrip_lossless(self, trained_share):
        _, record, ds, space, _ = trained_share
        text = record.to_json()
        back = RunRecord.from_json(text)
        assert back.to_json() == text
        assert back.to_dict() == record.to_dict()

    def test_epoch_rows_match_budget(self, trained_share):
        _, record, _, _, config = trained_share
        assert len(record.epochs) == config.epochs


class TestSuites:
    def test_fewshot_single_cell_row_count(self):
        train = small_synthetic(per_class=12)
        test = small_synthetic(per_class=6, seed=33)
        space = build_label_space(train.label_names)
        records = run_fewshot_suite(train, test, space, fractions=[1.0], seeds=[0],
                                    config=small_config(epochs=1))
        assert len(records) == 2
        kinds = {r.model_kind for r in records}
        assert kinds == {"share", "vanilla"}
        assert all(r.final_test is not None for r in records)

    def test_fewshot_grid_row_count(self):
        train = small_synthetic(per_class=12)
        test = small_synthetic(per_class=6, seed=33)
        space = build_label_space(train.label_names)
        records = run_fewshot_suite(train, test, space, fractions=[0.5, 1.0],
                                    seeds=[0, 1], config=small_config(epochs=1))
        assert len(records) == 2 * 2 * 2
        summary = summarize_records(records)
        assert len(summary) == 4  # (fraction, model) cells

    def test_downsample_suite_skips_tiny_factors(self):
        train = small_synthetic(per_class=12, timesteps=16)
        test = small_synthetic(per_class=6, timesteps=16, seed=33)
        space = build_label_space(train.label_names)
        with pytest.warns(UserWarning, match="skipping downsample factor 8"):
            records = run_downsample_suite(train, test, space, factors=[2, 8],
                                           seeds=[0], config=small_config(epochs=1))
        assert len(records) == 2  # only factor 2 survives
        assert all(r.config["downsample_factor"] == 2 for r in records)

    @staticmethod
    def _assert_rejected_before_training(monkeypatch, suite, values, seeds, message,
                                         class_defs=((0, 0), (0, 1), (1, 2), (1, 3))):
        calls = []
        monkeypatch.setattr("harseq.experiment.train_share", lambda *a: calls.append("share"))
        monkeypatch.setattr("harseq.experiment.train_vanilla", lambda *a: calls.append("vanilla"))
        train = small_synthetic(per_class=12, timesteps=16)
        test = small_synthetic(per_class=6, timesteps=16, class_defs=class_defs, seed=33)
        space = build_label_space(train.label_names)
        with pytest.raises(ValidationError, match=message):
            suite(train, test, space, values, seeds, small_config(epochs=1))
        assert calls == []

    @pytest.mark.parametrize("suite, values", [(run_fewshot_suite, [0.5]),
                                               (run_downsample_suite, [2])])
    def test_every_seed_checked_before_any_training(self, monkeypatch, suite, values):
        self._assert_rejected_before_training(monkeypatch, suite, values, [0, -1],
                                              "seed must be non-negative, got -1")

    @pytest.mark.parametrize("suite, values, message", [
        (run_fewshot_suite, [1.0, 1.5], r"fractions must lie in \(0, 1\], got \[1.5\]"),
        (run_fewshot_suite, [0.0, 0.5], r"fractions must lie in \(0, 1\], got \[0.0\]"),
        (run_downsample_suite, [1, 0], r"downsample factors must be at least 1, got \[0\]"),
        (run_downsample_suite, [-2], r"downsample factors must be at least 1, got \[-2\]")])
    def test_every_value_checked_before_any_training(self, monkeypatch, suite, values, message):
        self._assert_rejected_before_training(monkeypatch, suite, values, [0, 1], message)

    @pytest.mark.parametrize("suite, values", [(run_fewshot_suite, [0.5]),
                                               (run_downsample_suite, [2])])
    def test_test_labels_checked_before_any_training(self, monkeypatch, suite, values):
        names = ["action0 object0", "action0 object1", "action1 object2"]
        message = re.escape(f"the test set has labels {names!r}, but the training set's, "
                            f"in order, are {names + ['action1 object3']!r}")
        self._assert_rejected_before_training(monkeypatch, suite, values, [0], message,
                                              class_defs=((0, 0), (0, 1), (1, 2)))

    def test_records_json_roundtrip(self, tmp_path):
        train = small_synthetic(per_class=12)
        test = small_synthetic(per_class=6, seed=33)
        space = build_label_space(train.label_names)
        records = run_fewshot_suite(train, test, space, fractions=[1.0], seeds=[0],
                                    config=small_config(epochs=1))
        path = tmp_path / "records.json"
        write_records_json(records, path)
        loaded = load_records_json(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


class TestExportFeatures:
    def test_shape_and_reexport(self, tmp_path, trained_share):
        model, _, ds, _, _ = trained_share
        p1 = tmp_path / "feats1.csv"
        p2 = tmp_path / "feats2.csv"
        export_features(model, ds, p1)
        export_features(model, ds, p2)
        lines = p1.read_text().strip().split("\n")
        assert len(lines) == len(ds) + 1
        dim = model.encoder_config.feature_dim
        assert all(len(line.split(",")) == dim + 1 for line in lines)
        assert p1.read_bytes() == p2.read_bytes()

    def test_features_are_the_scoring_passes_bits(self, tmp_path):
        """A window's features can round differently in another encoder block
        (8 of these 600 windows at T=37 did on OpenBLAS), so the export keeps
        the scorer's EVAL_CHUNK slices and writes the scoring pass's bits."""
        rng = np.random.default_rng(0)
        model = VanillaModel(2, EncoderConfig(in_channels=4), rng=rng)
        model.encoder.forward(rng.normal(size=(16, 4, 37)), "train", cache=False)
        x = rng.normal(size=(600, 4, 37))
        export_features(model, Dataset(x, np.arange(600) % 2, ("a", "b")), tmp_path / "f.csv")
        lines = (tmp_path / "f.csv").read_text().splitlines()[1:]
        written = np.array([[float(v) for v in line.split(",")[:-1]] for line in lines])
        z = np.concatenate([model.encoder.forward(x[lo:lo + EVAL_CHUNK], "eval", cache=False)
                            for lo in range(0, len(x), EVAL_CHUNK)])
        assert np.array_equal(written, z)

    def test_within_class_variance_below_between(self, tmp_path, trained_share):
        model, _, ds, _, _ = trained_share
        x, y = ds.stacked()
        z = model.encoder.forward(x, "eval", cache=False)
        centroids = np.stack([z[y == c].mean(axis=0) for c in range(ds.num_classes)])
        within = np.mean([((z[y == c] - centroids[c]) ** 2).sum(axis=1).mean()
                          for c in range(ds.num_classes)])
        between = ((centroids - centroids.mean(axis=0)) ** 2).sum(axis=1).mean()
        assert within <= between


class TestScoringInterface:
    """`class_log_scores` and the validation loss taken from it, for both models."""

    @pytest.fixture(scope="class")
    def big_val(self):
        # val_fraction 0.6 of 480 windows: 288 validation windows, two EVAL_CHUNKs
        ds = normalized(small_synthetic(noise=0.8, per_class=120, timesteps=16))
        config = small_config(epochs=1, val_fraction=0.6, conv_channels=(4, 6),
                              hidden_dim=6, embed_dim=4)
        _, val_ds = stratified_split(ds, config.val_fraction, seed=config.seed)
        assert len(val_ds) > EVAL_CHUNK
        return ds, val_ds, config

    def test_share_val_loss_is_teacher_forced_loss(self, big_val):
        ds, val_ds, config = big_val
        space = build_label_space(ds.label_names)
        model, record = train_share(ds, space, config)  # one epoch: returned = validated
        x, y = val_ds.stacked()
        bodies = [space.sequences[int(c)].tokens for c in y]
        expected = teacher_forced_loss(model, x, bodies, space, mode="eval")
        assert abs(record.epochs[0].val_loss - expected) <= 1e-12 * abs(expected)

    def test_vanilla_val_loss_is_cross_entropy(self, big_val):
        ds, val_ds, config = big_val
        model, record = train_vanilla(ds, config)
        x, y = val_ds.stacked()
        expected, _ = vanilla_forward(model, x, y, mode="eval")
        assert abs(record.epochs[0].val_loss - expected) <= 1e-12 * abs(expected)

    @staticmethod
    def models(num_classes=4):
        ds = normalized(small_synthetic(per_class=6, timesteps=12))
        space = build_label_space(ds.label_names)
        enc = EncoderConfig(in_channels=ds.channels, conv_channels=(4, 6))
        x, _ = ds.stacked()
        share = ShareModel(space, enc, hidden_dim=6, embed_dim=4,
                           rng=np.random.default_rng(1))
        vanilla = VanillaModel(num_classes, enc, rng=np.random.default_rng(2))
        for model in (share, vanilla):
            model.encoder.forward(x, "train", cache=False)  # batch-norm statistics
        return share, vanilla, x

    def test_scores_are_batch_by_classes(self):
        share, vanilla, x = self.models()
        for model in (share, vanilla):
            scores = model.class_log_scores(x[:5])
            assert scores.shape == (5, 4)
            assert model.steps_per_class.shape == (4,)

    def test_argmax_is_predict_classes(self):
        share, vanilla, x = self.models()
        for model in (share, vanilla):
            np.testing.assert_array_equal(model.class_log_scores(x).argmax(axis=1),
                                          predict_classes(model, x))

    def test_ties_go_to_lowest_id(self):
        _, vanilla, x = self.models()
        vanilla.head.weight.data[:] = 0.0
        vanilla.head.bias.data[:] = 0.0
        assert (predict_classes(vanilla, x) == 0).all()

    def test_vanilla_rows_are_log_probabilities(self):
        _, vanilla, x = self.models()
        scores = vanilla.class_log_scores(x)
        np.testing.assert_allclose(np.log(np.exp(scores).sum(axis=1)), 0.0, atol=1e-12)

    def test_vanilla_batch_loss_draws_nothing(self):
        _, vanilla, x = self.models()
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        vanilla.batch_loss(x[:4], np.array([0, 1, 2, 3]), rng, p_aug=1.0)
        assert rng.bit_generator.state == before
