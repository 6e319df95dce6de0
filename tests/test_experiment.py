"""Metrics oracle, training-loop behavior, and protocol suites."""

import ctypes
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from conftest import InWorker, exit_after, naive_metrics, small_config, small_synthetic, touch

import harseq
from harseq import experiment
from harseq.data import Dataset, compute_normalization_stats, normalize, stratified_split
from harseq.errors import ValidationError
from harseq.experiment import (
    EVAL_CHUNK,
    FORKED_SCORING_MIN_CHUNKS,
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

    def test_to_dict_writes_the_json_of_asdict_and_reads_back(self):
        rng = np.random.default_rng(2)
        m = compute_metrics(rng.integers(0, 7, size=80), rng.integers(0, 7, size=80), 7)
        assert (json.dumps(m.to_dict(), sort_keys=True, indent=2)
                == json.dumps(dataclasses.asdict(m), sort_keys=True, indent=2))
        assert Metrics.from_dict(json.loads(json.dumps(m.to_dict()))) == m
        assert Metrics.from_dict(m.to_dict()) == m


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
        calls = []  # every task list handed to the dispatcher, which starts all training
        monkeypatch.setattr("harseq.experiment._run_tasks", lambda tasks: calls.append(tasks) or [])
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


def _records(records):
    return [{k: v for k, v in r.to_dict().items() if k != "wall_clock_seconds"}
            for r in records]


def _tiny_suite(fractions=(1.0,), **overrides):
    train = small_synthetic(per_class=12, timesteps=16)
    test = small_synthetic(per_class=6, timesteps=16, seed=33)
    return run_fewshot_suite(train, test, build_label_space(train.label_names), list(fractions),
                             [0], small_config(epochs=1, **overrides))


def _openblas_threads():
    """(getter, setter) of the thread count of the OpenBLAS this process has
    loaded, where that library exports both; else None."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    for lib in map(ctypes.CDLL, sorted(paths)):
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                getter, setter = getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


# a suite run as a script with no `if __name__ == "__main__"` guard, in two workers,
# after output that sits unflushed in the script's block-buffered stdout
NO_MAIN_GUARD = """
import json, os
from conftest import small_config, small_synthetic
from harseq.experiment import run_fewshot_suite
from harseq.labelspace import build_label_space
os.sched_getaffinity = lambda pid: {0, 1}
print("parent output before the suite")
train = small_synthetic(per_class=12, timesteps=16)
test = small_synthetic(per_class=6, timesteps=16, seed=33)
records = run_fewshot_suite(train, test, build_label_space(train.label_names), [1.0], [0],
                            small_config(epochs=1))
print(json.dumps([r.to_dict() for r in records]))
"""


class TestSuiteWorkers:
    """Suite tasks in worker processes: same records, errors, warnings, no leftovers."""

    def test_script_without_main_guard(self, tmp_path, cpus):
        script = tmp_path / "suite.py"
        script.write_text(NO_MAIN_GUARD)
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(harseq.__file__)), tests]))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("parent output before the suite") == 1  # not once per fork
        cpus(1)
        in_worker = [RunRecord.from_dict(d) for d in json.loads(proc.stdout.splitlines()[-1])]
        assert _records(in_worker) == _records(_tiny_suite())

    def test_workers_are_reaped_after_a_suite(self, cpus, worker_procs):
        cpus(2)
        assert len(_tiny_suite()) == 2
        assert len(worker_procs) == 2
        for p in worker_procs:  # waited for already: no exit status is left to collect
            with pytest.raises(ChildProcessError):
                os.waitpid(p.pid, os.WNOHANG)
        assert all(p.exitcode == 0 for p in worker_procs)

    def test_a_caller_with_another_thread_runs_tasks_in_process(self, cpus, worker_procs,
                                                                monkeypatch):
        cpus(1)
        expected = _records(_tiny_suite())
        pids, run_task = [], experiment._run_task
        monkeypatch.setattr(experiment, "_run_task",
                            lambda task: pids.append(os.getpid()) or run_task(task))
        cpus(2)
        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            records = _tiny_suite()
        finally:
            release.set()
            parked.join()
        assert worker_procs == [] and pids == [os.getpid()] * 2
        assert _records(records) == expected

    def test_a_forked_worker_runs_with_one_blas_thread(self, cpus, in_worker):
        if _openblas_threads() is None:
            pytest.skip("the loaded BLAS exports no OpenBLAS thread setter")
        get_threads, _ = _openblas_threads()
        before = get_threads()
        cpus(2)
        in_worker(lambda task: get_threads())
        assert experiment._run_tasks(["a", "b"]) == [1, 1]
        assert get_threads() == before

    def test_lowest_failure_wins_and_queued_tasks_do_not_start(self, tmp_path, cpus,
                                                              worker_procs, in_worker):
        cpus(2)
        in_worker(InWorker.run)
        marker = tmp_path / "started"
        tasks = [InWorker(exit_after, 1.0, 3), InWorker(exit_after, 0.0, 4),
                 InWorker(touch, str(marker))]
        with pytest.raises(RuntimeError, match=re.escape(
                "the worker for exit_after(1.0, 3) exited with code 3 without a result")):
            experiment._run_tasks(tasks)
        assert not marker.exists()
        assert len(worker_procs) == 2 and all(p.exitcode is not None for p in worker_procs)

    def test_a_failure_kills_later_running_tasks(self, cpus, worker_procs, in_worker):
        cpus(2)
        in_worker(InWorker.run)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="exit_after\\(0.5, 3\\) exited with code 3"):
            experiment._run_tasks([InWorker(exit_after, 0.5, 3), InWorker(exit_after, 60.0, 0)])
        assert time.perf_counter() - started < 30.0
        assert sorted(p.exitcode for p in worker_procs) == [-signal.SIGKILL, 3]

    @pytest.mark.parametrize("action, fractions", [("always", (1.0,)), ("default", (0.5, 1.0))])
    def test_worker_warnings_are_issued_as_in_process(self, tmp_path, cpus, action, fractions):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("action0 1 2 3 4 5 6\naction0 1 2 3 4 5 7\n")
        seen = []
        for n in (1, 2):
            cpus(n)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                _tiny_suite(fractions, embedding_path=str(vectors))
            seen.append([(str(w.message), w.filename, w.lineno) for w in caught])
        assert seen[0] == seen[1]
        assert len(seen[0]) == 1 and "duplicate vector for 'action0'" in seen[0][0][0]


# `python -c SLEEPING_SUITE DIR`: a two-task suite on two CPUs whose tasks each write
# their pid to a file in DIR and then sleep
SLEEPING_SUITE = """
import os, sys, time
from harseq import experiment
os.sched_getaffinity = lambda pid: {0, 1}
def sleep(task):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(60)
experiment._run_task = sleep
experiment._run_tasks(["a", "b"])
"""


def _alive(pid, marker):
    """Whether `pid` is a process that has not ended (a zombie has) and whose
    command line holds `marker`, so a reused pid does not count."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return state not in ("Z", "X") and marker.encode() in f.read()
    except (FileNotFoundError, ProcessLookupError):
        return False


class TestWorkersEndWithTheirCaller:
    def test_a_killed_caller_leaves_no_worker(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harseq.__file__)))
        proc = subprocess.Popen([sys.executable, "-c", SLEEPING_SUITE, str(tmp_path)], env=env)
        pids = []
        try:
            deadline = time.monotonic() + 60.0
            while len(pids) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = [int(name) for name in os.listdir(tmp_path)]
            assert len(pids) == 2, "the suite's workers did not start"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 2.0
            while any(_alive(pid, str(tmp_path)) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _alive(pid, str(tmp_path))]
        finally:
            proc.kill()
            proc.wait()
            for pid in pids:
                if _alive(pid, str(tmp_path)):
                    os.kill(pid, signal.SIGKILL)


def _six_class_models(widths=None):
    """A share and a vanilla model over six classes with batch-norm statistics set;
    `widths` are small sizes in place of the defaults."""
    names = [f"action{a} object{o}" for a, o in ((0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5))]
    enc = EncoderConfig(in_channels=4, **({"conv_channels": widths[:2]} if widths else {}))
    sizes = {"hidden_dim": widths[2], "embed_dim": widths[2]} if widths else {}
    rng = np.random.default_rng(3)
    share = ShareModel(build_label_space(names), enc, rng=rng, **sizes)
    vanilla = VanillaModel(6, enc, rng=rng)
    for model in (share, vanilla):
        model.encoder.forward(rng.normal(size=(32, 4, 16)), "train", cache=False)
    return share, vanilla


def _chunks_in_process(model, x, space=None):
    return [(lo, model.class_log_scores(x[lo:lo + EVAL_CHUNK], space))
            for lo in range(0, len(x), EVAL_CHUNK)]


class TestForkedScoring:
    """Chunks scored in forked workers: the in-process bits, errors and output, and
    scoring in process where a worker would not pay or is not allowed."""

    # the fewest chunks that fork, the last one ragged
    WINDOWS = EVAL_CHUNK * (FORKED_SCORING_MIN_CHUNKS - 1) + 100

    @pytest.mark.parametrize("timesteps", [64, 37])
    def test_scores_are_the_in_process_bits_at_one_blas_thread(self, cpus, worker_procs,
                                                                timesteps):
        """A worker scores at one BLAS thread, so its scores are those of this
        process at one thread. At the default count they agree to rounding: where
        OpenBLAS splits a GEMM unevenly over its threads (T=37 encoder blocks of
        110 windows) the last bits can differ."""
        if _openblas_threads() is None:
            pytest.skip("the loaded BLAS exports no OpenBLAS thread setter")
        get_threads, set_threads = _openblas_threads()
        x = np.random.default_rng(timesteps).normal(size=(self.WINDOWS, 4, timesteps))
        cpus(2)
        for model in _six_class_models():
            default = _chunks_in_process(model, x)
            threads = get_threads()
            set_threads(1)
            try:
                expected = _chunks_in_process(model, x)
            finally:
                set_threads(threads)
            got = experiment._score_chunks(model, x)
            assert [lo for lo, _ in got] == [lo for lo, _ in expected]
            assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, expected))
            for (_, a), (_, b) in zip(got, default):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        assert len(worker_procs) == 4 and all(p.exitcode == 0 for p in worker_procs)

    def test_fewer_chunks_are_scored_in_process(self, cpus, worker_procs):
        share, vanilla = _six_class_models((4, 6, 6))
        cpus(2)
        for windows in (160, self.WINDOWS - EVAL_CHUNK):
            x = np.random.default_rng(windows).normal(size=(windows, 4, 12))
            for model in (share, vanilla):
                got = experiment._score_chunks(model, x)
                assert all(a.tobytes() == b.tobytes()
                           for (_, a), (_, b) in zip(got, _chunks_in_process(model, x)))
        assert worker_procs == []

    def test_a_caller_with_another_thread_scores_in_process(self, cpus, worker_procs):
        share, _ = _six_class_models((4, 6, 6))
        x = np.random.default_rng(0).normal(size=(self.WINDOWS, 4, 12))
        cpus(2)
        release = threading.Event()
        parked = threading.Thread(target=release.wait)
        parked.start()
        try:
            got = experiment._score_chunks(share, x)
        finally:
            release.set()
            parked.join()
        assert worker_procs == []
        assert all(a.tobytes() == b.tobytes()
                   for (_, a), (_, b) in zip(got, _chunks_in_process(share, x)))

    def test_a_suite_worker_scores_in_process(self, cpus, worker_procs, in_worker):
        share, _ = _six_class_models((4, 6, 6))
        x = np.random.default_rng(0).normal(size=(self.WINDOWS, 4, 12))
        expected = [a.tobytes() for _, a in _chunks_in_process(share, x)]

        def score(task):  # the workers this worker forks, and whether its scores match
            before = len(worker_procs)
            got = [a.tobytes() for _, a in experiment._score_chunks(share, x)]
            return len(worker_procs) - before, got == expected

        cpus(2)
        in_worker(score)
        assert experiment._run_tasks(["a", "b"]) == [(0, True), (0, True)]
        assert len(worker_procs) == 2

    @pytest.mark.skipif(experiment._blas_thread_setter() is None,
                        reason="without an OpenBLAS thread setter scoring does not fork")
    def test_a_failing_chunk_raises_the_in_process_error(self, cpus, worker_procs):
        share, _ = _six_class_models((4, 6, 6))
        wider = build_label_space([f"action{a} object{o}" for a in range(3) for o in range(9)])
        x = np.random.default_rng(0).normal(size=(self.WINDOWS, 4, 12))
        with pytest.raises(IndexError) as in_process:
            share.class_log_scores(x[:2], wider)
        cpus(2)
        with pytest.raises(IndexError, match=f"^{re.escape(str(in_process.value))}$"):
            predict_classes(share, x, wider)
        assert len(worker_procs) == 2
        for p in worker_procs:  # reaped: no exit status is left to collect
            with pytest.raises(ChildProcessError):
                os.waitpid(p.pid, os.WNOHANG)


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
