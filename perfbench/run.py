"""harseq benchmark: one workload, one process, one operation at a time.

Run from the repository root (harseq is imported from ./src):

    python3 perfbench/run.py --workload eval-100 --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): `fewshot-tail`, `eval-100`, `train-100`.
The run sets the workload up SETUP_REPEATS times, each time after starting a
fresh interpreter that imports harseq, then repeats its operation
until --seconds are used, checks every output, and prints a readable table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones:
    setup_s        median of SETUP_REPEATS times (interpreter start and harseq
                   import in a child process, then the in-process set-up:
                   data, CSV, model save)
    windows_per_s  windows per second of the median operation: training windows
                   stepped (fewshot-tail, both models; train-100, validation
                   included) or windows scored by `harseq eval` (eval-100)
    peak_rss_mb    peak resident set of the process after set-up and the first
                   operation, so that it does not grow with the operation count
With --trace 1 operations alternate untraced and traced; the metrics are the
per-layer ones of tracing.PER_LAYER, for one set-up plus one operation, and
trace.overhead_pct compares the traced with the untraced operations.

The table also prints what the workload reports but does not gate: cell_s,
eval_windows_per_s or train_windows_per_s, the quality metrics, and
error_rate as failed of attempted. A full record with run metadata is written
to perfbench/out/, spans of a traced run as JSON lines beside it. Any failed
check makes the exit code 1.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fewshot-tail", "eval-100", "train-100"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_metadata(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest, lines = hashlib.sha256(), 0
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    data = f.read()
                digest.update(name.encode() + data)
                lines += data.count(b"\n")
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def run_ops(wl, seconds: float, tracer):
    """Repeat the operation until the next one would overrun `seconds`.

    With a tracer, operations alternate untraced and traced, starting
    untraced, and at least one of each runs. Returns (outputs, untraced
    times, traced times, errors of operations that raised, peak resident
    set in MB after the first operation).
    """
    outputs, times, traced_times = [], [], []
    rss_mb = None
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(times) > len(traced_times)
        region = f"op-{len(traced_times)}"
        try:
            with tracer.recording(region) if traced else contextlib.nullcontext():
                started = time.perf_counter()
                result = wl.run()
                elapsed = time.perf_counter() - started
            outputs.append(wl.collect(result))
        except Exception as exc:  # a failed operation is counted, then the run ends
            error = f"operation raised {type(exc).__name__}: {exc}"
            return outputs, times, traced_times, [error], rss_mb
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        (traced_times if traced else times).append(elapsed)
        typical = statistics.median(times + traced_times)
        if (tracer is None or traced_times) and time.perf_counter() + typical > deadline:
            return outputs, times, traced_times, [], rss_mb


def start_and_import_s() -> float:
    """Wall time of a fresh interpreter that imports harseq and exits."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import harseq"], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=SRC))
    return time.perf_counter() - started


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            spans_path=None, tiny: bool = False):
    """Returns (attempted, failed, errors, metrics, reported) for one run.

    metrics maps each name to (value, unit). A traced run writes its spans
    to spans_path when one is given.
    """
    from tracing import RUN_METRICS, PER_LAYER, Tracer, absent_metrics, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir, tiny=tiny)
    tracer = Tracer(workload) if trace else None
    setup_times = []
    try:
        if tracer:
            with tracer.recording("setup"):
                wl.setup()
        for _ in range(0 if tracer else SETUP_REPEATS):
            import_s = start_and_import_s()
            started = time.perf_counter()
            wl.setup()
            setup_times.append(import_s + time.perf_counter() - started)
    except Exception as exc:  # nothing to measure without inputs
        return 1, 1, [f"set-up raised {type(exc).__name__}: {exc}"], {}, {}
    outputs, times, traced_times, errors, peak_rss_mb = run_ops(wl, seconds, tracer)
    attempted = len(outputs) + len(errors)
    try:
        per_output = wl.check(outputs) if outputs else []
        failed = len(errors) + sum(1 for e in per_output if e)
        errors += [e for output_errors in per_output for e in output_errors]
    except Exception as exc:  # a check that cannot run fails every output
        failed = attempted
        errors.append(f"check raised {type(exc).__name__}: {exc}")
    if not times:
        return attempted, failed, errors, {}, {}
    op_s = statistics.median(times)
    reported = {"op_s": op_s, "op_times_s": times, "setup_times_s": setup_times,
                **wl.summary(outputs, op_s)}
    if tracer is None:
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "windows_per_s": (wl.windows() / op_s, "1/s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        return attempted, failed, errors, metrics, reported
    n_ops = len(traced_times)
    values = layer_metrics(tracer.spans, n_ops)
    values["trace.spans"] = sum(1 for s in tracer.spans if s.region != "setup") / n_ops
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_times) / op_s - 1.0)
    units = {**{k: unit for k, (unit, _, _) in PER_LAYER.items()}, **RUN_METRICS}
    metrics = {k: (v, units[k]) for k, v in values.items()}
    reported.update({"traced_op_times_s": traced_times,
                     "absent": absent_metrics(tracer.absent)})
    if spans_path:
        tracer.write(spans_path)
    return attempted, failed, errors, metrics, reported


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "harseq", "__init__.py")):
        print(f"error: {SRC} holds no harseq package; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl")
        attempted, failed, errors, metrics, reported = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            spans_path=spans_path if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not errors and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {**result, "workload": args.workload, "trace": args.trace, "errors": errors,
              "reported": reported, "meta": run_metadata(args.seed)}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    for name, value in reported.items():
        if isinstance(value, float):
            print(f"{name:<42} {value:>14.6g}   (reported, not gated)")
    if reported.get("absent"):
        print(f"absent (read 0): {' '.join(reported['absent'])}")
    print(f"{'error_rate':<42} {failed} of {attempted}")
    print("meta " + json.dumps(record["meta"]))
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
