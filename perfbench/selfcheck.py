"""Fast self-check of the benchmark at tiny shapes.

    python3 perfbench/selfcheck.py

Runs every workload at tiny shapes, untraced and traced, and confirms that
the metric names and units match BENCHMARK.json, that every output check
passes on correct outputs and fires on a wrong prediction vector, a NaN
loss, a failed exit code and repeats that disagree, that the tracer reports
a missing target as absent and wraps functions imported by name, and that
the runner refuses to run without the harseq sources. Exits 1 on any miss.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_workloads(spec: dict, workdir: str) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            os.makedirs(workdir, exist_ok=True)
            attempted, failed, errors, metrics, _ = run.measure(
                w["name"], 0, 0.0, trace, workdir, tiny=True)
            shutil.rmtree(workdir)
            label = f"{w['name']} trace {int(trace)}"
            expect(attempted >= 1 and failed == 0 and not errors, f"{label}: checks pass {errors}")
            got = {k: u for k, (_, u) in metrics.items()}
            expect(got == wanted, f"{label}: emits exactly the BENCHMARK.json metrics")
            expect(all(math.isfinite(v) for v, _ in metrics.values()),
                   f"{label}: every value is finite")
            if not trace:
                expect(all(v > 0 for v, _ in metrics.values()), f"{label}: no metric is 0")


def check_output_checks(workdir: str) -> None:
    import harseq.model
    from checks import check_eval, check_record, confusion, oracle_predictions
    from workloads import EvalHundred, FewshotTail, TrainHundred

    os.makedirs(workdir, exist_ok=True)
    wl = EvalHundred(0, workdir, tiny=True)
    wl.setup()
    output = wl.collect(wl.run())
    model, _ = harseq.model.load_model(wl.run_dir)
    preds = oracle_predictions(model, model.space, wl.x)
    expected = confusion(wl.y, preds, wl.num_classes)
    expect(wl.check([output]) == [[]], "eval: program agrees with the oracle")
    wrong = confusion(wl.y, (preds + 1) % wl.num_classes, wl.num_classes)
    expect(bool(check_eval(0, {"confusion": wrong}, expected)),
           "eval: a wrong prediction vector is caught")
    expect(bool(check_eval(2, output[1], expected)), "eval: a non-zero exit code is caught")
    shutil.rmtree(workdir)

    wl = TrainHundred(0, workdir, tiny=True)
    wl.setup()
    record = wl.collect(wl.run())
    expect(check_record(record, len(wl.test)) == [], "train: a correct record passes")
    bad = dataclasses.replace(record.epochs[0], train_loss=float("nan"))
    nan_record = dataclasses.replace(record, epochs=[bad] + record.epochs[1:])
    expect(bool(check_record(nan_record, len(wl.test))), "train: a NaN loss is caught")
    expect(bool(check_record(record, len(wl.test) + 1)), "train: a short final test is caught")

    wl = FewshotTail(0, workdir, tiny=True)
    wl.setup()
    records = wl.collect(wl.run())
    other = [dataclasses.replace(r) for r in records]
    share = next(r for r in other if r.model_kind == "share")
    share.final_test = dataclasses.replace(share.final_test,
                                           macro_f1=share.final_test.macro_f1 + 0.5)
    errors = wl.check([records, other])
    expect(errors[0] == [] and bool(errors[1]), "fewshot: repeats that disagree are caught")


def check_tracer() -> None:
    import harseq.experiment
    import harseq.model
    from tracing import TARGETS, Span, Tracer, self_times

    tracer = Tracer("selfcheck", TARGETS + (("harseq.model", "no_such_function",
                                             "model.gone", None),))
    original = harseq.model.constrained_decode
    with tracer.recording("op-0"):
        wrapped = harseq.experiment.constrained_decode
        expect(wrapped is not original and harseq.model.constrained_decode is wrapped,
               "tracer: a function imported by name is wrapped in every module")
    expect(harseq.experiment.constrained_decode is original, "tracer: uninstall restores")
    expect(tracer.absent == ["model.gone"], "tracer: a missing target is reported absent")

    spans = [Span(0, None, "a", 0.0, "op-0"), Span(1, 0, "b", 1.0, "op-0"),
             Span(2, 1, "c", 1.5, "op-0")]
    for span, end in zip(spans, (10.0, 4.0, 2.0)):
        span.end = end
    expect(self_times(spans) == [7.0, 2.5, 0.5], "tracer: self time excludes direct children")


def check_refuses_without_sources(scratch: str) -> None:
    shutil.copytree(run.HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval-100",
                           "--seed", "0", "--seconds", "1"], cwd=scratch,
                          capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "runner: exits non-zero with no result when src/ is missing")


def main() -> int:
    if not os.path.isdir(os.path.join(run.SRC, "harseq")):
        print(f"error: {run.SRC} holds no harseq package", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(run.OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT)
    try:
        check_workloads(spec, os.path.join(scratch, "work"))
        check_output_checks(os.path.join(scratch, "work"))
        check_tracer()
        check_refuses_without_sources(os.path.join(scratch, "bare"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} self-check failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
