"""Same-bits check: train from a parent revision's sources and from this tree, compare bytes.

    python3 tools/same_bits.py PARENT_REV

Extracts PARENT_REV's `src/` with `git archive` into a temporary directory.
Each tree then writes the synthetic six-class set with its own `harseq synth`
and runs `harseq train` on it at seed 7 and default sizes: the share model for
4 epochs and the vanilla model for 3, each with and without `--retrain-full`.
The share runs read their seed and epochs from a `--config` file written into
the tree's working directory, and the vanilla runs from flags, so both config
paths are in the net.
Each tree also writes a second synthetic set at T=37 (1800 test windows).
Each tree then reads every run it trained back with `harseq eval --out`,
`harseq predict` and `harseq export-features` on both synthetic test caches.
On both test caches each
tree also writes every run's class log-scores as raw float64 bytes, with a
`python -c` that uses only `load_model`, `load_dataset_cache`,
`NormalizationStats` and `experiment._score_chunks`, normalizing with the
run's manifest statistics and scoring the 256-window chunks as `eval` does,
in forked workers where `eval` forks. Both trees
run in working directories of the same layout, so every path they record is
the same. Last, each tree runs the two protocol suites on the synthetic set
at small widths for 2 epochs: `fewshot --fractions 0.5,1.0 --seeds 0,1` and
`downsample --factors 1,2,32 --seeds 0`, where factor 32 leaves 2 of 64
timesteps and is skipped with a warning.

The check compares, in this order, the synthetic caches, then per run
`checkpoint.nkc` and `manifest.json` byte for byte, `run_record.json` as JSON
less `wall_clock_seconds`, and the read-back outputs byte for byte: eval's
`metrics.json` and `confusion.csv`, predict's stdout, the exported feature
CSV and the score file, each on both test caches. Then per suite it compares
`records.json` as JSON less each record's `wall_clock_seconds`, and
`summary.csv` byte for byte. Eval and predict read only the argmax
of each window's scores, so the features are what shows a last-bit change
in the eval-mode encoder and the score files one in the trie walk or the
baseline head. At T=64 the test cache's 300 windows span several whole
encoder blocks. At T=37 a block is 110 windows, which does not divide the
256-window scoring chunks, so blocks end at ragged offsets, where the conv
GEMM can round a window differently. The T=37 cache's 8 chunks are enough
for `eval`, `predict` and the score files to be scored in forked workers on a
machine with two or more CPUs (`experiment.FORKED_SCORING_MIN_CHUNKS`), so
the T=37 score files show a last-bit change in the workers. It prints one line per compared file
and compares every file. Under each file that differs it says by how much:
per `.nkc` container the max |diff| of each differing tensor, or the side
that alone holds it, per score file and CSV the max |diff| over its numbers,
per JSON file the differing keys (list indices written `[]`) with the max
|diff| of their numbers, and per other text the count of differing lines.
It exits 1 if any file differs or a command fails. Nothing is fetched: the
revision must be in the local repository, and its `src/` must have
`experiment._score_chunks`, which the score files use.
"""

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from harseq.numkernel.checkpoint import load_container  # noqa: E402
SYNTH = ["synth", "--classes", "6", "--shared-actions", "3",
         "--per-class", "200,200,200,200,20,20", "--noise", "0.8", "--seed", "0",
         "--out", "synth"]
# 1800 test windows at T=37: 110-window encoder blocks, which do not divide 256-window
# chunks, and 8 chunks, which `eval` and `predict` score in forked workers
SYNTH_RAGGED = ["synth", "--classes", "6", "--shared-actions", "3",
                "--per-class", "1,1,1,1,1,1", "--test-per-class", "300", "--timesteps", "37",
                "--noise", "0.8", "--seed", "0", "--out", "synth37"]
# the share runs take their settings from config lines, the vanilla runs from flags
SHARE_CONFIG = ("share.cfg", "epochs = 4\nseed = 7\n")
RUNS = [(f"{kind}{'-full' if full else ''}",
         ["train", "--data", "synth/train.nkc", "--model-kind", kind, *settings,
          *(["--retrain-full"] if full else [])])
        for kind, settings in (("share", ["--config", SHARE_CONFIG[0]]),
                               ("vanilla", ["--seed", "7", "--epochs", "3"]))
        for full in (False, True)]
TEST_DATA = "synth/test.nkc"
RAGGED_DATA = "synth37/test.nkc"
# small widths keep the suites fast; at T=64 factor 32 leaves 2 timesteps, so it is skipped
SUITE_FLAGS = ["--train", "synth/train.nkc", "--test", TEST_DATA, "--epochs", "2",
               "--conv-channels", "8,16", "--hidden-dim", "16", "--embed-dim", "8"]
SUITES = [("fewshot", ["fewshot", "--fractions", "0.5,1.0", "--seeds", "0,1", *SUITE_FLAGS]),
          ("downsample", ["downsample", "--factors", "1,2,32", "--seeds", "0", *SUITE_FLAGS])]
# `python -c SCORES RUN DATA OUT`: RUN's class log-scores over the DATA cache as raw
# float64 bytes, scored as `eval` scores them: per 256-window chunk
# (experiment.EVAL_CHUNK), in forked workers where there are enough chunks
SCORES = """
import sys
import numpy as np
from harseq.data import NormalizationStats, load_dataset_cache
from harseq.experiment import _score_chunks
from harseq.model import load_model
run, data, out = sys.argv[1:]
model, manifest = load_model(run)
stats = NormalizationStats(*(np.array(manifest["normalization"][k], dtype=np.float64)
                             for k in ("mean", "std")))
x = stats.apply(load_dataset_cache(data).values)
with open(out, "wb") as f:
    for _, scores in _score_chunks(model, x):
        f.write(scores.tobytes())
"""


def extract_src(rev: str, dest: str) -> str:
    """`rev`'s src/ under dest, through `git archive`; returns that src path."""
    os.makedirs(dest)
    archive = os.path.join(dest, "src.tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                       stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)
    return os.path.join(dest, "src")


def run_python(src: str, workdir: str, args, label: str, stdout_name=None) -> None:
    """Run `python *args` on `src` in `workdir`; stdout goes to `stdout_name` there, if given."""
    started = time.perf_counter()
    with (open(os.path.join(workdir, stdout_name), "wb") if stdout_name
          else contextlib.nullcontext(subprocess.DEVNULL)) as stdout:
        subprocess.run([sys.executable, *args], cwd=workdir, check=True,
                       env=dict(os.environ, PYTHONPATH=src), stdout=stdout)
    print(f"  {os.path.basename(workdir)}: {label} ({time.perf_counter() - started:.1f} s)")


def harseq(src: str, workdir: str, argv, stdout_name=None) -> None:
    """Run the CLI of `src` in `workdir`."""
    run_python(src, workdir, ["-m", "harseq.cli", *argv], f"harseq {' '.join(argv)}",
               stdout_name)


def without_wall_clock(path: str) -> dict:
    """A run record, or a suite's `records.json`, less every `wall_clock_seconds`."""
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    for record in payload.get("records", [payload]):
        record.pop("wall_clock_seconds", None)
    return payload


def differing_leaves(a, b, path="", found=None) -> dict:
    """{key path: [|diff| of each differing pair of numbers, None for any other pair]}
    over the differing leaves of two JSON values; list indices are written `[]`."""
    found = {} if found is None else found
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            differing_leaves(a.get(key), b.get(key), f"{path}.{key}" if path else key, found)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            differing_leaves(x, y, f"{path}[]", found)
    elif a != b:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        found.setdefault(path, []).append(abs(a - b) if numbers else None)
    return found


def json_report(a, b) -> list:
    return [path + ("" if None in gaps else f": max |diff| {max(gaps):.3g}")
            for path, gaps in differing_leaves(a, b).items()]


def array_report(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shapes {a.shape} and {b.shape}"
    return f"max |diff| {np.abs(a - b).max(initial=0.0):.3g}"


def read_lines(path: str) -> list:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def difference(a: str, b: str, relpath: str) -> list:
    """Lines that say how much the file at `b` (the change's) differs from the one
    at `a` (the parent's)."""
    if relpath.endswith(".nkc"):
        (ta, ma), (tb, mb) = load_container(a), load_container(b)
        lines = []
        for name in sorted(ta.keys() | tb.keys()):
            if name not in ta or name not in tb:
                lines.append(f"{name}: only in the {'change' if name in tb else 'parent'}")
            elif not np.array_equal(ta[name], tb[name]):
                lines.append(f"{name}: {array_report(ta[name], tb[name])}")
        return lines + [f"metadata {line}" for line in json_report(ma, mb)]
    if relpath.endswith(".f64"):
        return [array_report(np.fromfile(a, dtype="<f8"), np.fromfile(b, dtype="<f8"))]
    if relpath.endswith(("run_record.json", "records.json")):
        return json_report(without_wall_clock(a), without_wall_clock(b))
    la, lb = read_lines(a), read_lines(b)
    if relpath.endswith(".json"):
        return json_report(json.loads("\n".join(la)), json.loads("\n".join(lb)))
    if relpath.endswith(".csv"):
        ca, cb = ([line.split(",") for line in lines] for lines in (la, lb))
        if [len(row) for row in ca] != [len(row) for row in cb]:
            return [f"{len(ca)} and {len(cb)} rows, or rows of different widths"]
        pairs = [(x, y) for ra, rb in zip(ca, cb) for x, y in zip(ra, rb) if x != y]
        try:
            gap = max((abs(float(x) - float(y)) for x, y in pairs), default=0.0)
        except ValueError:
            return [f"{len(pairs)} cells differ, not all of them numbers"]
        return [f"{len(pairs)} cells differ, max |diff| {gap:.3g}"]
    differing = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    return [f"{differing} of {max(len(la), len(lb))} lines differ"]


def same(parent_dir: str, change_dir: str, relpath: str) -> bool:
    a, b = (os.path.join(d, relpath) for d in (parent_dir, change_dir))
    if relpath.endswith(("run_record.json", "records.json")):
        equal = without_wall_clock(a) == without_wall_clock(b)
    else:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            equal = fa.read() == fb.read()
    print(f"  {'same' if equal else 'DIFFERS'}: {relpath}")
    if not equal:
        for line in difference(a, b, relpath):
            print(f"      {line}")
    return equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="git revision whose src/ is the reference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        trees = {"parent": extract_src(args.parent_rev, os.path.join(tmp, "parent")),
                 "change": os.path.join(ROOT, "src")}
        dirs = {name: os.path.join(tmp, f"{name}-runs") for name in trees}
        try:
            for name, src in trees.items():
                os.makedirs(dirs[name])
                with open(os.path.join(dirs[name], SHARE_CONFIG[0]), "w", encoding="utf-8") as f:
                    f.write(SHARE_CONFIG[1])
                harseq(src, dirs[name], SYNTH)
                harseq(src, dirs[name], SYNTH_RAGGED)
                for out, argv in RUNS:
                    harseq(src, dirs[name], [*argv, "--out", out])
                    for data, suffix in ((TEST_DATA, ""), (RAGGED_DATA, "-t37")):
                        harseq(src, dirs[name], ["eval", "--model", out, "--data", data,
                                                 "--out", f"{out}-eval{suffix}"])
                        harseq(src, dirs[name], ["predict", "--model", out, "--data", data],
                               stdout_name=f"{out}-predict{suffix}.txt")
                        harseq(src, dirs[name], ["export-features", "--model", out,
                                                 "--data", data,
                                                 "--out", f"{out}-features{suffix}.csv"])
                        run_python(src, dirs[name],
                                   ["-c", SCORES, out, data, f"{out}-scores{suffix}.f64"],
                                   f"class log-scores of {out} on {data}")
                for out, argv in SUITES:
                    harseq(src, dirs[name], [*argv, "--out", out])
        except subprocess.CalledProcessError as exc:
            print(f"same-bits: command failed: {' '.join(map(str, exc.cmd))}", file=sys.stderr)
            return 1
        compared = ["synth/train.nkc", "synth/test.nkc"] + [
            path for out, _ in RUNS
            for path in (f"{out}/checkpoint.nkc", f"{out}/manifest.json", f"{out}/run_record.json",
                         *(f"{out}{read_back}" for suffix in ("", "-t37") for read_back in (
                             f"-eval{suffix}/metrics.json", f"-eval{suffix}/confusion.csv",
                             f"-predict{suffix}.txt", f"-features{suffix}.csv",
                             f"-scores{suffix}.f64")))] + [
            path for out, _ in SUITES for path in (f"{out}/records.json", f"{out}/summary.csv")]
        differing = [relpath for relpath in compared
                     if not same(dirs["parent"], dirs["change"], relpath)]
    if differing:
        print(f"same-bits: {len(differing)} of {len(compared)} files differ from "
              f"{args.parent_rev}: {', '.join(differing)}", file=sys.stderr)
        return 1
    print(f"same-bits: {len(compared)} files match {args.parent_rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
