"""Benchmark for winduq: times training, decomposition and persistence from outside.

Run from the repository root:

    python3 perfbench/run.py --workload sine-train --seed 1 --seconds 25 --trace 0

Each invocation is one fresh process whose BLAS thread variables are all
pinned to one thread. It imports winduq from ``src/`` of the same checkout and
prepares the workload's configs and inputs from ``--seed``. ``setup_s`` is the
median import time of five fresh processes plus the median of five
preparations. A toy warm-up pass follows, outside every timed interval; then
timed passes run until ``--seconds`` would be exceeded (at least two), the
metrics are medians over passes, and every result CSV is checked. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` interleaves untraced and traced passes
(at least two of each, more while ``--seconds`` allows) and reports the
per-layer metrics, writing the spans and a summary under
``perfbench/out/``. ``--size toy`` shrinks every workload for the benchmark's
own tests. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPS = 5
MIN_PASSES = 2  # fewest timed passes of an untraced run
MIN_TRACE_PAIRS = 2  # fewest untraced/traced pass pairs of a traced run
WARMUP_RUN = -1  # tracer run id of the warm-up pass, left out of every metric
# What a run imports before its first preparation: winduq and the workloads.
_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                 "import winduq, workloads; print(time.perf_counter() - t)")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_rows_per_s": ("rows/s", "higher"),
    "decompose_rows_per_s": ("rows/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    return p.parse_args(argv)


def _git(*args: str) -> str | None:
    # The ceiling keeps git from picking up a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                           env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": None if dirty is None else bool(dirty),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def row_problem(path: Path) -> str | None:
    """First broken row of a result CSV, or None when every row passes."""
    with path.open(newline="") as f:
        for i, row in enumerate(csv.DictReader(f)):
            if not all(math.isfinite(float(v)) for v in row.values()):
                return f"row {i}: non-finite value"
            al, ep, tot = (float(row[k]) for k in ("aleatoric", "epistemic", "total"))
            if tot != al + ep:
                return f"row {i}: total {tot!r} != aleatoric + epistemic {al + ep!r}"
            if ep < 0:
                return f"row {i}: epistemic {ep!r} < 0"
            if al <= 0:
                return f"row {i}: aleatoric {al!r} <= 0"
    return None


class Checker:
    """Counts attempted and failed cells; the first checked pass is the digest reference."""

    def __init__(self, check_ood: bool):
        self.check_ood = check_ood
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def check(self, result, label: str) -> None:
        digests = {str(p.name): _sha256(p) for p in result.others}
        digests.update({kind: _sha256(p) for kind, p in result.cells.items()})
        if self.reference is None:
            self.reference = digests
        others_ok = all(digests[p.name] == self.reference.get(p.name) for p in result.others)
        for kind, path in result.cells.items():
            problems = [row_problem(path)]
            if digests[kind] != self.reference.get(kind) or not others_ok:
                problems.append("result CSVs differ from the first pass")
            if self.check_ood and not result.eu_ood_ratio[kind] > 1:
                problems.append(f"eu_ood_ratio {result.eu_ood_ratio[kind]!r} <= 1")
            problems = [p for p in problems if p]
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED cell {label}/{kind}: {'; '.join(problems)}", file=sys.stderr)


def timed_pass(wl, state, out: Path, checker: Checker, label: str) -> float:
    out.mkdir(parents=True)
    t = time.perf_counter()
    result = wl.run_pass(state, out)
    wall = time.perf_counter() - t
    checker.check(result, label)
    shutil.rmtree(out)
    return wall


def _rates(tracer, runs, span: str, amount: str) -> list[float]:
    """Per run (setup repetition or pass) that called ``span``: amount / busy time."""
    from tracing import SpanSummary

    rates = []
    for r in runs:
        busy = SpanSummary(tracer, {r}).total(span)
        if busy > 0:
            rates.append(tracer.amount({r}, amount) / busy)
    return rates


def import_seconds() -> float:
    """Median time a fresh process takes to import what this one imported at start."""
    times = []
    for _ in range(SETUP_REPS):
        r = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                           capture_output=True, text=True, check=True, timeout=120)
        times.append(float(r.stdout))
    print(f"import_s {times}")
    return statistics.median(times)


def warm_up(args, wl, work: Path) -> None:
    """Run a toy pass, so lazy first-call work lands in no timed interval."""
    if args.size == "full":
        warm = work / "warmup"
        wl.run_pass(wl.prepare(args.seed, True, warm), warm / "out")


def run_untraced(args, wl, work: Path, checker: Checker):
    from tracing import E2E_TARGETS, Tracer

    toy = args.size == "toy"
    import_s = import_seconds()
    tracer = Tracer(E2E_TARGETS)
    with tracer.installed():
        setup_times = []
        for rep in range(SETUP_REPS):
            tracer.run = rep
            t = time.perf_counter()
            state = wl.prepare(args.seed, toy, work / "setup")
            setup_times.append(time.perf_counter() - t)
        tracer.run = WARMUP_RUN
        warm_up(args, wl, work)
        walls: list[float] = []
        t_start = time.perf_counter()
        while True:
            tracer.run = SETUP_REPS + len(walls)
            walls.append(timed_pass(wl, state, work / f"pass{len(walls)}", checker,
                                    f"pass{len(walls)}"))
            if (len(walls) >= MIN_PASSES
                    and time.perf_counter() - t_start + statistics.median(walls) > args.seconds):
                break
    runs = range(SETUP_REPS + len(walls))
    train = _rates(tracer, runs, "posterior.fit", "train_rows")
    decompose = _rates(tracer, runs, "uncertainty.decompose_batch",
                       "uncertainty.decompose_batch.rows")
    print(f"setup reps {setup_times}")
    print(f"passes {len(walls)}: wall_s {walls}; train_rows_per_s {train}; "
          f"decompose_rows_per_s {decompose}")
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "train_rows_per_s": statistics.median(train),
        "decompose_rows_per_s": statistics.median(decompose),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], *END_TO_END[name]) for name in END_TO_END}


def run_traced(args, wl, work: Path, env: dict, checker: Checker):
    from tracing import E2E_TARGETS, FULL_TARGETS, LAYER_METRICS, SpanSummary, Tracer, layer_values

    toy = args.size == "toy"
    full = Tracer(FULL_TARGETS)
    with full.installed():
        state = wl.prepare(args.seed, toy, work / "setup")  # run 0: setup
    warm_up(args, wl, work)
    # Untraced and traced passes alternate, so drift hits both alike. The
    # first untraced pass is checked first: it is the digest reference every
    # traced pass must match byte for byte. Pairs run until --seconds would be
    # exceeded, but at least MIN_TRACE_PAIRS, so there are traced passes whose
    # call counts can be compared.
    e2e = Tracer(E2E_TARGETS)
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        run = len(traced) + 1
        with e2e.installed():
            untraced.append(timed_pass(wl, state, work / f"untraced{run}", checker,
                                       f"untraced{run}"))
        full.run = run
        with full.installed():
            traced.append(timed_pass(wl, state, work / f"traced{run}", checker, f"traced{run}"))
        pair = statistics.median(u + t for u, t in zip(untraced, traced))
        if run >= MIN_TRACE_PAIRS and time.perf_counter() - t_start + pair > args.seconds:
            break
    runs = range(1, len(traced) + 1)

    per_pass = [layer_values(full, run, setup_run=0) for run in runs]
    values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    counts = [SpanSummary(full, {run}).counts() for run in runs]
    mismatches = {}
    for name in sorted(set().union(*counts)):
        per_run = [c.get(name, 0) for c in counts]
        if len(set(per_run)) > 1:
            mismatches[name] = per_run
            print(f"calls differ between traced passes: {name} {per_run}")
    print(f"call counts repeat exactly: {not mismatches} ({len(counts[0])} span names)")
    print(f"untraced wall_s {untraced}; traced wall_s {traced}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-toy" if toy else "")
    full.save(OUT / f"spans-{stem}.npz",
              ["setup", *(f"traced pass {run}" for run in runs)])
    metrics = {name: (values[name], unit, better) for name, (unit, better, _, _)
               in LAYER_METRICS.items()}
    record = {
        "env": env,
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "metrics": {
            name: {"value": values[name], "unit": unit, "better": better,
                   "moves": list(moves), "workloads": list(wls)}
            for name, (unit, better, moves, wls) in LAYER_METRICS.items()
        },
        "call_counts_pass1": counts[0],
        "call_count_mismatches": mismatches,
    }
    (OUT / f"trace-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    if not (SRC / "winduq" / "__init__.py").is_file():
        print(f"error: no winduq package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import winduq
    from workloads import WORKLOADS

    if Path(winduq.__file__).resolve().parent != SRC / "winduq":
        print(f"error: imported winduq from {winduq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args)
    print(f"env {json.dumps(env, sort_keys=True)}")
    checker = Checker(check_ood=wl.name == "sine-train" and args.size == "full")
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics = run_traced(args, wl, work, env, checker)
        else:
            metrics = run_untraced(args, wl, work, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit, better) in metrics.items():
        print(f"metric {name} = {value!r} {unit} ({better} is better)")
    print(f"error_rate = {checker.failed}/{checker.attempted} = "
          f"{checker.failed / checker.attempted!r}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
