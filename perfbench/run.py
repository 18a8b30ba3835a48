"""Period-matrix pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; quadperiod is imported from
`src/`.  Every measurement is a fresh process (perfbench/child.py), so
peak RSS and set-up time belong to one workload run.  The seed fixes the
inputs; see workloads.py.

--trace 0: a set-up-only warm-up process, then workload processes until
S seconds are used (at least MIN_RUNS).  Reports the medians of wall_s,
peak_rss_mb and setup_s over the workload processes.

--trace 1: one traced workload process and untraced ones for the rest of
the S seconds (at least one).  Reports per-layer self times and counts
from the traced process, and trace.overhead_s, its wall time minus the
untraced median.  The tracer's own errors (a function it could not find,
a count that could not be read) are printed as "tracer problem" lines and
do not count as failed runs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")

MIN_RUNS = 3
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """Package from src/, fixed hash seed, BLAS threads capped at nproc."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = env.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= nproc):
            env[var] = str(nproc)
    return env


def spawn(cmd, env):
    """Run one child to completion; its JSON line, or None when it
    crashed, timed out or printed no result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child exited with code {proc.returncode}", file=sys.stderr)
        return None
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.monotonic() - t0
    return out


def repeat(cmd, env, deadline, minimum):
    """Children one after another while the next one, at the median
    duration so far, still ends before the deadline."""
    runs = []
    while len(runs) < minimum or time.monotonic() + statistics.median(
            r["elapsed_s"] for r in runs if r) <= deadline:
        runs.append(spawn(cmd, env))
        if runs[-1] is None and not any(runs):
            break   # nothing ever ran: no duration to plan with
    return runs


def failed(run):
    return run is None or bool(run["failures"])


def report(labelled_runs, metrics):
    """Per-run lines, fail_rate and the metrics, then the JSON line."""
    for label, run in labelled_runs:
        if run is None:
            print(f"{label}: crashed")
            continue
        state = "ok" if not run["failures"] else "FAILED: " + "; ".join(run["failures"])
        print(f"{label}: wall_s={run['wall_s']:.4f} "
              f"peak_rss_mb={run['peak_rss_mb']:.1f} setup_s={run['setup_s']:.4f} {state}")
    n_failed = sum(failed(run) for _, run in labelled_runs)
    n = len(labelled_runs)
    print(f"fail_rate = {n_failed / n:g} ({n_failed} of {n} runs)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": n_failed == 0, "attempted": n,
                      "failed": n_failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quadperiod", "__init__.py")):
        print("perfbench: no quadperiod sources under src/", file=sys.stderr)
        return 2
    doc, params = workloads.make_inputs(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: surface {json.dumps(doc)} "
          f"params {json.dumps(params)}")
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-{args.seed}")
    with open(stem + ".surface.json", "w") as f:
        json.dump(doc, f)
    env = child_env()
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--surface", stem + ".surface.json", "--params", json.dumps(params)]

    # warm-up: fills the bytecode and file caches and proves the package loads
    if spawn(cmd + ["--setup-only"], env) is None:
        print("perfbench: set-up failed", file=sys.stderr)
        return 1
    deadline = time.monotonic() + args.seconds

    if args.trace:
        traced = spawn(cmd + ["--trace", stem + ".spans.json"], env)
        if traced is None:
            print("perfbench: traced run crashed", file=sys.stderr)
            return 1
        untraced = repeat(cmd, env, deadline, 1)
        walls = [r["wall_s"] for r in untraced if r]
        if not walls:
            print("perfbench: every untraced run crashed", file=sys.stderr)
            return 1
        for msg in traced["trace_errors"]:
            print(f"tracer problem: {msg}")
        layers = dict(traced["layers"])
        layers[tracing.OVERHEAD] = traced["wall_s"] - statistics.median(walls)
        metrics = {name: {"value": layers[name], "unit": tracing.unit(name)}
                   for name in tracing.layer_names()}
        report([("traced run", traced)]
               + [(f"untraced run {i}", r) for i, r in enumerate(untraced)], metrics)
        return 0

    runs = repeat(cmd, env, deadline, MIN_RUNS)
    done = [r for r in runs if r]
    if not done:
        print("perfbench: every workload run crashed", file=sys.stderr)
        return 1
    metrics = {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in done), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in done),
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in done), "unit": "s"},
    }
    report([(f"run {i}", r) for i, r in enumerate(runs)], metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
