"""One measured process: set up, run one workload once, check it, print
one JSON line.

    python3 perfbench/child.py --workload NAME --surface DOC --params JSON
                               --t0 MONOTONIC [--setup-only] [--trace SPANS]

`setup_s` runs from --t0 (the parent's monotonic clock just before it
started this process) to having imported quadperiod and read the surface
document.  `wall_s` runs from there to the checked result, and
`peak_rss_mb` is this process's own peak RSS.  With --trace the package
functions are wrapped by the span tracer, the spans are written to SPANS
and the per-layer metrics and the tracer's own errors are added to the
line.  Only the workload run and its checks decide whether a run failed.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--surface", required=True)
    ap.add_argument("--params", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    from quadperiod import cli, formats  # noqa: F401  (import is part of set-up)
    surface = formats.read_surface(args.surface)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracing
    import workloads

    params = json.loads(args.params)
    golden = workloads.load_golden()
    run_id = os.path.basename(args.trace).split(".")[0] if args.trace else None
    tracer = tracing.Tracer(run_id) if args.trace else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        failures = run_and_check(args.workload, surface, params, golden)
        wall_s = time.perf_counter() - start
    line = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
    }
    if tracer:
        tracer.write(args.trace)
        line["layers"] = tracer.layer_metrics()
        line["trace_errors"] = [f"{msg} (x{n})" for msg, n in tracer.errors.items()]
    print(json.dumps(line))
    return 0


def run_and_check(name, surface, params, golden):
    """The failures of one workload run; a raising run is a failed run,
    not a crash."""
    import workloads

    try:
        result = workloads.run(name, surface, params)
        return workloads.check(name, result, golden)
    except Exception as exc:
        traceback.print_exc()
        return [f"raised {type(exc).__name__}: {exc}"]


if __name__ == "__main__":
    sys.exit(main())
