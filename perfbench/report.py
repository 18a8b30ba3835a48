"""Every workload once through run.py, as one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Prints wall_s, peak_rss_mb and setup_s with their units, and fail_rate
(failed runs / attempted runs), for each workload.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    args = ap.parse_args(argv)
    print(f"{'workload':<22} {'wall_s':>10} {'peak_rss_mb':>13} {'setup_s':>9} {'fail_rate':>10}")
    rc = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name:<22} run.py exited with code {proc.returncode}")
            rc = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        m = res["metrics"]
        print(f"{name:<22} {m['wall_s']['value']:>8.3f} s {m['peak_rss_mb']['value']:>10.1f} MB "
              f"{m['setup_s']['value']:>7.3f} s {res['failed'] / res['attempted']:>10g}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
