"""Write perfbench/golden.json: pi and the four period-matrix blocks of
every level of the seed-independent workloads.

    PYTHONPATH=src python3 perfbench/capture_golden.py

Run it only at a commit whose period matrices are trusted; every later
run is compared against these values at 1e-12 relative.
"""

import json
import sys

import workloads
from quadperiod import load_surface

GOLDEN = ("lshape-uniform-128", "lshape-adapted-sweep")


def main():
    golden = {}
    for name in GOLDEN:
        doc, params = workloads.make_inputs(name, 0)
        result = workloads.run(name, load_surface(doc), params)
        golden[name] = [workloads.matrices_doc(pm) for pm in result["levels"]]
        print(f"{name}: {len(golden[name])} levels")
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
