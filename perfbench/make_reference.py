"""Record the reference outputs of every workload variant.

Usage: python3 perfbench/make_reference.py [--workload NAME ...]

Runs each variant in the pool in this process through parse_run_config and
run_simulation, as `fedslice run` does, and writes the summary fields the
output check compares, and the number of dropped client updates, into
perfbench/reference.json. Regenerate only for a
change that is meant to alter what a run computes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import EXACT_FIELDS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fedslice.config import parse_run_config  # noqa: E402
from fedslice.sim import run_simulation  # noqa: E402

FIELDS = EXACT_FIELDS + ("final_loss", "final_accuracy")
PATH = os.path.join(HERE, "reference.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args()
    for name in args.workload:
        workload = WORKLOADS[name]
        rows = []
        for v in range(workload.pool):
            _, log, summary = run_simulation(parse_run_config(json.dumps(workload.config(v))))
            rows.append({k: summary[k] for k in FIELDS})
            rows[-1]["dropped"] = sum(len(r.dropped) for r in log)
            print(f"{name} variant {v}: {rows[-1]}", flush=True)
        reference = {}
        if os.path.exists(PATH):
            with open(PATH) as f:
                reference = json.load(f)
        reference[name] = rows
        with open(PATH, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
