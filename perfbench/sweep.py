"""Run the benchmark once per seed and summarise each metric's spread.

Usage (from the repository root):
  python3 perfbench/sweep.py [--seeds 0-9] [--workload desk ...] [--trace 1]
      [--out FILE]

For every workload and seed it runs `run.py` exactly as BENCHMARK.json's
command does, one process at a time. For each end-to-end metric it prints the
median of the per-seed values and their spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. With --out it also writes every per-seed
result and these summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    """'0-9' or '0,0,3-4': ranges and single seeds, repeats kept."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workload", nargs="*", choices=list(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    doc = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "trace": args.trace,
           "workloads": {}}
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["machine"] = json.loads(lines[0].split(":", 1)[1])
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            if not result["correct"]:
                print(proc.stderr, end="", flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            summary[metric] = {"median": median, "spread": spread, "bound": bounds[metric],
                               "unit": runs[0]["metrics"][metric]["unit"]}
            bound = bounds[metric]
            flag = "" if bound is None else ("ok" if spread < bound / 3 else
                                             "over bound/3" if spread <= bound else "OVER BOUND")
            print(f"  {name:7s} {metric:28s} median {median:12.6g} spread {spread:7.2%} "
                  f"bound {bound if bound is not None else '-'} {flag}", flush=True)
        doc["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
