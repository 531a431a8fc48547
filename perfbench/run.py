"""End-to-end and per-layer benchmark of `fedslice run`.

Usage (from the repository root):
  python3 perfbench/run.py --workload desk|medium|fanout|all --seed N \
      --seconds S --trace 0|1

Each federation runs in a fresh process (child.py), one at a time, on the
config the workload generates for one of its input variants. The run first
covers every variant the seed selects once, then repeats them while the
next process still fits in S seconds. Every process's outputs are checked
against reference.json. With --trace 0 the end-to-end metrics come from all
processes; with --trace 1 one traced pass over the variants gives the
per-layer metrics, and the untraced repeats give the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans as spans_mod
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")

EXACT_FIELDS = ("rounds", "full_model_params", "mean_client_params", "total_bytes")
LOSS_RTOL = 1e-6       # final_loss may move this much under reordered float sums
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10       # samples a reported tail percentile must have beyond it
RUN_LIMIT_S = 170      # every process of one workload ends within this


@dataclass
class Child:
    variant: int
    traced: bool
    duration: float = 0.0  # launch to exit
    wall: float = 0.0      # launch to outputs on disk
    setup: float = 0.0     # launch to the start of the first round
    rounds: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    summary: dict = field(default_factory=dict)
    dispatched: int = 0
    dropped: int = 0
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RAFFM_THREADS", None)  # serial client training, as users get by default
    return env


def check_outputs(child: Child, out: str, timing: dict, ref: dict) -> None:
    """The output check: deterministic summary fields equal the reference,
    final_loss is within LOSS_RTOL of it, metrics.jsonl has one line per
    round and the checkpoint reads back bit-exactly."""
    with open(os.path.join(out, "summary.json")) as f:
        child.summary = json.load(f)
    for key in EXACT_FIELDS:
        if child.summary.get(key) != ref[key]:
            child.problems.append(f"{key} {child.summary.get(key)!r} != reference {ref[key]!r}")
    loss = child.summary.get("final_loss")
    if loss is None or abs(loss - ref["final_loss"]) > LOSS_RTOL * abs(ref["final_loss"]):
        child.problems.append(f"final_loss {loss!r} not within {LOSS_RTOL} of "
                              f"reference {ref['final_loss']!r}")
    with open(os.path.join(out, "metrics.jsonl")) as f:
        records = [json.loads(line) for line in f]
    if len(records) != ref["rounds"]:
        child.problems.append(f"metrics.jsonl has {len(records)} lines for {ref['rounds']} rounds")
    child.dispatched = sum(len(r["participants"]) for r in records)
    child.dropped = sum(len(r["dropped"]) for r in records)
    if not timing["checkpoint_exact"]:
        child.problems.append("checkpoint does not read back bit-exactly")


def run_child(variant: int, config: str, out: str, traced: bool, ref: dict,
              timeout: float) -> Child:
    child = Child(variant=variant, traced=traced)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [sys.executable, CHILD, config, out] + (["--trace"] if traced else [])
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        child.problems.append(f"timed out after {timeout:.0f} s")
        return child
    child.duration = time.monotonic() - launch
    if proc.returncode != 0:
        child.problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return child
    try:
        with open(os.path.join(out, "timing.json")) as f:
            timing = json.load(f)
        child.wall = timing["done"] - launch
        child.setup = timing["rounds"][0][0] - launch
        child.rounds = [end - start for start, end in timing["rounds"]]
        child.peak_rss_mb = timing["peak_rss_kb"] * 1024 / 1e6
        check_outputs(child, out, timing, ref)
        if traced:
            with open(os.path.join(out, "spans.json")) as f:
                child.spans = json.load(f)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        child.problems.append(f"missing or malformed output: {exc!r}")
    return child


def tail(samples: list[float]) -> tuple[int, float]:
    """The highest ladder percentile with at least TAIL_BEYOND samples
    beyond it (p50 when there are too few samples for any)."""
    n = len(samples)
    p = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= TAIL_BEYOND), 50)
    if n < 2:
        return p, samples[0]
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def end_to_end(children: list[Child], first_pass: list[Child]) -> tuple[dict, dict]:
    rounds = [r for c in children for r in c.rounds]
    p, tail_value = tail(rounds)
    metrics = {
        "wall_s": statistics.median(c.wall for c in children),
        "setup_s": statistics.median(c.setup for c in children),
        "rounds_per_s": len(rounds) / sum(rounds),
        "round_s_p50": statistics.median(rounds),
        "round_s_tail": tail_value,
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "final_loss": statistics.fmean(c.summary["final_loss"] for c in first_pass),
        "final_accuracy": statistics.fmean(c.summary["final_accuracy"] for c in first_pass),
    }
    notes = {"wall_s": f"median of {len(children)} runs",
             "setup_s": f"median of {len(children)} runs",
             "rounds_per_s": f"{len(rounds)} rounds",
             "round_s_p50": f"median of {len(rounds)} rounds",
             "round_s_tail": f"p{p} of {len(rounds)} rounds",
             "peak_rss_mb": f"median of {len(children)} runs",
             "final_loss": f"mean over {len(first_pass)} variants",
             "final_accuracy": f"mean over {len(first_pass)} variants"}
    return metrics, notes


def per_layer(traced: list[Child], untraced: list[Child]) -> dict:
    pooled = []
    for c in traced:
        base = len(pooled)
        pooled += [[n, s, e, p + base if p >= 0 else -1, a] for n, s, e, p, a in c.spans]
    metrics = spans_mod.layer_metrics(pooled, [c.wall for c in traced])
    dispatched = sum(c.dispatched for c in traced)
    metrics["fed.dropped"] = sum(c.dropped for c in traced)
    metrics["fed.client_drop_frac"] = metrics["fed.dropped"] / dispatched
    traced_wall = {c.variant: c.wall for c in traced}
    metrics["trace.overhead_s"] = statistics.median(
        traced_wall[c.variant] - c.wall for c in untraced)
    return metrics


def run_workload(name: str, variants: list[int], seconds: float, trace: bool,
                 reference: dict, work: str) -> dict:
    """Run fresh processes over the variants until `seconds` are used;
    return the metrics, their notes, and the attempted and failed counts."""
    workload = WORKLOADS[name]
    configs = {}
    for v in variants:
        configs[v] = os.path.join(work, f"{name}-{v}.json")
        with open(configs[v], "w") as f:
            json.dump(workload.config(v), f)
    out = os.path.join(work, "out")
    min_runs = len(variants) + (1 if trace else 0)
    start = time.monotonic()
    children: list[Child] = []
    while True:
        i = len(children)
        v = variants[i % len(variants)]
        timeout = RUN_LIMIT_S - (time.monotonic() - start)
        if timeout <= 0:
            break
        child = run_child(v, configs[v], out, trace and i < len(variants),
                          reference[name][v], timeout)
        children.append(child)
        for problem in child.problems:
            print(f"FAILED {name} variant {v}: {problem}", file=sys.stderr)
        if child.duration == 0.0:  # timed out
            break
        typical = statistics.median(c.duration for c in children)
        if len(children) >= min_runs and time.monotonic() - start + typical > seconds:
            break

    failed = sum(1 for c in children if c.problems or c.dropped)
    result = {"attempted": len(children), "failed": failed, "metrics": {}, "notes": {}}
    first_pass = children[:len(variants)]
    if failed or len(children) < min_runs:
        return result
    untraced = [c for c in children if not c.traced]
    result["metrics"], result["notes"] = end_to_end(untraced, first_pass)
    if trace:
        layers = per_layer(first_pass, untraced)
        result["metrics"].update(layers)
        result["notes"].update({k: f"over {len(variants)} traced runs" for k in layers})
    first = first_pass[0].summary
    print(f"{name}: seed variants {variants}, {len(children)} runs, all passed the "
          f"output check; variant {variants[0]}: mean_client_params "
          f"{first['mean_client_params']}, total_bytes {first['total_bytes']}")
    return result


def machine_info() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": threads,
            "RAFFM_THREADS": "unset for the runs" + (
                f" (was {os.environ['RAFFM_THREADS']})" if "RAFFM_THREADS" in os.environ else ""),
            "loadavg_at_start": [round(x, 2) for x in os.getloadavg()]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fedslice", "__init__.py")):
        print(f"error: no fedslice source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)

    print("machine: " + json.dumps(machine_info()), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, WORKLOADS[name].variants(args.seed),
                                         args.seconds, bool(args.trace), reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name, result in results.items():
        for m in listed if result["metrics"] else ():
            key = m["name"] if len(names) == 1 else f"{name}.{m['name']}"
            metrics[key] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            print(f"  {name:7s} {m['name']:28s} {result['metrics'][m['name']]:14.6g} "
                  f"{m['unit']:9s} {result['notes'][m['name']]}")
    failed = sum(r["failed"] for r in results.values())
    complete = all(r["metrics"] for r in results.values())
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
