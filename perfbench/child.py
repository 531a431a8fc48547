"""Run one federation in this fresh process the way `fedslice run` does.

Usage: python3 child.py CONFIG OUT_DIR [--trace]

Calls `fedslice.cli.main(["run", CONFIG, "--out", OUT_DIR])` with only the
round boundary timed, or with every function in `spans.SPANS` traced, and
writes OUT_DIR/timing.json (and OUT_DIR/spans.json when traced) after the
run's own outputs are on disk. Times are time.monotonic() readings, a clock
shared by all processes, so the parent can measure from its launch.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fedslice import checkpoint, cli, fed  # noqa: E402

import spans as spans_mod  # noqa: E402


def checkpoint_matches(path: str, weights) -> bool:
    """The checkpoint holds every returned tensor bit for bit; any other
    tensor it holds is metadata named __*__."""
    stored = checkpoint.read_checkpoint(path)
    if any(not name.startswith("__") for name in stored.keys() - weights.tensors.keys()):
        return False
    return all(name in stored and stored[name].shape == arr.shape
               and stored[name].tobytes() == arr.astype("<f8").tobytes()
               for name, arr in weights.tensors.items())


def main(argv: list[str]) -> int:
    config, out = argv[0], argv[1]
    tracer = spans_mod.Tracer() if "--trace" in argv[2:] else None
    if tracer is not None:
        tracer.install()

    rounds: list[tuple[float, float]] = []
    run_round = fed.run_round

    def timed_round(*args, **kwargs):
        start = time.monotonic()
        result = run_round(*args, **kwargs)
        rounds.append((start, time.monotonic()))
        return result

    returned = []
    run_simulation = cli.run_simulation

    def keep_weights(*args, **kwargs):
        result = run_simulation(*args, **kwargs)
        returned.append(result[0])
        return result

    fed.run_round = timed_round
    cli.run_simulation = keep_weights
    code = cli.main(["run", config, "--out", out])
    done = time.monotonic()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    timing = {"exit_code": code, "rounds": rounds, "done": done,
              "peak_rss_kb": peak_rss_kb,
              "checkpoint_exact": code == 0 and bool(returned) and checkpoint_matches(
                  os.path.join(out, "final_weights.rffm"), returned[0])}
    with open(os.path.join(out, "timing.json"), "w") as f:
        json.dump(timing, f)
    if tracer is not None:
        with open(os.path.join(out, "spans.json"), "w") as f:
            json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
