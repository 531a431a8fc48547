"""Golden outputs: short `fedslice run`s reproduce tests/golden.json bit for bit.

Each run is a variant of a benchmark workload (perfbench/workloads.py), run
in-process through `cli.main`: variant 0 of desk as it is, of medium cut to
two rounds and of fanout to one, each still evaluating once, and desk
variant 72 cut to 14 rounds, whose rounds 11, 12 and 13 drop 1, 2 and 4 of
their 4 participants, so it exits 2. The test pins each run's exit code, its
`summary.json` fields, the SHA-256 of its `final_weights.rffm` and its
`metrics.jsonl` records less `wall_time`.

Exact values hold for the numpy and BLAS build that the golden file records;
on any other build the test fails and names both builds. Only a change meant
to alter numerics re-records the file, on the evidence perfbench/README.md
asks of such a change, with

    PYTHONPATH=src python tests/test_golden.py --record

which rewrites tests/golden.json with the current build's outputs.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from fedslice import cli
from test_bench_contract import load_perfbench

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
RECORD = "PYTHONPATH=src python tests/test_golden.py --record"
# per run: its workload, its variant and the federation keys that cut it short
RUNS = {"desk": ("desk", 0, {}),
        "medium": ("medium", 0, {"rounds": 2, "eval_every": 2}),
        "fanout": ("fanout", 0, {"rounds": 1, "eval_every": 1}),
        "desk72": ("desk", 72, {"rounds": 14})}


def _numerics_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return f"numpy {np.__version__} and BLAS {blas}"


def outputs(name: str, tmp: pathlib.Path) -> dict:
    workload, variant, cuts = RUNS[name]
    doc = load_perfbench("workloads").WORKLOADS[workload].config(variant)
    doc["federation"].update(cuts)
    config, out = tmp / f"{name}.json", tmp / name
    config.write_text(json.dumps(doc))
    code = cli.main(["run", str(config), "--out", str(out)])
    # one line of JSON per round, as metrics.jsonl holds them, less wall_time
    metrics = [json.dumps({k: v for k, v in json.loads(line).items() if k != "wall_time"},
                          sort_keys=True)
               for line in (out / "metrics.jsonl").read_text().splitlines()]
    return {"exit_code": code,
            "summary": json.loads((out / "summary.json").read_text()),
            "weights_sha256":
                hashlib.sha256((out / "final_weights.rffm").read_bytes()).hexdigest(),
            "metrics": metrics}


@pytest.mark.parametrize("name", RUNS)
def test_short_run_matches_the_golden_file(tmp_path, name):
    golden = json.loads(GOLDEN.read_text())
    assert golden["build"] == _numerics_build(), (
        f"tests/golden.json was recorded with {golden['build']}, and this is "
        f"{_numerics_build()}. Exact outputs hold for one build: re-record the "
        f"file on this one ({RECORD}) and check the diff before trusting it.")
    got, want = outputs(name, tmp_path), golden["runs"][name]
    for key in want:
        assert got[key] == want[key], (
            f"{name}: {key} differs from tests/golden.json. Only a change meant to "
            f"alter numerics re-records it ({RECORD}).")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {RECORD}")
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: outputs(name, pathlib.Path(tmp)) for name in RUNS}
    GOLDEN.write_text(json.dumps({"build": _numerics_build(), "runs": runs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"recorded {', '.join(RUNS)} with {_numerics_build()} in {GOLDEN}")
