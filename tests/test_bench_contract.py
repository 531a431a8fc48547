"""The benchmark still runs: every variant of its workloads is a valid
config, and its hooks still bind: perfbench/child.py runs a traced
federation, reads its checkpoint back bit for bit, sees a span for every
function its tracer wraps by name, and counts every fused update."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from fedslice.config import parse_run_config
from test_cli import run_config_doc, write_config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["desk", "medium", "fanout"])
def test_every_workload_variant_is_a_valid_config(name):
    workload = load_perfbench("workloads").WORKLOADS[name]
    for variant in range(workload.pool):
        parse_run_config(json.dumps(workload.config(variant)))


def test_traced_child_run_covers_every_span(tmp_path):
    config = write_config(tmp_path, run_config_doc())
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), config, str(out),
                           "--trace"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "timing.json").read_text())["checkpoint_exact"] is True
    spans = json.loads((out / "spans.json").read_text())
    assert set(load_perfbench("spans").SPANS) <= {span[0] for span in spans}
    # fed.aggregate_updates counts every update fused, one aggregate call each
    rounds = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    folded = sum(len(r["participants"]) - len(r["dropped"]) for r in rounds)
    aggregates = [span[4] for span in spans if span[0] == "fed.aggregate"]
    assert folded > 0 and sum(attrs["updates"] for attrs in aggregates) == folded
