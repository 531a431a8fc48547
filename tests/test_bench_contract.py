"""The benchmark's hooks still bind: perfbench/child.py runs a traced
federation, reads its checkpoint back bit for bit, and sees a span for every
function its tracer wraps by name."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from test_cli import run_config_doc, write_config

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_child_run_covers_every_span(tmp_path):
    config = write_config(tmp_path, run_config_doc())
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), config, str(out),
                           "--trace"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "timing.json").read_text())["checkpoint_exact"] is True
    traced = {span[0] for span in json.loads((out / "spans.json").read_text())}
    assert set(load_spans().SPANS) <= traced
