"""Self-tests of the benchmark itself (about a minute).

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import run
import spans
from workloads import WORKLOADS

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from fedslice.config import parse_run_config  # noqa: E402
from fedslice.sim import run_simulation  # noqa: E402

# tests/test_acceptance.py::_desk_config([0.5, 0.75, 1.0], [0.65, 0.8, 1.0], True)
ACCEPTANCE_7 = {
    "model": {"n_layers": 2, "d_model": 16, "n_heads": 2, "d_k": 4, "d_v": 4,
              "d_ff": 32, "vocab_size": 4, "n_classes": 4, "max_seq": 12},
    "federation": {"n_clients": 20, "participation_rate": 0.2, "rounds": 30,
                   "ratio_set": [0.5, 0.75, 1.0], "master_seed": 7, "eval_every": 5},
    "task": {"kind": "majority-token", "vocab_size": 4, "seq_len": 9,
             "n_classes": 4, "n_samples": 2000, "seed": 11},
    "partition": {"dirichlet_alpha": 1.0, "seed": 13},
    "spp": {"permute_qk": True, "permute_vo": True, "permute_ffn": True},
    "clients": {"local_epochs": 1, "lr": 0.3, "batch_size": 16,
                "budget_fractions": [0.65, 0.8, 1.0], "eval_fraction": 0.2},
}

# One full-width client, 8 training samples of length 3 in two batches of 4.
TINY = {
    "model": {"n_layers": 1, "d_model": 4, "n_heads": 1, "d_k": 2, "d_v": 2,
              "d_ff": 8, "vocab_size": 4, "n_classes": 2, "max_seq": 4},
    "federation": {"n_clients": 1, "participation_rate": 1.0, "rounds": 1,
                   "ratio_set": [1.0], "master_seed": 1, "eval_every": 1},
    "task": {"kind": "majority-token", "vocab_size": 4, "seq_len": 3,
             "n_classes": 2, "n_samples": 10, "seed": 1},
    "partition": {"dirichlet_alpha": 1.0, "seed": 1},
    "clients": {"local_epochs": 1, "lr": 0.1, "batch_size": 4,
                "budget_fractions": [1.0], "eval_fraction": 0.2},
}

# Counts and computed sizes that must repeat exactly at one seed.
DETERMINISTIC = (
    "final_loss", "final_accuracy", "fed.client_drop_frac", "fed.dropped",
    "nn.train_gflop", "nn.train_samples", "nn.forward_calls", "nn.backward_calls",
    "nn.evaluate_calls", "scaling.prioritize_calls", "scaling.sample_spec_calls",
    "scaling.sampler_floor_frac", "scaling.budget_use", "scaling.extract_calls",
    "scaling.extract_mb", "fed.local_train_calls", "fed.aggregate_updates",
    "fed.aggregate_mb", "checkpoint.mb")


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(run.WORK_DIR, f"selftest-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def traced_run(self, doc: dict):
        config = os.path.join(self.work, "config.json")
        out = os.path.join(self.work, "out")
        with open(config, "w") as f:
            json.dump(doc, f)
        os.makedirs(out)
        subprocess.run([sys.executable, run.CHILD, config, out, "--trace"], check=True,
                       capture_output=True, env=run.child_env())
        with open(os.path.join(out, "spans.json")) as f:
            recorded = json.load(f)
        with open(os.path.join(out, "timing.json")) as f:
            timing = json.load(f)
        return recorded, timing

    def test_every_span_records_a_call_on_desk(self):
        recorded, timing = self.traced_run(WORKLOADS["desk"].config(0))
        names = {rec[0] for rec in recorded}
        self.assertEqual(sorted(set(spans.SPANS) - names), [])
        self.assertTrue(timing["checkpoint_exact"])

    def test_train_gflop_matches_hand_count(self):
        recorded, _ = self.traced_run(TINY)
        metrics = spans.layer_metrics(recorded, [0.0])
        # Per sample (seq 3, d 4, d_k = d_v 2, d_ff 8, 2 classes), 2*m*k*n per product:
        # q,k,v 2*3*4*6=144, scores 2*3*3*2=36, probs@v 36, wo 2*3*2*4=48,
        # w1 and w2 2*(2*3*4*8)=384, classifier 2*4*2=16: 664 forward,
        # 3*664 = 1992 with backward, 8 samples: 15936.
        self.assertEqual(metrics["nn.train_samples"], 8)
        self.assertEqual(round(metrics["nn.train_gflop"] * 1e9), 15936)

    def test_deterministic_metrics_repeat_exactly(self):
        with open(os.path.join(run.HERE, "reference.json")) as f:
            reference = json.load(f)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            listed = json.load(f)
        a, b = (run.run_workload("desk", [0, 1], 0, True, reference, self.work)
                for _ in range(2))
        self.assertEqual((a["failed"], b["failed"]), (0, 0))
        for m in listed["end_to_end"] + listed["per_layer"]:
            self.assertIn(m["name"], a["metrics"])
        for name in DETERMINISTIC:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_desk_variant_0_is_acceptance_test_7(self):
        self.assertEqual(WORKLOADS["desk"].config(0), ACCEPTANCE_7)
        self.assertEqual(WORKLOADS["desk"].variants(0)[0], 0)
        with open(os.path.join(run.HERE, "reference.json")) as f:
            recorded = json.load(f)["desk"][0]
        _, _, summary = run_simulation(parse_run_config(json.dumps(ACCEPTANCE_7)))
        for key in run.EXACT_FIELDS + ("final_loss",):
            self.assertEqual(recorded[key], summary[key], key)

    def test_excluded_variants_are_the_ones_that_drop_updates(self):
        with open(os.path.join(run.HERE, "reference.json")) as f:
            reference = json.load(f)
        for name, workload in WORKLOADS.items():
            self.assertEqual(len(reference[name]), workload.pool, name)
            dropping = tuple(v for v, row in enumerate(reference[name]) if row["dropped"])
            self.assertEqual(dropping, workload.excluded, name)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(self.work, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
