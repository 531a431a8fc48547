"""The benchmark's workloads: each one a generated `fedslice run` config.

A workload is a config template plus a pool of input variants. Variant v
shifts the master, task and partition seeds by v, so variant 0 of `desk`
is exactly the run of acceptance test 7. One benchmark run covers
`per_run` consecutive variants of the pool, chosen by `--seed`; their
reference outputs are recorded in `reference.json`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

_MEDIUM_MODEL = {"n_layers": 4, "d_model": 128, "n_heads": 8, "d_k": 16, "d_v": 16,
                 "d_ff": 256, "vocab_size": 16, "n_classes": 8, "max_seq": 32}

# Seed fields are the base values; variant v adds v to each of them.
_TEMPLATES = {
    # Acceptance test 7's subnetwork run.
    "desk": {
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
    },
    # Two participants per round, about one 16x29 batch each. Every third
    # round evaluates and is about 3x slower, as the first round of a process
    # can be; with that third (plus at most one warm-up round in nine) the
    # median stays on training rounds and p75 on eval rounds. lr is low
    # enough that no variant diverges.
    "medium": {
        "model": _MEDIUM_MODEL,
        "federation": {"n_clients": 20, "participation_rate": 0.1, "rounds": 9,
                       "ratio_set": [0.5, 0.75, 1.0], "master_seed": 7, "eval_every": 3},
        "task": {"kind": "keyed-lookup", "vocab_size": 16, "seq_len": 29,
                 "n_classes": 8, "n_samples": 480, "seed": 11},
        "partition": {"dirichlet_alpha": 100.0, "seed": 13},
        "clients": {"local_epochs": 1, "lr": 0.02, "batch_size": 16,
                    "budget_fractions": [0.65, 0.8, 1.0], "eval_fraction": 0.5},
    },
    # 48 updates per round from near-equal shards of about 6 samples.
    "fanout": {
        "model": _MEDIUM_MODEL,
        "federation": {"n_clients": 96, "participation_rate": 0.5, "rounds": 4,
                       "ratio_set": [0.25, 0.5, 0.75, 1.0], "master_seed": 7,
                       "eval_every": 2},
        "task": {"kind": "keyed-lookup", "vocab_size": 16, "seq_len": 4,
                 "n_classes": 8, "n_samples": 720, "seed": 11},
        "partition": {"dirichlet_alpha": 100.0, "seed": 13},
        "clients": {"local_epochs": 1, "lr": 0.05, "batch_size": 8,
                    "budget_fractions": [0.4, 0.6, 0.8, 1.0], "eval_fraction": 0.2},
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    per_run: int  # variants one benchmark run covers
    pool: int     # variants with a recorded reference
    # Variants on which the program drops a client update (non-finite local
    # loss), as reference.json records; a workload has no failing operation.
    excluded: tuple = ()

    def config(self, variant: int) -> dict:
        doc = copy.deepcopy(_TEMPLATES[self.name])
        doc["federation"]["master_seed"] += variant
        doc["task"]["seed"] += variant
        doc["partition"]["seed"] += variant
        return doc

    def variants(self, seed: int) -> list[int]:
        """The variants a run with this seed covers; seed 0 starts at variant 0."""
        usable = [v for v in range(self.pool) if v not in self.excluded]
        return [usable[(seed * self.per_run + i) % len(usable)] for i in range(self.per_run)]


# per_run is sized so one pass over the variants fits in BENCHMARK.json's
# run_seconds (40) on a 2-core machine; pool holds ten disjoint passes.
WORKLOADS = {w.name: w for w in (Workload("desk", 12, 120, excluded=(54, 72)),
                                 Workload("medium", 6, 60),
                                 Workload("fanout", 3, 30))}
