"""Spans around calls into fedslice's public functions, and the per-layer
metrics computed from them.

`Tracer.install` wraps each function in SPANS and rebinds every name that
refers to it in every loaded fedslice module, so calls through a by-name
import (`fed.forward`, `sim.run_federation`, ...) are timed as well as calls
through the defining module. Spans are kept in memory as
[name, start, end, parent index, attrs] and written out at the end.
Calls are assumed to come from one thread; the benchmark leaves
RAFFM_THREADS unset so client training is serial.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

# span name -> (fedslice module, public function)
SPANS = {
    "config.parse": ("config", "parse_run_config"),
    "sim.run_simulation": ("sim", "run_simulation"),
    "sim.build_profiles": ("sim", "build_profiles"),
    "sim.run_federation": ("fed", "run_federation"),
    "data.generate": ("data", "generate"),
    "data.partition": ("data", "dirichlet_partition"),
    "data.batches": ("data", "batches_from_indices"),
    "nn.init": ("nn", "init_weights"),
    "nn.forward": ("nn", "forward"),
    "nn.loss": ("nn", "softmax_cross_entropy"),
    "nn.backward": ("nn", "backward"),
    "nn.sgd_step": ("nn", "sgd_step"),
    "nn.evaluate": ("nn", "evaluate"),
    "scaling.prioritize": ("scaling", "prioritize_model"),
    "scaling.sample_spec": ("scaling", "sample_submodel_spec"),
    "scaling.param_count": ("scaling", "param_count"),
    "scaling.extract": ("scaling", "extract_submodel"),
    "fed.round": ("fed", "run_round"),
    "fed.select": ("fed", "select_participants"),
    "fed.local_train": ("fed", "local_train"),
    "fed.aggregate": ("fed", "aggregate"),
    "checkpoint.write": ("checkpoint", "write_checkpoint"),
}

MB = 1e6
BYTES_PER_VALUE = 8


def forward_flop(w, batch) -> int:
    """Matrix-product FLOPs (2*m*k*n per product) of one forward pass,
    from the widths the weights actually have."""
    cfg = w.config
    b, seq = batch.tokens.shape
    d = cfg.d_model
    rows = b * seq
    flop = 2 * b * d * cfg.n_classes                        # classifier
    for i in range(cfg.n_layers):
        v_sum = 0
        for h in range(cfg.n_heads):
            qk, v = w.qk_width(i, h), w.v_width(i, h)
            flop += 2 * rows * d * (2 * qk + v)             # q, k, v projections
            flop += 2 * rows * seq * (qk + v)               # q k^T and probs v
            v_sum += v
        flop += 2 * rows * v_sum * d                        # output projection
        flop += 2 * 2 * rows * d * w.ffn_width(i)           # w1 and w2
    return flop


def _forward_attrs(args, kwargs, result):
    w, batch = args[0], args[1]
    return {"samples": len(batch), "flop": forward_flop(w, batch)}


def _extract_attrs(args, kwargs, result):
    return {"bytes": result.param_total() * BYTES_PER_VALUE}


def _aggregate_attrs(args, kwargs, result):
    updates = args[1]
    return {"updates": len(updates),
            "bytes": sum(w.param_total() for _, w in updates) * BYTES_PER_VALUE}


def _checkpoint_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = {"raised": True}
                raise
            finally:
                rec[2] = time.monotonic()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> int:
        """Rebind every fedslice global that names a traced function; returns
        how many bindings were replaced."""
        importlib.import_module("fedslice.cli")  # loads every module
        scaling = sys.modules["fedslice.scaling"]
        min_spec, param_count = scaling.min_spec, scaling.param_count

        def spec_attrs(args, kwargs, spec):
            cfg, budget, ratios = args[:3]
            floor = min_spec(cfg, ratios)
            return {"floor": spec == floor,
                    "above_floor": budget.max_params > param_count(floor, cfg),
                    "use": param_count(spec, cfg) / budget.max_params}

        hooks = {"nn.forward": _forward_attrs, "scaling.sample_spec": spec_attrs,
                 "scaling.extract": _extract_attrs, "fed.aggregate": _aggregate_attrs,
                 "checkpoint.write": _checkpoint_attrs}
        wrappers = {}
        for name, (module, fn_name) in SPANS.items():
            fn = getattr(sys.modules[f"fedslice.{module}"], fn_name)
            wrappers[id(fn)] = self.wrap(name, fn, hooks.get(name))
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fedslice" and not mod_name.startswith("fedslice."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    replaced += 1
        return replaced


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list], walls: list[float]) -> dict[str, float]:
    """Per-layer metrics over the spans of one or more processes (parent
    indices already global) whose whole-run wall times are `walls`."""
    dur = [e - s for _, s, e, _, _ in spans]
    child = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            child[parent] += dur[i]

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def self_time(name):
        return sum(dur[i] - child[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in by_name[name])

    train = [i for i in by_name["nn.forward"]
             if spans[i][3] >= 0 and spans[spans[i][3]][0] == "fed.local_train"]
    train_flop = 3 * sum(spans[i][4]["flop"] for i in train)  # backward: 2 products each
    draws = [spans[i][4] for i in by_name["scaling.sample_spec"]]
    above = [a for a in draws if a["above_floor"]]
    per_round_max = defaultdict(float)
    for i in by_name["fed.local_train"]:
        per_round_max[spans[i][3]] = max(per_round_max[spans[i][3]], dur[i])
    local_train_s = total("fed.local_train")
    top_level = sum(dur[i] for i, rec in enumerate(spans) if rec[3] < 0)

    return {
        "config.parse_s": total("config.parse"),
        "data.generate_s": total("data.generate"),
        "data.partition_s": total("data.partition"),
        "data.batches_s": total("data.batches"),
        "sim.build_profiles_self_s": self_time("sim.build_profiles"),
        "nn.init_s": total("nn.init"),
        "nn.forward_s": total("nn.forward"),
        "nn.forward_calls": calls("nn.forward"),
        "nn.backward_s": total("nn.backward"),
        "nn.backward_calls": calls("nn.backward"),
        "nn.sgd_step_s": total("nn.sgd_step"),
        "nn.loss_s": total("nn.loss"),
        "nn.train_samples": sum(spans[i][4]["samples"] for i in train),
        "nn.train_gflop": train_flop / 1e9,
        "nn.train_gflop_per_s": train_flop / 1e9 / local_train_s if local_train_s else 0.0,
        "nn.evaluate_s": total("nn.evaluate"),
        "nn.evaluate_calls": calls("nn.evaluate"),
        "scaling.prioritize_s": total("scaling.prioritize"),
        "scaling.prioritize_calls": calls("scaling.prioritize"),
        "scaling.sample_spec_s": total("scaling.sample_spec"),
        "scaling.sample_spec_calls": calls("scaling.sample_spec"),
        "scaling.sampler_floor_frac":
            sum(a["floor"] for a in above) / len(above) if above else 0.0,
        "scaling.budget_use": sum(a["use"] for a in draws) / len(draws) if draws else 0.0,
        "scaling.param_count_s": total("scaling.param_count"),
        "scaling.extract_s": total("scaling.extract"),
        "scaling.extract_calls": calls("scaling.extract"),
        "scaling.extract_mb": attr_sum("scaling.extract", "bytes") / MB,
        "fed.select_s": total("fed.select"),
        "fed.round_self_s": self_time("fed.round"),
        "fed.local_train_s": local_train_s,
        "fed.local_train_self_s": self_time("fed.local_train"),
        "fed.local_train_calls": calls("fed.local_train"),
        "fed.client_train_s_p50": _median([dur[i] for i in by_name["fed.local_train"]]),
        "fed.client_train_s_max": _median(list(per_round_max.values())),
        "fed.aggregate_s": total("fed.aggregate"),
        "fed.aggregate_updates": attr_sum("fed.aggregate", "updates"),
        "fed.aggregate_mb": attr_sum("fed.aggregate", "bytes") / MB,
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.mb": attr_sum("checkpoint.write", "bytes") / MB,
        "cli.self_s": sum(walls) - top_level,
    }
