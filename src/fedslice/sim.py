"""End-to-end simulation harness: dataset -> partition -> profiles -> federation."""

from __future__ import annotations

import math

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .errors import ConfigError
from .fed import ClientProfile, run_federation
from .nn import Batch
from .scaling import ResourceBudget, fraction_of, full_spec, min_spec, param_count


def build_profiles(cfg: RunConfig):
    """Refuse a budget below the ratio set's floor spec before any data is
    generated. Then generate the task, hold out its last eval_fraction as
    the eval batch (None when none), partition the rest across clients and
    give them the budgets cyclically; `fraction_of` takes every count."""
    full_params = param_count(full_spec(cfg.model), cfg.model)
    floor = param_count(min_spec(cfg.model, cfg.federation.ratio_set), cfg.model)
    budgets = [fraction_of(f, full_params, math.floor) for f in cfg.budget_fractions]
    budget, frac = min(zip(budgets, cfg.budget_fractions))
    if budget < floor:
        raise ConfigError(f"budget {budget} (fraction {frac}) below minimum spec size {floor}")
    tokens, labels = data_mod.generate(cfg.task)
    n_eval = fraction_of(cfg.eval_fraction, cfg.task.n_samples, round)
    n_train = cfg.task.n_samples - n_eval
    train_tokens, train_labels = tokens[:n_train], labels[:n_train]
    eval_batch = Batch(tokens=tokens[n_train:], labels=labels[n_train:]) if n_eval else None

    shards = data_mod.dirichlet_partition(train_labels, cfg.partition)
    profiles = []
    for cid, shard_idx in enumerate(shards):
        profiles.append(ClientProfile(
            client_id=cid,
            budget=ResourceBudget(max_params=budgets[cid % len(budgets)]),
            shard=data_mod.batches_from_indices(train_tokens, train_labels,
                                                shard_idx, cfg.batch_size),
            local_epochs=cfg.local_epochs,
            lr=cfg.lr,
        ))
    return profiles, eval_batch, full_params


def run_simulation(cfg: RunConfig):
    """Run the whole federation and produce a machine-readable summary."""
    profiles, eval_batch, full_params = build_profiles(cfg)
    final_weights, log = run_federation(cfg.federation, cfg.model, profiles,
                                        eval_batch=eval_batch)

    client_params = [cs["param_count"] for r in log for cs in r.client_specs]
    evaluated = [r for r in log if r.accuracy is not None]
    summary = {
        "rounds": len(log),
        "master_seed": cfg.federation.master_seed,
        "full_model_params": full_params,
        "mean_client_params": float(np.mean(client_params)) if client_params else None,
        "final_accuracy": evaluated[-1].accuracy if evaluated else None,
        "final_loss": evaluated[-1].loss if evaluated else None,
        "total_bytes": sum(r.bytes_down + r.bytes_up for r in log),
    }
    return final_weights, log, summary
