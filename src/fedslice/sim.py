"""End-to-end simulation harness: dataset -> partition -> profiles -> federation."""

from __future__ import annotations

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .fed import ClientProfile, run_federation
from .nn import Batch
from .scaling import ResourceBudget, full_spec, param_count


def build_profiles(cfg: RunConfig):
    """Generate the task, hold out its last samples as the eval batch (None
    when eval_fraction rounds to none), partition the rest across clients,
    and assign cyclic budget fractions."""
    tokens, labels = data_mod.generate(cfg.task)
    n_eval = int(round(cfg.eval_fraction * cfg.task.n_samples))
    n_train = cfg.task.n_samples - n_eval
    train_tokens, train_labels = tokens[:n_train], labels[:n_train]
    eval_batch = Batch(tokens=tokens[n_train:], labels=labels[n_train:]) if n_eval else None

    shards = data_mod.dirichlet_partition(train_labels, cfg.partition)
    full_params = param_count(full_spec(cfg.model), cfg.model)

    profiles = []
    for cid, shard_idx in enumerate(shards):
        frac = cfg.budget_fractions[cid % len(cfg.budget_fractions)]
        profiles.append(ClientProfile(
            client_id=cid,
            budget=ResourceBudget(max_params=int(frac * full_params)),
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
