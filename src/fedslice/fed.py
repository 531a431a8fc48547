"""Federated orchestration: selection, dispatch, local SGD, coverage-average fusion.

One round = prioritize the global weights, sample a budget-compliant spec
per participant, slice out sub-models, train them locally, then fuse: every
global coordinate becomes the mean over the clients whose spec covers it,
and uncovered coordinates carry over unchanged. With full-width specs this
reduces exactly to FedAvg.

Participants are handled one at a time: each one's sub-model is extracted
just before it trains, so a round holds one untrained sub-model at a time.
All randomness flows through named Philox streams derived from the master
seed, one per stage, round and client, so the order of the work does not
change any draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AggregationError, ConfigError, NumericError, ValidationError
from .nn import (Batch, ModelConfig, ModelWeights, backward, evaluate, forward,
                 init_weights, sgd_step, softmax_cross_entropy)
from .scaling import (ResourceBudget, SubmodelSpec, extract_submodel, min_spec,
                      param_count, prioritize_model, sample_submodel_spec, slice_plan)
from .tensor import RngStream

BYTES_PER_PARAM = 8

# stream-id allocation: one namespace per randomized stage
STREAM_SELECT = 1 << 32
STREAM_SPEC = 2 << 32
STREAM_INIT_SEED = 0


@dataclass
class ClientProfile:
    client_id: int
    budget: ResourceBudget
    shard: list  # list of Batch
    local_epochs: int
    lr: float

    def __post_init__(self):
        if not self.shard:
            raise ValidationError(f"client {self.client_id} has an empty shard")
        if self.lr < 0:
            raise ValidationError(f"client {self.client_id} lr must be >= 0")


@dataclass
class FederationConfig:
    n_clients: int
    participation_rate: float
    rounds: int
    ratio_set: tuple
    master_seed: int
    eval_every: int = 1
    permute_qk: bool = True
    permute_vo: bool = True
    permute_ffn: bool = True

    def __post_init__(self):
        if not 0 < self.participation_rate <= 1:
            raise ConfigError("participation_rate must be in (0, 1]")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if not self.ratio_set or not all(0 < r <= 1 for r in self.ratio_set):
            raise ConfigError(f"ratio_set must be non-empty, in (0, 1]: {list(self.ratio_set)}")


@dataclass
class RoundRecord:
    round: int
    participants: list
    client_specs: list   # per participant: {"client_id", "spec", "param_count"}
    bytes_down: int
    bytes_up: int
    dropped: list = field(default_factory=list)
    accuracy: float | None = None
    loss: float | None = None
    wall_time: float = 0.0


def select_participants(n_clients: int, rate: float, rng: RngStream) -> list[int]:
    """ceil(rate * n_clients) distinct ids, uniform without replacement."""
    if not 0 < rate <= 1:
        raise ConfigError("participation rate must be in (0, 1]")
    k = int(np.ceil(rate * n_clients))
    return sorted(int(i) for i in rng.choice(n_clients, size=k, replace=False))


def local_train(w: ModelWeights, profile: ClientProfile) -> ModelWeights:
    """local_epochs full passes of SGD over the shard, fixed batch order.
    Unless the caller keeps a reference, `w` is freed after the first step."""
    for _ in range(profile.local_epochs):
        for batch in profile.shard:
            logits, cache = forward(w, batch)
            loss, _ = softmax_cross_entropy(logits, batch.labels)
            if not np.isfinite(loss):
                raise NumericError(f"client {profile.client_id}: non-finite loss")
            grads = backward(w, cache, batch.labels)
            del cache  # it holds the activations and the pre-step weights
            w = sgd_step(w, grads, profile.lr)
    return w


def aggregate(global_w: ModelWeights,
              updates: list[tuple[SubmodelSpec, ModelWeights]]) -> ModelWeights:
    """Per-coordinate mean over covering clients; uncovered coordinates keep
    the previous global value."""
    cfg = global_w.config
    shapes = {name: arr.shape for name, arr in global_w.tensors.items()}
    sums = {name: np.zeros_like(arr) for name, arr in global_w.tensors.items()}
    counts = {name: np.zeros(arr.shape, dtype=np.int64)
              for name, arr in global_w.tensors.items()}
    for spec, w in updates:
        spec.validate(cfg)
        for name, idx in slice_plan(spec, shapes).items():
            sub = w.tensors[name]
            if sub.shape != sums[name][idx].shape:
                raise AggregationError(
                    f"update tensor {name} has shape {sub.shape}, "
                    f"spec expects {sums[name][idx].shape}")
            sums[name][idx] += sub
            counts[name][idx] += 1
    merged = {}
    for name, garr in global_w.tensors.items():
        c = counts[name]
        covered = c > 0
        new = garr.copy()
        new[covered] = sums[name][covered] / c[covered]
        merged[name] = new
    return ModelWeights(cfg, merged)


def run_round(global_w: ModelWeights, t: int, profiles: list[ClientProfile],
              cfg: FederationConfig, eval_batches=None) -> tuple[ModelWeights, RoundRecord]:
    """Round t: prioritize, sample specs, extract, local train, aggregate."""
    t0 = time.monotonic()
    seed = cfg.master_seed

    prioritized = prioritize_model(global_w, permute_qk=cfg.permute_qk,
                                   permute_vo=cfg.permute_vo, permute_ffn=cfg.permute_ffn)

    select_rng = RngStream(seed, STREAM_SELECT + t)
    participants = select_participants(cfg.n_clients, cfg.participation_rate, select_rng)

    model_cfg = global_w.config
    client_specs = []
    updates = []
    dropped = []
    bytes_down = 0
    bytes_up = 0
    for cid in participants:
        profile = profiles[cid]
        spec_rng = RngStream(seed, STREAM_SPEC + (t << 20) + cid)
        spec = sample_submodel_spec(model_cfg, profile.budget, cfg.ratio_set, spec_rng)
        n_params = param_count(spec, model_cfg)
        if n_params > profile.budget.max_params:
            raise AggregationError(
                f"client {cid}: sampled spec exceeds budget ({n_params} params)")
        bytes_down += n_params * BYTES_PER_PARAM
        client_specs.append({"client_id": cid, "spec": spec.to_dict(),
                             "param_count": n_params})
        try:
            trained = local_train(extract_submodel(prioritized, spec), profile)
        except NumericError as exc:
            dropped.append({"client_id": cid, "reason": str(exc)})
            continue
        updates.append((spec, trained))
        bytes_up += n_params * BYTES_PER_PARAM

    new_global = aggregate(prioritized, updates) if updates else global_w

    record = RoundRecord(round=t, participants=participants, client_specs=client_specs,
                         bytes_down=bytes_down, bytes_up=bytes_up, dropped=dropped)
    if eval_batches is not None and cfg.eval_every > 0 and (t + 1) % cfg.eval_every == 0:
        record.accuracy, record.loss = evaluate(new_global, eval_batches)
    record.wall_time = time.monotonic() - t0

    return new_global, record


def run_federation(cfg: FederationConfig, model_cfg: ModelConfig,
                   profiles: list[ClientProfile],
                   eval_batches=None) -> tuple[ModelWeights, list[RoundRecord]]:
    """Initialize from the master seed and execute all rounds."""
    if len(profiles) != cfg.n_clients:
        raise ConfigError(f"{len(profiles)} profiles for {cfg.n_clients} clients")
    floor = param_count(min_spec(model_cfg, cfg.ratio_set), model_cfg)
    for p in profiles:
        if p.budget.max_params < floor:
            raise ConfigError(
                f"client {p.client_id}: budget {p.budget.max_params} below "
                f"minimum spec size {floor}")
    w = init_weights(model_cfg, cfg.master_seed)
    log: list[RoundRecord] = []
    for t in range(cfg.rounds):
        w, record = run_round(w, t, profiles, cfg, eval_batches=eval_batches)
        log.append(record)
    return w, log

