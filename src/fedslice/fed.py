"""Federated orchestration: selection, dispatch, local SGD, coverage-average fusion.

One round = prioritize the global weights, sample a budget-compliant spec
per participant, slice out sub-models, train them locally, then fuse: every
global coordinate becomes the mean over the clients whose spec covers it,
and uncovered coordinates carry over unchanged. A spec keeps leading
channels along one axis of each tensor, so how many clients cover a
coordinate depends only on its index along that axis and on each client's
width for that slot. So fusion keeps only the specs, and counts coverage
from them once, at the end of the round (`scaling.coverage`). With
full-width specs this reduces exactly to FedAvg.

Participants are handled one at a time: each one's sub-model is sliced
from the prioritized global straight into one vector (`nn.Flat`) just
before it trains, trained there in place, added into the round's running
sums (a `Fold`) and freed before the next one is extracted, so a round
holds one sub-model at a time. A second vector of the sub-model's layout
holds the gradients: every step writes its gradients into it and updates
the sub-model in place. During training a round therefore holds three
full-size copies of the weights (the previous global, its prioritized copy
and the sums) besides one client's vectors and activations. The sums are
divided once, at the end, in place: they become the new global. The fold
and the prioritized copy are freed before evaluation, which then runs
beside only the previous and the new global.
All randomness flows through named Philox streams derived from the master
seed, one per stage, round and client, so the order of the work does not
change any draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (AggregationError, ConfigError, NumericError, ValidationError,
                     check_types)
from .nn import (Batch, Flat, ModelConfig, ModelWeights, backward, evaluate, forward,
                 init_weights, sgd_step, softmax_cross_entropy)
from .scaling import (ResourceBudget, SubmodelSpec, coverage, extract_submodel, min_spec,
                      param_count, prioritize_model, sample_submodel_spec, slice_plan,
                      submodel_shapes)
from .tensor import RngStream

BYTES_PER_PARAM = 8

# stream-id allocation: one namespace per randomized stage
STREAM_SELECT = 1 << 32
STREAM_SPEC = 2 << 32


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


_SPP = {"section": "spp"}  # the config section that sets a field


@dataclass
class FederationConfig:
    n_clients: int
    participation_rate: float
    rounds: int
    ratio_set: tuple
    master_seed: int
    eval_every: int = 1
    permute_qk: bool = field(default=True, metadata=_SPP)
    permute_vo: bool = field(default=True, metadata=_SPP)
    permute_ffn: bool = field(default=True, metadata=_SPP)

    def __post_init__(self):
        check_types(self, "federation")
        self.ratio_set = tuple(self.ratio_set)
        if not 0 < self.participation_rate <= 1:
            raise ConfigError("participation_rate must be in (0, 1]")
        if self.rounds < 0 or self.eval_every < 0:
            raise ConfigError("rounds and eval_every must be >= 0")
        if not self.ratio_set or not all(0 < r <= 1 for r in self.ratio_set):
            raise ConfigError(f"ratio_set must be non-empty, in (0, 1]: {list(self.ratio_set)}")
        if len(set(self.ratio_set)) < len(self.ratio_set):
            raise ConfigError(f"ratio_set repeats a ratio: {list(self.ratio_set)}")


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
    """ceil(rate * n_clients) distinct ids, uniform without replacement. The
    product is exact for the decimal the rate is written as: 0.07 of 100
    clients is 7, where binary floating point gives 7.000000000000001."""
    k = math.ceil(Fraction(repr(float(rate))) * n_clients)
    return sorted(int(i) for i in rng.choice(n_clients, size=k, replace=False))


def local_train(w: ModelWeights, spec: SubmodelSpec, profile: ClientProfile) -> Flat:
    """The spec's sub-model of `w` after local_epochs full passes of SGD over
    the shard, fixed batch order. The sub-model is extracted once, into one
    vector (`nn.Flat`), and trained there in place; `w` is left as it is.
    Each step's backward writes its gradients into a second vector of the
    same layout, and both vectors are reused by every step."""
    params = extract_submodel(w, spec)
    grads = Flat(w.config, {name: arr.shape for name, arr in params.tensors.items()})
    for _ in range(profile.local_epochs):
        for batch in profile.shard:
            logits, cache = forward(params, batch)
            loss, dlogits = softmax_cross_entropy(logits, batch.labels)
            if not np.isfinite(loss):
                raise NumericError(f"client {profile.client_id}: non-finite loss")
            backward(cache, dlogits, grads.tensors)
            del cache  # its activations, before the next forward makes new ones
            sgd_step(params, grads, profile.lr)
    return params


class Fold:
    """A round's coverage average in progress: the base weights (the round's
    prioritized global), the per-tensor sums of the updates added so far,
    and their specs. A fold is merged once: merging turns its sums into
    the merged weights in place, and the fold takes no update after that."""

    def __init__(self, base: ModelWeights):
        self.base = base
        self.shapes = {name: arr.shape for name, arr in base.tensors.items()}
        self.sums = {name: np.zeros_like(arr) for name, arr in base.tensors.items()}
        self.specs = []

    def merged(self) -> ModelWeights:
        """Per-coordinate mean over the covering updates; uncovered
        coordinates keep the base value. The sums are divided in place and
        become the returned weights' tensors, so no other model-sized array
        is made."""
        sums = self._open_sums()
        self.sums = None
        cfg = self.base.config
        for name, c in coverage(self.specs, self.shapes, cfg.n_layers, cfg.n_heads).items():
            np.divide(sums[name], c, out=sums[name], where=c > 0)
            np.copyto(sums[name], self.base.tensors[name], where=c == 0)
        return ModelWeights(cfg, sums)

    def _open_sums(self) -> dict[str, np.ndarray]:
        if self.sums is None:
            raise AggregationError("fold already merged")
        return self.sums


def aggregate(fold: Fold, updates: list[tuple[SubmodelSpec, ModelWeights]]) -> None:
    """Add each update into the fold's sums and specs, in list order. An
    update that does not fit the base raises before any of it is added."""
    sums = fold._open_sums()
    for spec, w in updates:
        spec.validate(fold.base.config)
        plan = slice_plan(spec, fold.shapes)
        for name, shape in submodel_shapes(spec, fold.shapes).items():
            if w.tensors[name].shape != shape:
                raise AggregationError(f"update tensor {name} has shape "
                                       f"{w.tensors[name].shape}, spec expects {shape}")
        for name, idx in plan.items():
            sums[name][idx] += w.tensors[name]
        fold.specs.append(spec)


def run_round(global_w: ModelWeights, t: int, profiles: list[ClientProfile],
              cfg: FederationConfig, eval_batch=None) -> tuple[ModelWeights, RoundRecord]:
    """Round t: prioritize, sample specs, extract, local train, aggregate, evaluate."""
    t0 = time.monotonic()
    seed = cfg.master_seed

    prioritized = prioritize_model(global_w, permute_qk=cfg.permute_qk,
                                   permute_vo=cfg.permute_vo, permute_ffn=cfg.permute_ffn)

    select_rng = RngStream(seed, STREAM_SELECT + t)
    participants = select_participants(cfg.n_clients, cfg.participation_rate, select_rng)

    model_cfg = global_w.config
    fold = Fold(prioritized)
    client_specs, dropped = [], []
    bytes_down = bytes_up = 0
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
            trained = local_train(prioritized, spec, profile)
        except NumericError as exc:
            dropped.append({"client_id": cid, "reason": str(exc)})
            continue
        aggregate(fold, [(spec, trained)])
        del trained  # before the next participant's sub-model is extracted
        bytes_up += n_params * BYTES_PER_PARAM

    new_global = fold.merged() if fold.specs else global_w
    del fold, prioritized  # the round's sums and prioritized copy, before evaluation

    record = RoundRecord(round=t, participants=participants, client_specs=client_specs,
                         bytes_down=bytes_down, bytes_up=bytes_up, dropped=dropped)
    if eval_batch is not None and cfg.eval_every > 0 and (t + 1) % cfg.eval_every == 0:
        record.accuracy, record.loss = evaluate(new_global, eval_batch)
    record.wall_time = time.monotonic() - t0

    return new_global, record


def run_federation(cfg: FederationConfig, model_cfg: ModelConfig,
                   profiles: list[ClientProfile],
                   eval_batch=None) -> tuple[ModelWeights, list[RoundRecord]]:
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
        w, record = run_round(w, t, profiles, cfg, eval_batch=eval_batch)
        log.append(record)
    return w, log

