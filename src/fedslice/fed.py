"""Federated orchestration: selection, dispatch, local SGD, coverage-average fusion.

One round = prioritize the global weights in place, sample a budget-compliant
spec per participant, slice out sub-models, train them locally, then fuse: every
global coordinate becomes the mean over the clients whose spec covers it,
and uncovered coordinates keep their value. A spec keeps leading
channels along one axis of each tensor, so how many clients cover a
coordinate depends only on its index along that axis and on each client's
width for that slot. So fusion keeps only the specs, and counts coverage
from them once, at the end of the round (`scaling.coverage`). With
full-width specs this reduces exactly to FedAvg.

Prioritization permutes the global's channels in place, so every
sub-model is the leading channels of each width slot. Participants are
handled one at a time: each one's sub-model is copied from the global
straight into one vector (`nn.Flat`) just before it trains, trained there
in place, added into the round's running sums (a `Fold`) and freed before
the next one is extracted, so a round holds one sub-model at a time. A
second vector of the sub-model's layout holds the gradients: every step
writes its gradients into it and updates the sub-model in place, and
`backward` frees each layer's activations as it finishes with them. During
training a round therefore holds two full-size copies of the weights (the
global and the sums) besides one client's vectors and activations. At the
end the sums are divided straight into the global wherever an update covers
the coordinate, and freed, so evaluation runs beside one full-size copy,
the global. A round that drops every participant divides nothing, so the
global stays as prioritized. A federation keeps one global, which every
round updates.
All randomness flows through named Philox streams derived from the master
seed, one per stage, round and client, so the order of the work does not
change any draw.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (AggregationError, ConfigError, NumericError, ValidationError,
                     check_types)
from .nn import (Flat, ModelConfig, ModelWeights, backward, evaluate, forward,
                 init_weights, sgd_step, softmax_cross_entropy)
from .scaling import (ResourceBudget, SubmodelSpec, coverage, extract_submodel, fraction_of,
                      param_count, prioritize_model, sample_submodel_spec, slice_plan)
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
    """ceil(rate * n_clients) distinct ids (see `fraction_of`), uniform
    without replacement."""
    k = fraction_of(rate, n_clients, math.ceil)
    return sorted(int(i) for i in rng.choice(n_clients, size=k, replace=False))


def local_train(w: ModelWeights, spec: SubmodelSpec, profile: ClientProfile) -> Flat:
    """The spec's sub-model of `w` (see `extract_submodel`) after
    local_epochs full passes of SGD over the shard, fixed batch order. The
    sub-model is extracted once, into one vector (`nn.Flat`), and trained
    there in place; `w` is left as it is. Each step's backward writes its
    gradients into a second vector of the same layout, and both vectors are
    reused by every step."""
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
    and their specs. A fold is merged once, into its base, and takes no
    update after that."""

    def __init__(self, base: ModelWeights):
        self.base = base
        self.shapes = {name: arr.shape for name, arr in base.tensors.items()}
        self.sums = {name: np.zeros_like(arr) for name, arr in base.tensors.items()}
        self.specs = []

    def merge(self) -> None:
        """Overwrite each base coordinate that an update covers with the mean
        over the covering updates, in place; an uncovered coordinate keeps
        its value, so a fold with no update leaves the base as it is. The
        sums are freed."""
        sums = self._open_sums()
        self.sums = None
        cfg = self.base.config
        for name, c in coverage(self.specs, self.shapes, cfg.n_layers, cfg.n_heads).items():
            np.divide(sums[name], c, out=self.base[name], where=c > 0)

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
        for name, (_, shape) in plan.items():
            if w.tensors[name].shape != shape:
                raise AggregationError(f"update tensor {name} has shape "
                                       f"{w.tensors[name].shape}, spec expects {shape}")
        for name, (idx, _) in plan.items():
            sums[name][idx] += w.tensors[name]
        fold.specs.append(spec)


def run_round(global_w: ModelWeights, t: int, profiles: list[ClientProfile],
              cfg: FederationConfig, eval_batch=None) -> RoundRecord:
    """Round t on `global_w`, in place: prioritize, sample specs, extract,
    local train, aggregate, merge into `global_w`, evaluate."""
    t0 = time.monotonic()
    seed = cfg.master_seed

    prioritize_model(global_w, permute_qk=cfg.permute_qk,
                     permute_vo=cfg.permute_vo, permute_ffn=cfg.permute_ffn)

    select_rng = RngStream(seed, STREAM_SELECT + t)
    participants = select_participants(cfg.n_clients, cfg.participation_rate, select_rng)

    model_cfg = global_w.config
    fold = Fold(global_w)
    client_specs, dropped = [], []
    bytes_down = bytes_up = 0
    for cid in participants:
        profile = profiles[cid]
        spec_rng = RngStream(seed, STREAM_SPEC + (t << 20) + cid)
        spec = sample_submodel_spec(model_cfg, profile.budget, cfg.ratio_set, spec_rng)
        n_params = param_count(spec, model_cfg)
        bytes_down += n_params * BYTES_PER_PARAM
        client_specs.append({"client_id": cid, "spec": spec.to_dict(),
                             "param_count": n_params})
        try:
            trained = local_train(global_w, spec, profile)
        except NumericError as exc:
            dropped.append({"client_id": cid, "reason": str(exc)})
            continue
        aggregate(fold, [(spec, trained)])
        del trained  # before the next participant's sub-model is extracted
        bytes_up += n_params * BYTES_PER_PARAM

    fold.merge()

    record = RoundRecord(round=t, participants=participants, client_specs=client_specs,
                         bytes_down=bytes_down, bytes_up=bytes_up, dropped=dropped)
    if eval_batch is not None and cfg.eval_every > 0 and (t + 1) % cfg.eval_every == 0:
        record.accuracy, record.loss = evaluate(global_w, eval_batch)
    record.wall_time = time.monotonic() - t0
    return record


def run_federation(cfg: FederationConfig, model_cfg: ModelConfig,
                   profiles: list[ClientProfile],
                   eval_batch=None) -> tuple[ModelWeights, list[RoundRecord]]:
    """Initialize one global from the master seed, run every round on it in
    place, and return it with the round log. Each budget must be at least
    the floor spec, which `sim.build_profiles` checks."""
    if len(profiles) != cfg.n_clients:
        raise ConfigError(f"{len(profiles)} profiles for {cfg.n_clients} clients")
    w = init_weights(model_cfg, cfg.master_seed)
    log = [run_round(w, t, profiles, cfg, eval_batch=eval_batch) for t in range(cfg.rounds)]
    return w, log

