"""Run configuration: a strict JSON document validated before any compute.

Unknown keys are rejected so typos fail fast instead of silently falling
back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .data import PartitionSpec, TaskSpec
from .errors import ConfigError
from .fed import FederationConfig
from .nn import ModelConfig

_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_FED_KEYS = {"n_clients", "participation_rate", "rounds", "ratio_set",
             "master_seed", "eval_every"}
_TASK_KEYS = {f.name for f in fields(TaskSpec)}
_PARTITION_KEYS = {"dirichlet_alpha", "seed"}
_SPP_KEYS = {"permute_qk", "permute_vo", "permute_ffn"}
_CLIENT_KEYS = {"local_epochs", "lr", "batch_size", "budget_fractions",
                "eval_fraction"}
_TOP_KEYS = {"model", "federation", "task", "partition", "spp", "clients"}


@dataclass
class RunConfig:
    model: ModelConfig
    federation: FederationConfig
    task: TaskSpec
    partition: PartitionSpec
    local_epochs: int
    lr: float
    batch_size: int
    budget_fractions: list
    eval_fraction: float

    def __post_init__(self):
        if not self.budget_fractions or not all(
                type(f) in (int, float) and 0 < f < math.inf for f in self.budget_fractions):
            raise ConfigError("clients.budget_fractions must be a non-empty list of "
                              f"positive numbers: {self.budget_fractions}")


def _require_keys(section, allowed: set, name: str, required: set | None = None):
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    missing = (required if required is not None else allowed) - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {name!r}: {sorted(missing)}")


def parse_run_config(text: str, seed_override: int | None = None) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "config", required={"model", "federation", "task",
                                                      "partition"})

    model_doc = doc["model"]
    _require_keys(model_doc, _MODEL_KEYS, "model")
    _require_keys(doc["federation"], _FED_KEYS, "federation",
                  required=_FED_KEYS - {"eval_every"})
    fed_doc = dict(doc["federation"])
    task_doc = doc["task"]
    _require_keys(task_doc, _TASK_KEYS, "task")
    part_doc = doc["partition"]
    _require_keys(part_doc, _PARTITION_KEYS, "partition")
    spp_doc = doc.get("spp", {})
    _require_keys(spp_doc, _SPP_KEYS, "spp", required=set())
    client_doc = doc.get("clients", {})
    _require_keys(client_doc, _CLIENT_KEYS, "clients", required=set())

    try:
        model = ModelConfig(**model_doc)
        if seed_override is not None:
            fed_doc["master_seed"] = seed_override
        federation = FederationConfig(
            n_clients=fed_doc["n_clients"],
            participation_rate=fed_doc["participation_rate"],
            rounds=fed_doc["rounds"],
            ratio_set=tuple(fed_doc["ratio_set"]),
            master_seed=fed_doc["master_seed"],
            eval_every=fed_doc.get("eval_every", 1),
            permute_qk=spp_doc.get("permute_qk", True),
            permute_vo=spp_doc.get("permute_vo", True),
            permute_ffn=spp_doc.get("permute_ffn", True),
        )
        task = TaskSpec(**task_doc)
        partition = PartitionSpec(n_clients=federation.n_clients,
                                  dirichlet_alpha=part_doc["dirichlet_alpha"],
                                  seed=part_doc["seed"])
        return RunConfig(
            model=model,
            federation=federation,
            task=task,
            partition=partition,
            local_epochs=client_doc.get("local_epochs", 1),
            lr=client_doc.get("lr", 0.1),
            batch_size=client_doc.get("batch_size", 16),
            budget_fractions=list(client_doc.get("budget_fractions", [1.0])),
            eval_fraction=client_doc.get("eval_fraction", 0.2),
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
