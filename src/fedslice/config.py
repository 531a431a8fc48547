"""Run configuration: a strict JSON document validated before any compute.

The dataclasses are the schema: a section's keys are its dataclass's fields,
a field without a default is required, and each value is checked against its
field's annotation and then by the dataclass's range checks. Unknown keys are
rejected, so typos fail fast instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields

from .data import PartitionSpec, TaskSpec
from .errors import ConfigError, ValidationError, check_size, check_types
from .fed import FederationConfig
from .nn import ModelConfig
from .scaling import fraction_of

# the required sections, each a RunConfig field; `spp` and `clients` are optional
_SECTIONS = ("model", "federation", "task", "partition")
_TASK_LIMITS = {"vocab_size": "vocab_size", "n_classes": "n_classes", "seq_len": "max_seq"}


@dataclass
class RunConfig:
    model: ModelConfig
    federation: FederationConfig
    task: TaskSpec
    partition: PartitionSpec
    local_epochs: int = 1
    lr: float = 0.1
    batch_size: int = 16
    budget_fractions: list = field(default_factory=lambda: [1.0])
    eval_fraction: float = 0.2

    def __post_init__(self):
        check_types(self, "clients")
        for name, low in (("local_epochs", 0), ("batch_size", 1), ("lr", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"clients.{name} must be >= {low}: {getattr(self, name)!r}")
        n = self.task.n_samples
        if not 0 <= self.eval_fraction < 1 or fraction_of(self.eval_fraction, n, round) >= n:
            raise ConfigError("clients.eval_fraction must be in [0, 1) and leave training data")
        if not self.budget_fractions or not all(0 < f <= 1 for f in self.budget_fractions):
            raise ConfigError("clients.budget_fractions must be a non-empty list of "
                              f"numbers in (0, 1]: {self.budget_fractions}")
        for key, limit in _TASK_LIMITS.items():  # task <= model
            if getattr(self.task, key) > getattr(self.model, limit):
                raise ConfigError(f"task.{key} = {getattr(self.task, key)} exceeds "
                                  f"model.{limit} = {getattr(self.model, limit)}")
        # the token matrix; ModelConfig checks the model's arrays
        dims = {"n_samples": self.task.n_samples, "seq_len": self.task.seq_len}
        check_size("task", dims, self.task.n_samples * self.task.seq_len, ConfigError)


def _section(doc: dict, name: str, cls, keep=lambda f: True) -> dict:
    """Section `name` of the doc ({} if absent); its keys are the fields of
    cls that `keep` selects."""
    own = [f for f in fields(cls) if keep(f)]
    section = doc.get(name, {})
    _require_keys(section, name, {f.name for f in own}, {
        f.name for f in own if f.default is MISSING and f.default_factory is MISSING})
    return section


def _require_keys(section, name: str, allowed: set, required: set):
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {name!r}: {sorted(missing)}")


def parse_run_config(text: str, seed_override: int | None = None) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    _require_keys(doc, "config", {*_SECTIONS, "spp", "clients"}, set(_SECTIONS))

    def spp(f):
        return f.metadata.get("section") == "spp"

    try:
        model = ModelConfig(**_section(doc, "model", ModelConfig))
        fed_doc = {**_section(doc, "federation", FederationConfig, lambda f: not spp(f)),
                   **_section(doc, "spp", FederationConfig, spp)}
        if seed_override is not None:
            fed_doc["master_seed"] = seed_override
        federation = FederationConfig(**fed_doc)
        part_doc = _section(doc, "partition", PartitionSpec, lambda f: f.name != "n_clients")
        return RunConfig(
            model=model,
            federation=federation,
            task=TaskSpec(**_section(doc, "task", TaskSpec)),
            partition=PartitionSpec(n_clients=federation.n_clients, **part_doc),
            **_section(doc, "clients", RunConfig, lambda f: f.name not in _SECTIONS),
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
