"""Run configuration: a strict JSON document validated before any compute.

The dataclasses are the schema: a section's keys are its dataclass's fields,
a field without a default is required, and each value is checked against its
field's annotation and then by the dataclass's range checks. Unknown keys are
rejected, so typos fail fast instead of silently falling back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .data import PartitionSpec, TaskSpec
from .errors import ConfigError, ValidationError, check_types
from .fed import FederationConfig
from .nn import ModelConfig

# the required sections, each a RunConfig field; `spp` and `clients` are optional
_SECTIONS = ("model", "federation", "task", "partition")
_TASK_LIMITS = {"vocab_size": "vocab_size", "n_classes": "n_classes", "seq_len": "max_seq"}
# numpy indexes an array's bytes with intp, and a model or token value takes 8
_MAX_VALUES = np.iinfo(np.intp).max // 8


def _model_values(m: ModelConfig) -> int:
    """How many values the tensors of nn.full_shapes(m) hold, from the dims."""
    d = m.d_model
    head = 2 * (d + 1) * m.d_k + (d + 1) * m.d_v + m.d_v * d  # wq, bq, wk, bk, wv, bv, wo rows
    layer = 6 * d + m.n_heads * head + (2 * d + 1) * m.d_ff
    return m.vocab_size * d + m.n_layers * layer + (d + 1) * m.n_classes


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
        if not 0 <= self.eval_fraction < 1 \
                or round(self.eval_fraction * self.task.n_samples) >= self.task.n_samples:
            raise ConfigError("clients.eval_fraction must be in [0, 1) and leave training data")
        if not self.budget_fractions or not all(0 < f <= 1 for f in self.budget_fractions):
            raise ConfigError("clients.budget_fractions must be a non-empty list of "
                              f"numbers in (0, 1]: {self.budget_fractions}")
        for key, limit in _TASK_LIMITS.items():  # task <= model
            if getattr(self.task, key) > getattr(self.model, limit):
                raise ConfigError(f"task.{key} = {getattr(self.task, key)} exceeds "
                                  f"model.{limit} = {getattr(self.model, limit)}")
        # max_seq sizes no tensor
        model_dims = {k: v for k, v in asdict(self.model).items() if k != "max_seq"}
        task_dims = {"n_samples": self.task.n_samples, "seq_len": self.task.seq_len}
        for section, n_values, dims in (("model", _model_values(self.model), model_dims),
                                        ("task", self.task.n_samples * self.task.seq_len,
                                         task_dims)):
            if n_values > _MAX_VALUES:  # numpy would fail with a ValueError, not OOM
                key = max(dims, key=dims.get)
                raise ConfigError(f"{section}.{key} = {dims[key]} is too large: the "
                                  f"{section}'s arrays would hold {n_values} values, "
                                  f"more than numpy can index ({_MAX_VALUES})")


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
