"""Salience scoring, channel prioritization, and budget-constrained sub-model extraction.

A "channel" is an output column of a weight matrix (one hidden unit).
Prioritization reorders channels so the highest-L1-salience ones lead the
matrix; extraction then keeps the leading columns, so any width cut retains
the most salient units. Query/key columns of one attention head are always
permuted by the same ranking, which leaves the head's attention scores
unchanged; value/output and FFN permutations are mirrored on the consuming
matrix's rows, which preserves the full forward function exactly.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

from .errors import ShapeError, ValidationError
from .nn import ModelConfig, ModelWeights, attention_scores, full_shapes
from .tensor import RngStream, check_permutation

# The one definition of which coordinates a spec selects: per-layer tensor ->
# (the spec width that cuts it, the axis it cuts). A head{h} tensor is cut by
# its own head's width; a layer tensor lays the layer's widths of the family
# end to end in head order (wo rows hold every head's v channels).
CUTS = {
    "head{h}.wq": ("qk", 1), "head{h}.bq": ("qk", 0),
    "head{h}.wk": ("qk", 1), "head{h}.bk": ("qk", 0),
    "head{h}.wv": ("v", 1), "head{h}.bv": ("v", 0), "wo": ("v", 0),
    "w1": ("ffn", 1), "b1": ("ffn", 0), "w2": ("ffn", 0),
}
# a model's own widths are read from the first tensor CUTS lists per family
_WIDTH_SOURCE = {family: (tmpl, axis) for tmpl, (family, axis) in reversed(CUTS.items())}


@dataclass(frozen=True)
class ResourceBudget:
    max_params: int


@dataclass(frozen=True)
class SubmodelSpec:
    """Per-layer widths of every prunable dimension: widths[layer] fields
    index heads for qk/v."""
    ffn_widths: tuple
    qk_widths: tuple  # tuple per layer, tuple per head
    v_widths: tuple

    def validate(self, cfg: ModelConfig) -> None:
        have, full = _values(self), _values(full_spec(cfg))
        if any(len(widths) != cfg.n_layers for widths in have):
            raise ValidationError("spec layer count does not match config")
        for family, widths, maxima in zip(_FAMILIES, have, full):
            if not _per_head(family):  # check the layers' widths as one row
                widths, maxima = (widths,), (maxima,)
            for row, row_maxima in zip(widths, maxima):
                if len(row) != len(row_maxima):
                    raise ValidationError("spec head count does not match config")
                for width, maximum in zip(row, row_maxima):
                    if not 1 <= width <= maximum:
                        raise ValidationError(
                            f"{family} width {width} out of [1, {maximum}]")

    def to_dict(self) -> dict:
        return {"ffn_widths": list(self.ffn_widths),
                "qk_widths": [list(x) for x in self.qk_widths],
                "v_widths": [list(x) for x in self.v_widths]}

    @classmethod
    def from_dict(cls, d) -> "SubmodelSpec":
        """Parse the ``to_dict`` form; ValidationError on any other structure."""
        try:
            spec = cls(ffn_widths=tuple(d["ffn_widths"]),
                       qk_widths=tuple(map(tuple, d["qk_widths"])),
                       v_widths=tuple(map(tuple, d["v_widths"])))
        except (KeyError, TypeError) as exc:
            raise ValidationError("spec must hold ffn_widths, qk_widths and v_widths "
                                  f"lists: {exc!r}") from exc
        if any(type(v) is not int
               for v in spec.ffn_widths + sum(spec.qk_widths + spec.v_widths, ())):
            raise ValidationError("spec widths must be integers")
        return spec


_FIELDS = tuple(f.name for f in fields(SubmodelSpec))
_FAMILIES = tuple(name.removesuffix("_widths") for name in _FIELDS)  # CUTS families
_values = operator.attrgetter(*_FIELDS)  # a spec's width tuples in field order
_MAX_ATTEMPTS = 100  # sampler draws before it falls back to the floor spec


def _per_head(family: str) -> bool:
    return "{h}" in _WIDTH_SOURCE[family][0]


@functools.lru_cache(maxsize=16)
def full_spec(cfg: ModelConfig) -> SubmodelSpec:
    return spec_of(full_shapes(cfg), cfg.n_layers, cfg.n_heads)


def uniform_spec(cfg: ModelConfig, ratio: float) -> SubmodelSpec:
    return _map_widths(full_spec(cfg), lambda maximum: _scaled_width(ratio, maximum))


def _scaled_width(ratio: float, maximum: int) -> int:
    return max(1, math.ceil(ratio * maximum))


def _map_widths(spec: SubmodelSpec, fn) -> SubmodelSpec:
    """The spec with fn(width) in place of every width, called family by
    family in field order, then by layer and head."""
    def apply(widths):
        return tuple([apply(w) if isinstance(w, tuple) else fn(w) for w in widths])
    return SubmodelSpec(*apply(_values(spec)))


def salience_l1(w: np.ndarray) -> np.ndarray:
    """L1 salience per channel (column): the sum of absolute weights in it."""
    if w.size == 0:
        raise ShapeError("cannot score an empty tensor")
    return np.abs(w).sum(axis=0)


def rank_channels(s: np.ndarray) -> np.ndarray:
    """Channel order of non-increasing salience; ties keep lower index first."""
    s = np.asarray(s)
    if s.size == 0:
        raise ShapeError("cannot rank an empty salience vector")
    return np.argsort(-s, kind="stable")


def joint_qk_salience(wq_head: np.ndarray, wk_head: np.ndarray) -> np.ndarray:
    """Per-channel mean of the query and key column saliences."""
    if wq_head.shape[1] != wk_head.shape[1]:
        raise ShapeError(f"query/key channel mismatch: {wq_head.shape} vs {wk_head.shape}")
    return (salience_l1(wq_head) + salience_l1(wk_head)) / 2.0


def prioritize_model(w: ModelWeights, permute_qk: bool = True, permute_vo: bool = True,
                     permute_ffn: bool = True) -> ModelWeights:
    """Reorder channels by salience, function-preservingly.

    Per head the SAME joint-salience permutation goes to W^q and W^k columns
    (and their biases). With permute_vo, a per-head W^v column permutation is
    mirrored on the matching W^o rows; with permute_ffn, the W^1 column
    permutation is mirrored on W^2 rows. Each permutation moves its family's
    channels along the axes CUTS gives, so a cut keeps the most salient ones.
    """
    cfg = w.config
    out = w.copy()
    have = _by_family(spec_of({name: arr.shape for name, arr in w.tensors.items()},
                              cfg.n_layers, cfg.n_heads))
    for i in range(cfg.n_layers):
        perms = {family: [np.arange(k) for k in widths[i]] for family, widths in have.items()}
        for h in range(cfg.n_heads):
            p = f"layer{i}.head{h}"
            if permute_qk:
                perms["qk"][h] = rank_channels(joint_qk_salience(w[f"{p}.wq"], w[f"{p}.wk"]))
            if permute_vo:
                perms["v"][h] = rank_channels(salience_l1(w[f"{p}.wv"]))
        if permute_ffn:
            perms["ffn"] = [rank_channels(salience_l1(w[f"layer{i}.w1"]))]
        for name, family, axis, h in _cut_tensors(i, cfg.n_heads):
            perm = perms[family][h] if h is not None else _stack(perms[family], have[family][i])
            out.tensors[name] = np.take(w[name], perm, axis=axis)
    return out


def verify_theorem1(wq: np.ndarray, wk: np.ndarray, x: np.ndarray, p) -> float:
    """Max relative difference of attention scores after permuting the
    columns of BOTH wq and wk by p."""
    p = check_permutation(p, wq.shape[1])
    base = attention_scores(wq, wk, x)
    permuted = attention_scores(wq[:, p], wk[:, p], x)
    denom = np.maximum(np.maximum(np.abs(base), np.abs(permuted)), 1e-300)
    return float((np.abs(base - permuted) / denom).max())


def _by_family(spec: SubmodelSpec) -> dict:
    """The spec's widths by CUTS family, layer and head (a per-layer family
    has one head)."""
    return {family: widths if _per_head(family) else tuple([(w,) for w in widths])
            for family, widths in zip(_FAMILIES, _values(spec))}


def _width_sums(spec: SubmodelSpec) -> dict:
    return {family: sum(map(sum, widths)) if _per_head(family) else sum(widths)
            for family, widths in zip(_FAMILIES, _values(spec))}


@functools.lru_cache(maxsize=16)
def _param_costs(cfg: ModelConfig) -> tuple:
    """(fixed, ((family, cost per unit of width), ...)): a spec's parameter
    count is fixed + sum(cost x its total width of the family)."""
    shapes = full_shapes(cfg)
    per_unit = dict.fromkeys(_WIDTH_SOURCE, 0)
    for name, family, axis, _ in _cut_tensors(0, 1):
        per_unit[family] += math.prod(shapes[name]) // shapes[name][axis]
    full = _width_sums(full_spec(cfg))
    fixed = sum(map(math.prod, shapes.values())) - sum(per_unit[f] * full[f] for f in per_unit)
    return fixed, tuple(per_unit.items())


def param_count(spec: SubmodelSpec, cfg: ModelConfig) -> int:
    """Exact trainable-parameter count of the sub-model the spec selects."""
    spec.validate(cfg)
    fixed, per_unit = _param_costs(cfg)
    sums = _width_sums(spec)
    return fixed + sum(cost * sums[family] for family, cost in per_unit)


def min_spec(cfg: ModelConfig, ratio_set) -> SubmodelSpec:
    return uniform_spec(cfg, min(ratio_set))


@functools.lru_cache(maxsize=16)
def _draw_table(cfg: ModelConfig, ratios: tuple) -> tuple:
    """(fixed, widths, costs) for the sampler: widths[r, j] is the j-th width
    `_map_widths` visits, scaled by ratios[r], and costs[r, j] its parameter
    cost, so a draw's count is fixed + the sum of its picks' costs. The
    tables hold Python ints when the full model's count overflows int64."""
    full = full_spec(cfg)
    fixed, per_unit = _param_costs(cfg)
    per_unit = dict(per_unit)
    maxima, unit = [], []
    for family, layers in _by_family(full).items():
        for heads in layers:
            maxima += heads
            unit += [per_unit[family]] * len(heads)
    dtype = np.int64 if param_count(full, cfg) <= np.iinfo(np.int64).max else object
    widths = np.array([[_scaled_width(r, m) for m in maxima] for r in ratios], dtype=dtype)
    return fixed, widths, widths * np.array(unit, dtype=dtype)


def sample_submodel_spec(cfg: ModelConfig, budget: ResourceBudget, ratio_set,
                         rng: RngStream) -> SubmodelSpec:
    """Draw each prunable width independently from the ratio set, rejecting
    draws over budget; falls back to the all-minimum spec after
    ``_MAX_ATTEMPTS`` rejections. The caller checks that this floor fits.

    One attempt is one vector draw of ratio indices, which takes the same
    values from the stream as one scalar draw per width in `_map_widths`
    order; only the accepted draw is built into a spec."""
    ratios = tuple(sorted(ratio_set))
    fixed, widths, costs = _draw_table(cfg, ratios)
    cols = np.arange(widths.shape[1])
    for _ in range(_MAX_ATTEMPTS):
        picks = rng.integers(0, len(ratios), size=len(cols))
        if fixed + int(costs[picks, cols].sum()) <= budget.max_params:
            drawn = iter(widths[picks, cols].tolist())
            return _map_widths(full_spec(cfg), lambda _: next(drawn))
    return min_spec(cfg, ratios)


def spec_of(shapes: dict, n_layers: int, n_heads: int) -> SubmodelSpec:
    """The spec whose widths a model with these tensor shapes has."""
    def read(family):
        tmpl, axis = _WIDTH_SOURCE[family]
        def width(i, h=None):
            return shapes[f"layer{i}.{tmpl.format(h=h)}"][axis]
        if _per_head(family):
            return tuple(tuple(width(i, h) for h in range(n_heads)) for i in range(n_layers))
        return tuple(width(i) for i in range(n_layers))
    return SubmodelSpec(*map(read, _FAMILIES))


def _cut_tensors(layer: int, n_heads: int):
    """(name, family, axis, head) of each tensor CUTS names at a layer; head
    is None for a layer tensor, which stacks the family's heads along axis."""
    for tmpl, (family, axis) in CUTS.items():
        if "{h}" in tmpl:
            for h in range(n_heads):
                yield f"layer{layer}.{tmpl.format(h=h)}", family, axis, h
        else:
            yield f"layer{layer}.{tmpl}", family, axis, None


def _stack(picks: list, have: tuple) -> np.ndarray:
    """Index along an axis of blocks of widths `have`, laid end to end, that
    takes the entries picks[b] of each block b."""
    starts = np.cumsum((0,) + have[:-1])
    return np.concatenate([s + np.asarray(p, dtype=np.intp) for s, p in zip(starts, picks)])


def slice_plan(spec: SubmodelSpec, shapes: dict) -> Mapping:
    """For every tensor of a model with these shapes, the index that selects
    the coordinates the spec keeps (``()`` keeps the whole tensor). Rows of
    wo are placed by the model's own per-head v widths, so the model may
    itself be a sub-model; a spec wider than it raises ShapeError.

    Plans are cached per (spec, shapes), so a participant's extraction and
    fusion share one, and read-only, so no caller can change another's."""
    return _cached_plan(spec, tuple(shapes.items()))


# 64 is above a round's distinct plans on every benchmark workload (fanout:
# 37 for 48 participants), so fusion finds the plans extraction built. A
# round with more evicts each plan before fusion reads it and builds it twice.
@functools.lru_cache(maxsize=64)
def _cached_plan(spec: SubmodelSpec, shape_items: tuple) -> Mapping:
    return MappingProxyType(_build_slice_plan(spec, dict(shape_items)))


def _build_slice_plan(spec: SubmodelSpec, shapes: dict) -> dict:
    plan = dict.fromkeys(shapes, ())
    keep = _by_family(spec)
    n_layers, n_heads = len(spec.ffn_widths), len(spec.qk_widths[0])
    have = _by_family(spec_of(shapes, n_layers, n_heads))
    for family in keep:
        if any(k > h for ks, hs in zip(keep[family], have[family]) for k, h in zip(ks, hs)):
            raise ShapeError(f"spec {family} widths {keep[family]} exceed the "
                             f"weights' {have[family]}")
    for i in range(n_layers):
        for name, family, axis, h in _cut_tensors(i, n_heads):
            k, hv = keep[family][i], have[family][i]
            if h is not None:
                kept = slice(0, k[h])
            elif k[:-1] == hv[:-1]:  # one contiguous run
                kept = slice(0, sum(k))
            else:
                kept = _stack([range(n) for n in k], hv)
                kept.flags.writeable = False
            plan[name] = (slice(None),) * axis + (kept,)
    return plan


def plan_shape(shape: tuple, idx: tuple) -> tuple:
    """The shape of ``arr[idx]`` for an array of this shape and an index
    from slice_plan."""
    cut = tuple(len(range(n)[i]) if isinstance(i, slice) else len(i)
                for n, i in zip(shape, idx))
    return cut + tuple(shape[len(idx):])


def extract_submodel(w_prioritized: ModelWeights, spec: SubmodelSpec) -> ModelWeights:
    """Copy out the coordinates the spec keeps: the leading channels of
    every cut tensor."""
    spec.validate(w_prioritized.config)
    src = w_prioritized.tensors
    plan = slice_plan(spec, {name: arr.shape for name, arr in src.items()})
    return ModelWeights(w_prioritized.config,
                        {name: src[name][idx].copy() for name, idx in plan.items()})


__all__ = [
    "ResourceBudget", "SubmodelSpec",
    "salience_l1", "rank_channels", "joint_qk_salience", "prioritize_model",
    "verify_theorem1", "param_count", "sample_submodel_spec", "extract_submodel",
    "full_spec", "uniform_spec", "min_spec", "CUTS", "slice_plan", "plan_shape", "spec_of",
]
