"""Salience scoring, channel prioritization, and budget-constrained sub-model extraction.

A "channel" is an output column of a weight matrix (one hidden unit).
Prioritization reorders channels so the highest-L1-salience ones lead the
matrix; extraction then keeps the leading columns, so any width cut retains
the most salient units. Query/key columns of one attention head are always
permuted by the same ranking, which leaves the head's attention scores
unchanged; value/output and FFN permutations are mirrored on the consuming
matrix's rows, which preserves the full forward function exactly.

Which channels each width keeps is worked out in one place, `_layout`: one
slot per width of a spec, and for every tensor CUTS names, the slots whose
channels it lays end to end along its cut axis. Prioritization, extraction,
shape checks, the coverage counts of a round's specs, parameter counts and
the sampler all walk a spec through it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, ValidationError
from .nn import Flat, ModelConfig, ModelWeights, attention_scores, full_shapes
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
# families with one width per head; the others have one per layer
_PER_HEAD = {family for tmpl, (family, _) in CUTS.items() if "{h}" in tmpl}


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
        if any(len(widths) != cfg.n_layers for widths in _values(self)):
            raise ValidationError("spec layer count does not match config")
        have = _flat(self)
        slots = _layout(cfg.n_layers, cfg.n_heads).slots
        if len(have) != len(slots) or _spec(have, cfg.n_layers, cfg.n_heads) != self:
            raise ValidationError("spec head count does not match config")  # a layer's is off
        for (family, _, _), width, maximum in zip(slots, have, _flat(full_spec(cfg))):
            if not 1 <= width <= maximum:
                raise ValidationError(f"{family} width {width} out of [1, {maximum}]")

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


class _Layout(NamedTuple):
    slots: tuple    # (family, layer, head) per width of a spec; head is None per layer
    cuts: tuple     # (tensor, axis, indices of the slots laid end to end along axis)
    sources: tuple  # (tensor, axis) per slot: where a model's own width is read


@functools.lru_cache(maxsize=16)
def _layout(n_layers: int, n_heads: int) -> _Layout:
    """Where every width of a spec of this shape lives. Slots run family by
    family in field order, then by layer, then by head: the order of
    `_flat`, `_spec` and the sampler's draws. A slot's source is the first
    tensor CUTS lists that it cuts alone."""
    slots = tuple((family, i, h) for family in _FAMILIES for i in range(n_layers)
                  for h in (range(n_heads) if family in _PER_HEAD else [None]))
    by_layer = {}  # (family, layer) -> indices of its slots, in head order
    for j, (family, i, _) in enumerate(slots):
        by_layer[family, i] = by_layer.get((family, i), ()) + (j,)
    cuts, sources = [], {}
    for i in range(n_layers):
        for tmpl, (family, axis) in CUTS.items():
            layer = by_layer[family, i]
            for h, js in enumerate([(j,) for j in layer]) if "{h}" in tmpl else [(None, layer)]:
                name = f"layer{i}.{tmpl.format(h=h)}"
                cuts.append((name, axis, js))
                if len(js) == 1:
                    sources.setdefault(js[0], (name, axis))
    return _Layout(slots, tuple(cuts), tuple(sources[j] for j in range(len(slots))))


def _flat(spec: SubmodelSpec) -> list:
    """The spec's widths in slot order."""
    return [w for family, widths in zip(_FAMILIES, _values(spec))
            for w in (itertools.chain.from_iterable(widths) if family in _PER_HEAD else widths)]


def _spec(widths, n_layers: int, n_heads: int) -> SubmodelSpec:
    """The spec whose widths in slot order are these."""
    it = iter(widths)

    def field(family):
        if family in _PER_HEAD:
            return tuple(tuple(itertools.islice(it, n_heads)) for _ in range(n_layers))
        return tuple(itertools.islice(it, n_layers))
    return SubmodelSpec(*map(field, _FAMILIES))


@functools.lru_cache(maxsize=16)
def full_spec(cfg: ModelConfig) -> SubmodelSpec:
    return spec_of(full_shapes(cfg), cfg.n_layers, cfg.n_heads)


def uniform_spec(cfg: ModelConfig, ratio: float) -> SubmodelSpec:
    return _spec([_scaled_width(ratio, m) for m in _flat(full_spec(cfg))],
                 cfg.n_layers, cfg.n_heads)


def _scaled_width(ratio: float, maximum: int) -> int:
    return max(1, math.ceil(ratio * maximum))


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
    layout = _layout(cfg.n_layers, cfg.n_heads)
    have = [w[name].shape[axis] for name, axis in layout.sources]
    perms = []  # one per slot
    for (family, i, h), n in zip(layout.slots, have):
        p = f"layer{i}.head{h}"
        if family == "qk" and permute_qk:
            perms.append(rank_channels(joint_qk_salience(w[f"{p}.wq"], w[f"{p}.wk"])))
        elif family == "v" and permute_vo:
            perms.append(rank_channels(salience_l1(w[f"{p}.wv"])))
        elif family == "ffn" and permute_ffn:
            perms.append(rank_channels(salience_l1(w[f"layer{i}.w1"])))
        else:
            perms.append(np.arange(n))
    cut = {name: np.take(w[name], perms[js[0]] if len(js) == 1 else
                         _stack([perms[j] for j in js], [have[j] for j in js]), axis=axis)
           for name, axis, js in layout.cuts}
    return ModelWeights(cfg, {name: cut[name] if name in cut else arr.copy()
                              for name, arr in w.tensors.items()})


def verify_theorem1(wq: np.ndarray, wk: np.ndarray, x: np.ndarray, p) -> float:
    """Max relative difference of attention scores after permuting the
    columns of BOTH wq and wk by p."""
    p = check_permutation(p, wq.shape[1])
    base = attention_scores(wq, wk, x)
    permuted = attention_scores(wq[:, p], wk[:, p], x)
    denom = np.maximum(np.maximum(np.abs(base), np.abs(permuted)), 1e-300)
    return float((np.abs(base - permuted) / denom).max())


@functools.lru_cache(maxsize=16)
def _param_costs(cfg: ModelConfig) -> tuple:
    """(fixed, unit): a spec's parameter count is fixed + the sum over slots
    of unit[j] x its width j, where unit[j] counts the parameters one
    channel of slot j holds across the tensors that cut it."""
    shapes, layout = full_shapes(cfg), _layout(cfg.n_layers, cfg.n_heads)
    unit = [0] * len(layout.slots)
    for name, axis, js in layout.cuts:
        for j in js:
            unit[j] += math.prod(shapes[name]) // shapes[name][axis]
    full = sum(map(operator.mul, unit, _flat(full_spec(cfg))))
    return sum(map(math.prod, shapes.values())) - full, tuple(unit)


def param_count(spec: SubmodelSpec, cfg: ModelConfig) -> int:
    """Exact trainable-parameter count of the sub-model the spec selects."""
    spec.validate(cfg)
    fixed, unit = _param_costs(cfg)
    return fixed + sum(map(operator.mul, unit, _flat(spec)))


def min_spec(cfg: ModelConfig, ratio_set) -> SubmodelSpec:
    return uniform_spec(cfg, min(ratio_set))


@functools.lru_cache(maxsize=16)
def _draw_table(cfg: ModelConfig, ratios: tuple) -> tuple:
    """(fixed, widths, costs) for the sampler: widths[r, j] is slot j's full
    width scaled by ratios[r], and costs[r, j] its parameter cost, so a
    draw's count is fixed + the sum of its picks' costs (ModelConfig keeps
    every model's count within int64)."""
    fixed, unit = _param_costs(cfg)
    widths = np.array([[_scaled_width(r, m) for m in _flat(full_spec(cfg))] for r in ratios],
                      dtype=np.int64)
    return fixed, widths, widths * np.array(unit, dtype=np.int64)


def sample_submodel_spec(cfg: ModelConfig, budget: ResourceBudget, ratio_set,
                         rng: RngStream) -> SubmodelSpec:
    """Draw each prunable width independently from the ratio set, rejecting
    draws over budget; falls back to the all-minimum spec after
    ``_MAX_ATTEMPTS`` rejections. The caller checks that this floor fits.

    One attempt is one vector draw of ratio indices, which takes the same
    values from the stream as one scalar draw per width in slot order; only
    the accepted draw is built into a spec."""
    ratios = tuple(sorted(ratio_set))
    fixed, widths, costs = _draw_table(cfg, ratios)
    cols = np.arange(widths.shape[1])
    for _ in range(_MAX_ATTEMPTS):
        picks = rng.integers(0, len(ratios), size=len(cols))
        if fixed + int(costs[picks, cols].sum()) <= budget.max_params:
            return _spec(widths[picks, cols].tolist(), cfg.n_layers, cfg.n_heads)
    return min_spec(cfg, ratios)


def spec_of(shapes: dict, n_layers: int, n_heads: int) -> SubmodelSpec:
    """The spec whose widths a model with these tensor shapes has."""
    return _spec([shapes[name][axis] for name, axis in _layout(n_layers, n_heads).sources],
                 n_layers, n_heads)


def _stack(picks: list, have: list) -> np.ndarray:
    """Index along an axis of blocks of widths `have`, laid end to end, that
    takes the entries picks[b] of each block b."""
    starts = np.cumsum([0, *have[:-1]])
    return np.concatenate([s + np.asarray(p, dtype=np.intp) for s, p in zip(starts, picks)])


def slice_plan(spec: SubmodelSpec, shapes: dict) -> dict:
    """For every tensor of a model with these shapes, the index that selects
    the coordinates the spec keeps (``()`` keeps the whole tensor). A cut of
    one block keeps a leading slice, and one of several blocks (``wo``'s
    heads) an index array. Blocks are placed by the model's own widths, so
    the model may itself be a sub-model; a spec wider than it raises
    ShapeError."""
    layout = _layout(len(spec.ffn_widths), len(spec.qk_widths[0]))
    keep = _flat(spec)
    have = [shapes[name][axis] for name, axis in layout.sources]
    for (family, i, _), k, n in zip(layout.slots, keep, have):
        if k > n:
            raise ShapeError(f"spec {family} width {k} at layer {i} exceeds the weights' {n}")
    plan = dict.fromkeys(shapes, ())
    for name, axis, js in layout.cuts:
        if len(js) == 1:
            kept = slice(0, keep[js[0]])
        else:
            kept = _stack([range(keep[j]) for j in js], [have[j] for j in js])
        plan[name] = (slice(None),) * axis + (kept,)
    return plan


def submodel_shapes(spec: SubmodelSpec, shapes: dict) -> dict:
    """The shape of every tensor of the sub-model the spec selects from a
    model with these shapes: each cut axis holds its slots' widths."""
    keep = _flat(spec)
    out = dict(shapes)
    for name, axis, js in _layout(len(spec.ffn_widths), len(spec.qk_widths[0])).cuts:
        shape = shapes[name]
        out[name] = shape[:axis] + (sum(keep[j] for j in js),) + shape[axis + 1:]
    return out


def coverage(specs: list, shapes: dict, n_layers: int, n_heads: int) -> dict:
    """Per tensor of a model with these shapes, how many of the specs (none
    wider than it) cover each index of its cut axis, shaped to broadcast
    over its other axes; for an uncut tensor, the number of specs. A spec
    keeps leading channels, so index i of slot j is covered by the specs
    whose width for slot j is greater than i."""
    layout = _layout(n_layers, n_heads)
    kept = np.array([_flat(spec) for spec in specs], dtype=np.int64).reshape(
        len(specs), len(layout.slots))
    per_slot = [(kept[:, j, None] > np.arange(shapes[name][axis])).sum(axis=0)
                for j, (name, axis) in enumerate(layout.sources)]
    out = dict.fromkeys(shapes, len(specs))
    for name, axis, js in layout.cuts:
        out[name] = np.concatenate([per_slot[j] for j in js]).reshape(
            [-1 if a == axis else 1 for a in range(len(shapes[name]))])
    return out


def extract_submodel(w_prioritized: ModelWeights, spec: SubmodelSpec) -> Flat:
    """Copy out the coordinates the spec keeps, the leading channels of
    every cut tensor, into one new vector (a `Flat`)."""
    spec.validate(w_prioritized.config)
    src = w_prioritized.tensors
    shapes = {name: arr.shape for name, arr in src.items()}
    plan = slice_plan(spec, shapes)
    sub = Flat(w_prioritized.config, submodel_shapes(spec, shapes))
    for name, idx in plan.items():
        np.copyto(sub.tensors[name], src[name][idx])
    return sub


__all__ = [
    "ResourceBudget", "SubmodelSpec",
    "salience_l1", "rank_channels", "joint_qk_salience", "prioritize_model",
    "verify_theorem1", "param_count", "sample_submodel_spec", "extract_submodel",
    "full_spec", "uniform_spec", "min_spec", "CUTS", "slice_plan", "submodel_shapes",
    "coverage", "spec_of",
]
