"""Property tests: slicing, fusion and parameter counts select the same
coordinates, because all three read one slice plan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice.errors import ShapeError
from fedslice.fed import Fold, aggregate
from fedslice.nn import ModelConfig, ModelWeights, full_shapes, init_weights
from fedslice.scaling import (_MAX_ATTEMPTS, CUTS, ResourceBudget, SubmodelSpec,
                              extract_submodel, full_spec, joint_qk_salience, min_spec,
                              param_count, prioritize_model, rank_channels, salience_l1,
                              sample_submodel_spec, slice_plan, spec_of, submodel_shapes)
from fedslice.tensor import RngStream


def copy_weights(w):
    return ModelWeights(w.config, {k: v.copy() for k, v in w.tensors.items()})


@st.composite
def configs(draw):
    return ModelConfig(n_layers=draw(st.integers(1, 2)), d_model=draw(st.integers(1, 4)),
                       n_heads=draw(st.integers(1, 3)), d_k=draw(st.integers(1, 4)),
                       d_v=draw(st.integers(1, 4)), d_ff=draw(st.integers(1, 5)),
                       vocab_size=draw(st.integers(1, 4)), n_classes=draw(st.integers(1, 3)),
                       max_seq=1)


def specs(cfg, within=None):
    """Specs of cfg whose widths are at most those of `within` (default: full)."""
    within = within or full_spec(cfg)

    def upto(widths):
        return st.tuples(*(st.integers(1, w) for w in widths))

    return st.builds(SubmodelSpec, ffn_widths=upto(within.ffn_widths),
                     qk_widths=st.tuples(*map(upto, within.qk_widths)),
                     v_widths=st.tuples(*map(upto, within.v_widths)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_count_extract_and_coverage_agree(data):
    cfg = data.draw(configs())
    spec = data.draw(specs(cfg))
    prioritized = prioritize_model(init_weights(cfg, data.draw(st.integers(0, 99))))
    sub = extract_submodel(prioritized, spec)
    # a NaN global: exactly the coordinates the update covers become finite
    nan_global = ModelWeights(cfg, {k: np.full(v.shape, np.nan)
                                    for k, v in prioritized.tensors.items()})
    fold = Fold(nan_global)
    aggregate(fold, [(spec, sub)])
    merged = fold.merged()
    covered = sum(int(np.isfinite(v).sum()) for v in merged.tensors.values())
    assert param_count(spec, cfg) == sub.param_total() == covered
    assert submodel_shapes(spec, full_shapes(cfg)) == {k: v.shape for k, v in sub.tensors.items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nested_extraction_equals_direct(data):
    cfg = data.draw(configs())
    outer = data.draw(specs(cfg))
    inner = data.draw(specs(cfg, within=outer))
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    nested = extract_submodel(extract_submodel(w, outer), inner)
    direct = extract_submodel(w, inner)
    assert nested.tensors.keys() == direct.tensors.keys()
    assert all(np.array_equal(nested[k], direct[k]) for k in direct.tensors)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_prioritized_extraction_of_a_sampled_spec_fits_the_budget(data):
    cfg = data.draw(configs())
    ratios = data.draw(st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]), min_size=1))
    budget = ResourceBudget(data.draw(st.integers(param_count(min_spec(cfg, ratios), cfg),
                                                  param_count(full_spec(cfg), cfg))))
    spec = sample_submodel_spec(cfg, budget, ratios, RngStream(data.draw(st.integers(0, 99))))
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    assert extract_submodel(prioritize_model(w), spec).param_total() <= budget.max_params


def reference_sample(cfg, budget, ratio_set, rng):
    """The sampler drawn the long way: one scalar draw per width, family by
    family, then layer and head, and a param_count per attempt."""
    ratios, full = sorted(ratio_set), full_spec(cfg)

    def draw(maximum):
        return max(1, math.ceil(ratios[rng.integers(0, len(ratios))] * maximum))

    for _ in range(_MAX_ATTEMPTS):
        spec = SubmodelSpec(
            ffn_widths=tuple(draw(m) for m in full.ffn_widths),
            qk_widths=tuple(tuple(draw(m) for m in heads) for heads in full.qk_widths),
            v_widths=tuple(tuple(draw(m) for m in heads) for heads in full.v_widths))
        if param_count(spec, cfg) <= budget.max_params:
            return spec
    return min_spec(cfg, ratios)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sampler_equals_scalar_draw_reference_and_consumes_the_same_stream(data):
    cfg = data.draw(configs())
    ratios = data.draw(st.lists(st.floats(0, 1, exclude_min=True), min_size=1, max_size=5))
    floor = param_count(min_spec(cfg, ratios), cfg)
    budget = ResourceBudget(data.draw(st.just(floor)
                                      | st.integers(floor, param_count(full_spec(cfg), cfg))))
    seed = data.draw(st.integers(0, 2 ** 32))
    fast, slow = RngStream(seed, 7), RngStream(seed, 7)
    got = sample_submodel_spec(cfg, budget, ratios, fast)
    assert got == reference_sample(cfg, budget, ratios, slow)
    assert all(type(w) is int for w in got.ffn_widths + sum(got.qk_widths + got.v_widths, ()))
    assert fast.integers(0, 2 ** 62) == slow.integers(0, 2 ** 62)


def test_a_wo_cut_indexes_each_heads_leading_rows():
    cfg = ModelConfig(n_layers=1, d_model=3, n_heads=2, d_k=4, d_v=3, d_ff=4,
                      vocab_size=4, n_classes=3, max_seq=4)
    spec = SubmodelSpec(ffn_widths=(2,), qk_widths=((1, 4),), v_widths=((1, 2),))
    wo_rows = slice_plan(spec, full_shapes(cfg))["layer0.wo"][0]
    assert wo_rows.tolist() == [0, 3, 4]  # head 0 keeps 1 of its 3 rows, head 1 both of its 2
    whole_first = SubmodelSpec(ffn_widths=(2,), qk_widths=((1, 4),), v_widths=((3, 2),))
    assert slice_plan(whole_first, full_shapes(cfg))["layer0.wo"][0].tolist() == [0, 1, 2, 3, 4]


def reference_widths(shapes, n_layers, n_heads):
    """A model's widths by family, layer and head, read from the first
    tensor CUTS lists per family (a per-layer family has one head)."""
    first = {family: (tmpl, axis) for tmpl, (family, axis) in reversed(CUTS.items())}
    return {family: [tuple(shapes[f"layer{i}.{tmpl.format(h=h)}"][axis]
                           for h in (range(n_heads) if "{h}" in tmpl else [None]))
                     for i in range(n_layers)]
            for family, (tmpl, axis) in first.items()}


def reference_cuts(layer, n_heads):
    """(name, family, axis, head) of each tensor CUTS names at a layer; head
    is None for a tensor that stacks the family's heads along axis."""
    for tmpl, (family, axis) in CUTS.items():
        for h in range(n_heads) if "{h}" in tmpl else [None]:
            yield f"layer{layer}.{tmpl.format(h=h)}", family, axis, h


def reference_stack(picks, have):
    starts = np.cumsum((0,) + tuple(have[:-1]))
    return np.concatenate([s + np.asarray(p, dtype=np.intp) for s, p in zip(starts, picks)])


def reference_plan(spec, shapes):
    """The slice plan built layer by layer, with a branch per head tensor."""
    n_layers, n_heads = len(spec.ffn_widths), len(spec.qk_widths[0])
    keep = {"ffn": [(w,) for w in spec.ffn_widths], "qk": spec.qk_widths, "v": spec.v_widths}
    have = reference_widths(shapes, n_layers, n_heads)
    plan = dict.fromkeys(shapes, ())
    for i in range(n_layers):
        for name, family, axis, h in reference_cuts(i, n_heads):
            k, hv = tuple(keep[family][i]), have[family][i]
            if h is not None:
                kept = slice(0, k[h])
            elif len(k) == 1:  # ffn's one width, or wo's of a one-head layer
                kept = slice(0, k[0])
            else:
                kept = reference_stack([range(n) for n in k], hv)
            plan[name] = (slice(None),) * axis + (kept,)
    return plan


def reference_prioritize(w, permute_qk, permute_vo, permute_ffn):
    """Prioritization layer by layer, with a branch per head tensor."""
    cfg = w.config
    out = copy_weights(w)
    have = reference_widths({n: a.shape for n, a in w.tensors.items()},
                            cfg.n_layers, cfg.n_heads)
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
        for name, family, axis, h in reference_cuts(i, cfg.n_heads):
            perm = perms[family][h] if h is not None else reference_stack(perms[family],
                                                                          have[family][i])
            out.tensors[name] = np.take(w[name], perm, axis=axis)
    return out


def same_index(a, b):
    return len(a) == len(b) and all(
        type(x) is type(y) and (np.array_equal(x, y) and x.dtype == y.dtype
                                if isinstance(y, np.ndarray) else x == y)
        for x, y in zip(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_slice_plan_equals_the_reference_builder_on_full_and_narrow_sources(data):
    cfg = data.draw(configs())
    full = full_shapes(cfg)
    outer = data.draw(specs(cfg))
    inner = data.draw(specs(cfg, within=outer))
    narrow = {name: tuple(len(range(n)[i]) if isinstance(i, slice) else len(i)
                          for n, i in zip(full[name], idx)) + full[name][len(idx):]
              for name, idx in reference_plan(outer, full).items()}
    for spec, shapes in [(outer, full), (inner, full), (inner, narrow)]:
        got, want = slice_plan(spec, shapes), reference_plan(spec, shapes)
        assert list(got) == list(want)
        assert all(same_index(got[name], want[name]) for name in want)
    if outer != full_spec(cfg):
        with pytest.raises(ShapeError):
            slice_plan(full_spec(cfg), narrow)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_prioritize_model_equals_the_reference_byte_for_byte(data):
    cfg = data.draw(configs())
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    w = extract_submodel(w, data.draw(specs(cfg)))  # prioritization takes sub-models too
    flags = data.draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    got, want = prioritize_model(w, *flags), reference_prioritize(w, *flags)
    assert list(got.tensors) == list(want.tensors)
    for name, arr in want.tensors.items():
        assert (got[name].dtype, got[name].shape) == (arr.dtype, arr.shape)
        assert got[name].tobytes() == arr.tobytes()
        assert not np.shares_memory(got[name], w[name])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spec_of_reads_back_the_spec_a_sub_model_was_cut_to(data):
    cfg = data.draw(configs())
    spec = data.draw(specs(cfg))
    sub = extract_submodel(init_weights(cfg, data.draw(st.integers(0, 99))), spec)
    shapes = {name: arr.shape for name, arr in sub.tensors.items()}
    assert spec_of(shapes, cfg.n_layers, cfg.n_heads) == spec
