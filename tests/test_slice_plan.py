"""Property tests: slicing, fusion and parameter counts select the same
coordinates, because all three read one slice plan."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice.fed import aggregate
from fedslice.nn import ModelConfig, ModelWeights, init_weights
from fedslice.scaling import (_MAX_ATTEMPTS, ResourceBudget, SubmodelSpec, extract_submodel,
                              full_spec, min_spec, param_count, prioritize_model,
                              sample_submodel_spec)
from fedslice.tensor import RngStream


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
    merged = aggregate(nan_global, [(spec, sub)])
    covered = sum(int(np.isfinite(v).sum()) for v in merged.tensors.values())
    assert param_count(spec, cfg) == sub.param_total() == covered


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


def test_sampler_counts_exactly_beyond_int64():
    # ffn width 2**62 costs 9 parameters a unit: the full model overflows int64
    cfg = ModelConfig(n_layers=1, d_model=4, n_heads=1, d_k=2, d_v=2, d_ff=2 ** 62,
                      vocab_size=2, n_classes=2, max_seq=1)
    ratios = [0.5, 1.0]
    budget = ResourceBudget(param_count(full_spec(cfg), cfg) - 1)
    for seed in range(20):
        fast, slow = RngStream(seed, 7), RngStream(seed, 7)
        assert (sample_submodel_spec(cfg, budget, ratios, fast)
                == reference_sample(cfg, budget, ratios, slow))
