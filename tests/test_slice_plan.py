"""Property tests: slicing, fusion and parameter counts select the same
coordinates, because all three read one slice plan."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice.fed import aggregate
from fedslice.nn import ModelConfig, ModelWeights, init_weights
from fedslice.scaling import (SubmodelSpec, extract_submodel, full_spec, param_count,
                              prioritize_model)


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
