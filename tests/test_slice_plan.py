"""Property tests: extraction, fusion, checkpoint checks and parameter
counts select the same coordinates. The first three read one slice plan,
which gives each tensor's kept index and the shape it forms; a reference
plan built layer by layer checks both."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice.errors import ShapeError
from fedslice.fed import Fold, aggregate
from fedslice.nn import Batch, ModelConfig, ModelWeights, forward, full_shapes, init_weights
from fedslice.scaling import (_MAX_ATTEMPTS, CUTS, ResourceBudget, SubmodelSpec,
                              extract_submodel, full_spec, min_spec, param_count,
                              prioritize_model, rank_channels, salience_l1,
                              sample_submodel_spec, slice_plan, spec_of)
from fedslice.tensor import RngStream


def copy_weights(w):
    return ModelWeights(w.config, {k: v.copy() for k, v in w.tensors.items()})


def prioritized(w, permute_qk=True, permute_vo=True, permute_ffn=True):
    """A prioritized copy of w (a model or a sub-model), built without the
    code under test: every cut tensor taken through its reference salience
    order, every other tensor copied."""
    perms, axes = reference_order(w, permute_qk, permute_vo, permute_ffn), cut_axes(w.config)
    return ModelWeights(w.config, {name: np.take(arr, perms[name], axis=axes[name])
                                   if name in perms else arr.copy()
                                   for name, arr in w.tensors.items()})


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
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    prioritize_model(w)
    sub = extract_submodel(w, spec)
    # a NaN global: exactly the coordinates the update covers become finite
    nan_global = ModelWeights(cfg, {k: np.full(v.shape, np.nan) for k, v in w.tensors.items()})
    fold = Fold(nan_global)
    aggregate(fold, [(spec, sub)])
    fold.merge()
    covered = sum(int(np.isfinite(v).sum()) for v in nan_global.tensors.values())
    assert param_count(spec, cfg) == sub.param_total() == covered
    got = {k: v.shape for k, v in sub.tensors.items()}
    for plan in (slice_plan, reference_plan):
        assert {k: shape for k, (_, shape) in plan(spec, full_shapes(cfg)).items()} == got


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nested_extraction_equals_direct(data):
    cfg = data.draw(configs())
    outer = data.draw(specs(cfg))
    inner = data.draw(specs(cfg, within=outer))
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    outer_sub = extract_submodel(w, outer)
    nested = extract_submodel(outer_sub, inner)
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
    prioritize_model(w)
    assert extract_submodel(w, spec).param_total() <= budget.max_params


def reference_sample(cfg, budget, ratio_set, rng):
    """The sampler drawn the long way: one scalar draw per width, family by
    family, then layer and head, and a param_count per attempt. A width is
    the ceiling of the exact product of the ratio's decimal and the full
    width."""
    ratios, full = sorted(ratio_set), full_spec(cfg)

    def draw(maximum):
        ratio = Fraction(repr(ratios[rng.integers(0, len(ratios))]))
        return max(1, math.ceil(ratio * maximum))

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
    (wo_rows,), shape = slice_plan(spec, full_shapes(cfg))["layer0.wo"]
    assert wo_rows.tolist() == [0, 3, 4]  # head 0 keeps 1 of its 3 rows, head 1 both of its 2
    assert shape == (3, 3)
    whole_first = SubmodelSpec(ffn_widths=(2,), qk_widths=((1, 4),), v_widths=((3, 2),))
    assert slice_plan(whole_first, full_shapes(cfg))["layer0.wo"][0][0].tolist() == [0, 1, 2, 3, 4]


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
    """The slice plan built layer by layer, with a branch per head tensor:
    per tensor, its index and the shape that index selects."""
    n_layers, n_heads = len(spec.ffn_widths), len(spec.qk_widths[0])
    keep = {"ffn": [(w,) for w in spec.ffn_widths], "qk": spec.qk_widths, "v": spec.v_widths}
    have = reference_widths(shapes, n_layers, n_heads)
    plan = {name: ((), shape) for name, shape in shapes.items()}
    for i in range(n_layers):
        for name, family, axis, h in reference_cuts(i, n_heads):
            k, hv = tuple(keep[family][i]), have[family][i]
            if h is not None:
                kept = slice(0, k[h])
            elif len(k) == 1:  # ffn's one width, or wo's of a one-head layer
                kept = slice(0, k[0])
            else:
                kept = reference_stack([range(n) for n in k], hv)
            idx = (slice(None),) * axis + (kept,)
            plan[name] = idx, tuple(len(range(n)[ix]) if isinstance(ix, slice) else len(ix)
                                    for n, ix in zip(shapes[name], idx)) + shapes[name][axis + 1:]
    return plan


def joint_qk(wq, wk):
    """A head's query/key channel score: the mean of the two column saliences."""
    return (salience_l1(wq) + salience_l1(wk)) / 2.0


def reference_order(w, permute_qk, permute_vo, permute_ffn):
    """The salience permutation of every cut tensor along its cut axis,
    layer by layer, with a branch per head tensor."""
    cfg = w.config
    out = {}
    have = reference_widths({n: a.shape for n, a in w.tensors.items()},
                            cfg.n_layers, cfg.n_heads)
    for i in range(cfg.n_layers):
        perms = {family: [np.arange(k) for k in widths[i]] for family, widths in have.items()}
        for h in range(cfg.n_heads):
            p = f"layer{i}.head{h}"
            if permute_qk:
                perms["qk"][h] = rank_channels(joint_qk(w[f"{p}.wq"], w[f"{p}.wk"]))
            if permute_vo:
                perms["v"][h] = rank_channels(salience_l1(w[f"{p}.wv"]))
        if permute_ffn:
            perms["ffn"] = [rank_channels(salience_l1(w[f"layer{i}.w1"]))]
        for name, family, axis, h in reference_cuts(i, cfg.n_heads):
            perm = perms[family][h] if h is not None else reference_stack(perms[family],
                                                                          have[family][i])
            out[name] = perm
    return out


def cut_axes(cfg):
    return {name: axis for i in range(cfg.n_layers)
            for name, _, axis, _ in reference_cuts(i, cfg.n_heads)}


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
    narrow = {name: shape for name, (_, shape) in reference_plan(outer, full).items()}
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    narrow_w = extract_submodel(w, outer)
    assert {name: arr.shape for name, arr in narrow_w.tensors.items()} == narrow
    for spec, source in [(outer, w), (inner, w), (inner, narrow_w)]:
        shapes = {name: arr.shape for name, arr in source.tensors.items()}
        got, want = slice_plan(spec, shapes), reference_plan(spec, shapes)
        assert list(got) == list(want)
        assert all(same_index(got[name][0], want[name][0]) for name in want)
        assert all(got[name][1] == want[name][1] for name in want)
    if outer != full_spec(cfg):
        with pytest.raises(ShapeError):
            slice_plan(full_spec(cfg), narrow)


def logits_of(w, cfg, seed):
    batch = Batch(tokens=np.asarray(RngStream(seed, 1).integers(0, cfg.vocab_size, (3, 1))),
                  labels=np.zeros(3, dtype=np.int64))
    return forward(w, batch)[0]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_prioritize_model_equals_the_reference_byte_for_byte(data):
    cfg = data.draw(configs())
    w0 = init_weights(cfg, data.draw(st.integers(0, 99)))
    if data.draw(st.booleans()):  # sub-models too
        w0 = extract_submodel(w0, data.draw(specs(cfg)))
    spec = data.draw(specs(cfg, within=spec_of({k: v.shape for k, v in w0.tensors.items()},
                                               cfg.n_layers, cfg.n_heads)))
    seed = data.draw(st.integers(0, 99))
    for flags in itertools.product([False, True], repeat=3):
        w = copy_weights(w0)
        arrays = dict(w.tensors)
        want = prioritized(w0, *flags)
        assert prioritize_model(w, *flags) is None
        assert all(w.tensors[name] is arr for name, arr in arrays.items())  # written in place
        for name, arr in want.tensors.items():
            assert w[name].tobytes() == arr.tobytes(), (flags, name)
        if not any(flags):
            assert all(w[name].tobytes() == w0[name].tobytes() for name in w.tensors)
        a, b = logits_of(w0, cfg, seed), logits_of(w, cfg, seed)
        rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        assert rel.max(initial=0.0) <= 1e-9, flags
        before = {name: arr.tobytes() for name, arr in w.tensors.items()}
        prioritize_model(w, *flags)
        assert {name: arr.tobytes() for name, arr in w.tensors.items()} == before, flags
        # the route before in-place prioritization: gather the unprioritized
        # weights through the reference order at the reference plan's indices
        perms = reference_order(w0, *flags)
        plan = reference_plan(spec, {name: arr.shape for name, arr in w0.tensors.items()})
        got = extract_submodel(w, spec)
        for name, (idx, _) in plan.items():
            gathered = (np.take(w0[name], perms[name][idx[-1]], axis=len(idx) - 1)
                        if idx else w0[name])
            assert got[name].tobytes() == gathered.tobytes(), (flags, name)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extraction_and_merge_through_the_order_equal_the_permuted_copy(data):
    # extraction from, and merges into, a global prioritized in place equal
    # those of its reference prioritized copy
    cfg = data.draw(configs())
    w0 = init_weights(cfg, data.draw(st.integers(0, 99)))
    spec_list = data.draw(st.lists(specs(cfg), min_size=1, max_size=3))
    rng = RngStream(data.draw(st.integers(0, 99)), 0)
    for flags in itertools.product([False, True], repeat=3):
        w, copy = copy_weights(w0), prioritized(w0, *flags)
        prioritize_model(w, *flags)
        in_place, via_copy = Fold(w), Fold(copy)
        for spec in spec_list:
            got = extract_submodel(w, spec)
            plan = slice_plan(spec, {k: v.shape for k, v in copy.tensors.items()})
            want = {name: copy[name][idx] for name, (idx, _) in plan.items()}
            assert list(got.tensors) == list(want)
            for name, arr in want.items():
                assert got[name].tobytes() == arr.tobytes(), (flags, name)
            update = ModelWeights(cfg, {k: rng.uniform(-1, 1, v.shape) for k, v in want.items()})
            aggregate(in_place, [(spec, update)])
            aggregate(via_copy, [(spec, update)])
        in_place.merge()
        via_copy.merge()
        for name, arr in copy.tensors.items():
            assert w[name].tobytes() == arr.tobytes(), (flags, name)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spec_of_reads_back_the_spec_a_sub_model_was_cut_to(data):
    cfg = data.draw(configs())
    spec = data.draw(specs(cfg))
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    sub = extract_submodel(w, spec)
    shapes = {name: arr.shape for name, arr in sub.tensors.items()}
    assert spec_of(shapes, cfg.n_layers, cfg.n_heads) == spec
