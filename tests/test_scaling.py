import math

import numpy as np
import pytest

from fedslice import scaling
from fedslice.errors import ShapeError, ValidationError
from fedslice.nn import Batch, ModelConfig, forward, init_weights
from fedslice.scaling import (ResourceBudget, SubmodelSpec, extract_submodel, fraction_of,
                              full_spec, min_spec, param_count, prioritize_model, rank_channels,
                              salience_l1, sample_submodel_spec, slice_plan, uniform_spec,
                              verify_theorem1)
from fedslice.tensor import RngStream
from test_slice_plan import copy_weights, joint_qk, prioritized

CFG = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_k=4, d_v=4, d_ff=16,
                  vocab_size=11, n_classes=3, max_seq=10)


def rand_batch(cfg, seed, n=6, seq=7):
    rng = RngStream(seed, 777)
    return Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (n, seq))),
                 labels=np.asarray(rng.integers(0, cfg.n_classes, n)))


class TestSalience:
    def test_column_salience(self):
        s = salience_l1(np.array([[1.0, -2.0], [3.0, 0.0]]))
        assert np.array_equal(s, [4.0, 2.0])

    def test_zero_matrix(self):
        assert np.array_equal(salience_l1(np.zeros((3, 2))), [0.0, 0.0])

    def test_single_entry(self):
        assert np.array_equal(salience_l1(np.array([[-0.5]])), [0.5])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            salience_l1(np.zeros((0, 2)))


class TestRankChannels:
    def test_basic(self):
        assert rank_channels(np.array([2.0, 9.0, 5.0])).tolist() == [1, 2, 0]

    def test_stable_tie_break(self):
        assert rank_channels(np.array([3.0, 3.0])).tolist() == [0, 1]

    def test_already_descending_is_identity(self):
        assert rank_channels(np.array([5.0, 4.0, 3.0])).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("n", [16, 17, 64, 256])
    def test_stable_tie_break_on_many_ties(self, n):
        # numpy's default argsort reorders tied entries from 15 of them on
        s = np.tile([1.0, 2.0], n)[:n]
        assert rank_channels(s).tolist() == [*range(1, n, 2), *range(0, n, 2)]


class TestFractionOf:
    @pytest.mark.parametrize("ratio, width", [(0.07, 7), (0.55, 55)])
    def test_uniform_width_is_exact_for_the_decimal_ratio(self, ratio, width):
        cfg = ModelConfig(n_layers=1, d_model=4, n_heads=1, d_k=2, d_v=2, d_ff=100,
                          vocab_size=3, n_classes=2, max_seq=4)
        assert math.ceil(ratio * 100) == width + 1  # binary floating point is one too wide
        assert uniform_spec(cfg, ratio).ffn_widths == (width,)

    @pytest.mark.parametrize("fraction, n, rounding, count", [
        (0.07, 100, math.ceil, 7), (0.29, 100, math.floor, 29),
        (0.65, 3507, math.floor, 2279)])
    def test_rounds_the_exact_product(self, fraction, n, rounding, count):
        assert fraction_of(fraction, n, rounding) == count


class TestPrioritizeModel:
    def test_all_flags_off_is_identity(self):
        w = init_weights(CFG, 3)
        before = {k: v.tobytes() for k, v in w.tensors.items()}
        prioritize_model(w, permute_qk=False, permute_vo=False, permute_ffn=False)
        assert {k: v.tobytes() for k, v in w.tensors.items()} == before

    def test_function_preservation(self):
        w = init_weights(CFG, 4)
        wp = copy_weights(w)
        prioritize_model(wp)
        for seed in range(16):
            batch = rand_batch(CFG, seed)
            a, _ = forward(w, batch)
            b, _ = forward(wp, batch)
            rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert rel.max() <= 1e-9

    def test_salience_non_increasing_after_prioritization(self):
        wp = init_weights(CFG, 5)
        prioritize_model(wp)
        for h in range(CFG.n_heads):
            s = joint_qk(wp[f"layer0.head{h}.wq"], wp[f"layer0.head{h}.wk"])
            assert np.all(np.diff(s) <= 0)
        f = salience_l1(wp["layer0.w1"])
        assert np.all(np.diff(f) <= 0)

    def test_idempotent(self):
        w = init_weights(CFG, 6)
        prioritize_model(w)
        once = {k: v.tobytes() for k, v in w.tensors.items()}
        prioritize_model(w)
        assert {k: v.tobytes() for k, v in w.tensors.items()} == once
        assert all(prioritized(w)[k].tobytes() == once[k] for k in once)


class TestVerifyTheorem1:
    def test_identity_permutation_is_exact_zero(self):
        rng = RngStream(8, 0)
        wq = rng.uniform(-1, 1, (16, 8))
        wk = rng.uniform(-1, 1, (16, 8))
        x = rng.uniform(-1, 1, (5, 16))
        assert verify_theorem1(wq, wk, x, np.arange(8)) == 0.0

    def test_negative_control_permuting_only_wq(self):
        from fedslice.nn import attention_scores
        rng = RngStream(9, 0)
        wq = rng.uniform(-1, 1, (16, 8))
        wk = rng.uniform(-1, 1, (16, 8))
        x = rng.uniform(-1, 1, (5, 16))
        p = rng.permutation(8)
        while np.array_equal(p, np.arange(8)):
            p = rng.permutation(8)
        diff = np.abs(attention_scores(wq, wk, x)
                      - attention_scores(wq[:, p], wk, x)).max()
        assert diff > 1e-3


class TestParamCount:
    def test_full_spec_matches_model_total(self):
        w = init_weights(CFG, 1)
        assert param_count(full_spec(CFG), CFG) == w.param_total()

    def test_halved_ffn_delta(self):
        full = param_count(full_spec(CFG), CFG)
        spec = SubmodelSpec(
            ffn_widths=(CFG.d_ff // 2,),
            qk_widths=((CFG.d_k,) * CFG.n_heads,),
            v_widths=((CFG.d_v,) * CFG.n_heads,))
        delta = CFG.n_layers * (CFG.d_ff // 2) * (2 * CFG.d_model + 1)
        assert param_count(spec, CFG) == full - delta

    def test_count_by_construction(self):
        spec = SubmodelSpec(ffn_widths=(8,), qk_widths=((2, 2),), v_widths=((4, 4),))
        w = init_weights(CFG, 2)
        sub = extract_submodel(w, spec)
        assert param_count(spec, CFG) == sub.param_total()


class TestSampleSubmodelSpec:
    def test_full_budget_ratio_one(self):
        budget = ResourceBudget(param_count(full_spec(CFG), CFG))
        spec = sample_submodel_spec(CFG, budget, [1.0], RngStream(1, 1))
        assert spec == full_spec(CFG)

    def test_single_ratio_is_deterministic(self):
        budget = ResourceBudget(10 ** 9)
        spec = sample_submodel_spec(CFG, budget, [0.5], RngStream(1, 2))
        assert spec.ffn_widths == (math.ceil(0.5 * CFG.d_ff),)
        assert spec.qk_widths == ((math.ceil(0.5 * CFG.d_k),) * 2,)
        assert spec.v_widths == ((math.ceil(0.5 * CFG.d_v),) * 2,)

    def test_thousand_draws_respect_budget(self):
        budget = ResourceBudget(int(0.6 * param_count(full_spec(CFG), CFG)))
        for trial in range(1000):
            spec = sample_submodel_spec(CFG, budget, [0.25, 0.5, 0.75, 1.0],
                                        RngStream(42, 5000 + trial))
            assert param_count(spec, CFG) <= budget.max_params

    def test_floor_fallback_counts_parameters_at_most_once(self, monkeypatch):
        # every attempt is over budget, so the sampler falls back to the floor
        cfg = ModelConfig(n_layers=2, d_model=8, n_heads=4, d_k=8, d_v=8, d_ff=16,
                          vocab_size=5, n_classes=2, max_seq=4)
        ratios = [0.25, 1.0]
        floor = min_spec(cfg, ratios)
        calls = []

        def counting(spec, cfg):
            calls.append(spec)
            return param_count(spec, cfg)

        monkeypatch.setattr(scaling, "param_count", counting)
        budget = ResourceBudget(param_count(floor, cfg))
        assert sample_submodel_spec(cfg, budget, ratios, RngStream(3, 7)) == floor
        assert len(calls) <= 1

    def test_draws_pinned(self):
        # widths are drawn ffn by layer, then qk and v by layer and head
        cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_k=4, d_v=8, d_ff=16,
                          vocab_size=5, n_classes=2, max_seq=4)
        ratios = [0.25, 0.5, 0.75, 1.0]
        full = param_count(full_spec(cfg), cfg)
        expected = {
            (1, full): SubmodelSpec((4, 16), ((3, 1), (3, 1)), ((6, 4), (2, 2))),
            (2, full): SubmodelSpec((12, 8), ((4, 3), (4, 2)), ((8, 4), (8, 8))),
            (3, full // 2): SubmodelSpec((4, 4), ((1, 1), (2, 4)), ((2, 8), (2, 6))),
        }
        for (seed, budget), spec in expected.items():
            assert sample_submodel_spec(cfg, ResourceBudget(budget), ratios,
                                        RngStream(seed, 7)) == spec


class TestExtractSubmodel:
    def test_full_width_is_value_equal(self):
        wp = init_weights(CFG, 3)
        prioritize_model(wp)
        sub = extract_submodel(wp, full_spec(CFG))
        assert all(np.array_equal(wp.tensors[k], sub.tensors[k]) for k in wp.tensors)

    def test_keeps_highest_salience_ffn_columns(self):
        w = init_weights(CFG, 4)
        w1 = np.zeros((CFG.d_model, CFG.d_ff))
        w1[0, :3] = [5.0, 1.0, 3.0]
        w.tensors["layer0.w1"][:] = w1
        prioritize_model(w, permute_qk=False, permute_vo=False)
        spec = SubmodelSpec(ffn_widths=(2,), qk_widths=((4, 4),), v_widths=((4, 4),))
        sub = extract_submodel(w, spec)
        assert sorted(salience_l1(sub["layer0.w1"])[:2].tolist(),
                      reverse=True) == [5.0, 3.0]

    def test_copies_into_one_vector_in_tensor_order(self):
        w = init_weights(CFG, 3)
        wp = prioritized(w)
        prioritize_model(w)
        spec = uniform_spec(CFG, 0.5)
        sub = extract_submodel(w, spec)
        plan = slice_plan(spec, {k: v.shape for k, v in wp.tensors.items()})
        assert list(sub.tensors) == list(wp.tensors) and sub.config == wp.config
        assert sub.vector.tobytes() == b"".join(wp.tensors[k][idx].tobytes()
                                                for k, (idx, _) in plan.items())
        assert all(np.shares_memory(t, sub.vector) for t in sub.tensors.values())

    def test_spec_too_wide_rejected(self, monkeypatch):
        narrow = extract_submodel(init_weights(CFG, 3), uniform_spec(CFG, 0.5))
        monkeypatch.setattr(scaling, "Flat", None)  # any allocation would raise TypeError
        with pytest.raises(ShapeError):
            extract_submodel(narrow, full_spec(CFG))

    def test_short_head_rows_rejected(self):
        cfg = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_k=4, d_v=4, d_ff=16,
                          vocab_size=11, n_classes=3, max_seq=10)
        full = full_spec(cfg)
        for v_widths in [((3, 3), (3,)), ((3, 3), ()), ((3,), (3, 3)), ((3, 3, 3), (3,))]:
            spec = SubmodelSpec(full.ffn_widths, full.qk_widths, v_widths)
            with pytest.raises(ValidationError, match="head count"):
                spec.validate(cfg)
        with pytest.raises(ValidationError, match="head count"):
            SubmodelSpec(full.ffn_widths[:1], full.qk_widths[:1], ((3,),)).validate(CFG)
