import math
from itertools import combinations

import numpy as np
import pytest

from fedslice.errors import ConfigError, ShapeError
from fedslice.nn import Batch, ModelConfig, forward, init_weights
from fedslice.scaling import (ResourceBudget, SubmodelSpec, extract_submodel,
                              full_spec, joint_qk_salience, param_count,
                              prioritize_model, rank_channels, salience_l1,
                              sample_submodel_spec, uniform_spec,
                              verify_theorem1)
from fedslice.tensor import RngStream

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


class TestJointQkSalience:
    def test_averages_column_norms(self):
        wq = np.array([[4.0, 2.0]])   # col saliences [4, 2]
        wk = np.array([[0.0, -6.0]])  # col saliences [0, 6]
        assert np.array_equal(joint_qk_salience(wq, wk), [2.0, 4.0])

    def test_equal_matrices_reduce_to_single_salience(self):
        rng = RngStream(1, 0)
        wq = rng.uniform(-1, 1, (5, 3))
        assert np.allclose(joint_qk_salience(wq, wq), salience_l1(wq), atol=1e-15)

    def test_zero_key_halves(self):
        rng = RngStream(2, 0)
        wq = rng.uniform(-1, 1, (5, 3))
        assert np.allclose(joint_qk_salience(wq, np.zeros_like(wq)),
                           salience_l1(wq) / 2, atol=1e-15)

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ShapeError):
            joint_qk_salience(np.zeros((4, 3)), np.zeros((4, 2)))


class TestPrioritizeModel:
    def test_all_flags_off_is_identity(self):
        w = init_weights(CFG, 3)
        wp = prioritize_model(w, permute_qk=False, permute_vo=False, permute_ffn=False)
        assert all(np.array_equal(w.tensors[k], wp.tensors[k]) for k in w.tensors)

    def test_function_preservation(self):
        w = init_weights(CFG, 4)
        wp = prioritize_model(w)
        for seed in range(16):
            batch = rand_batch(CFG, seed)
            a, _ = forward(w, batch)
            b, _ = forward(wp, batch)
            rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert rel.max() <= 1e-9

    def test_salience_non_increasing_after_prioritization(self):
        wp = prioritize_model(init_weights(CFG, 5))
        for h in range(CFG.n_heads):
            s = joint_qk_salience(wp[f"layer0.head{h}.wq"], wp[f"layer0.head{h}.wk"])
            assert np.all(np.diff(s) <= 0)
        f = salience_l1(wp["layer0.w1"])
        assert np.all(np.diff(f) <= 0)

    def test_idempotent(self):
        wp = prioritize_model(init_weights(CFG, 6))
        wpp = prioritize_model(wp)
        assert wpp.tensors.keys() == wp.tensors.keys()
        assert all(wpp.tensors[k].tobytes() == wp.tensors[k].tobytes() for k in wp.tensors)


class TestVerifyTheorem1:
    def test_hundred_random_trials(self):
        for trial in range(100):
            rng = RngStream(7, 1000 + trial)
            wq = rng.uniform(-1, 1, (16, 8))
            wk = rng.uniform(-1, 1, (16, 8))
            x = rng.uniform(-1, 1, (5, 16))
            assert verify_theorem1(wq, wk, x, rng.permutation(8)) <= 1e-12

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
        wp = prioritize_model(init_weights(CFG, 2))
        sub = extract_submodel(wp, spec)
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

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ConfigError):
            sample_submodel_spec(CFG, ResourceBudget(1), [0.5, 1.0], RngStream(1, 3))

    def test_bad_ratio_set_rejected(self):
        with pytest.raises(ConfigError):
            sample_submodel_spec(CFG, ResourceBudget(10 ** 9), [0.0, 1.0],
                                 RngStream(1, 4))


class TestExtractSubmodel:
    def test_full_width_is_value_equal(self):
        wp = prioritize_model(init_weights(CFG, 3))
        sub = extract_submodel(wp, full_spec(CFG))
        assert all(np.array_equal(wp.tensors[k], sub.tensors[k]) for k in wp.tensors)

    def test_keeps_highest_salience_ffn_columns(self):
        w = init_weights(CFG, 4)
        w1 = np.zeros((CFG.d_model, CFG.d_ff))
        w1[0, :3] = [5.0, 1.0, 3.0]
        w.tensors["layer0.w1"][:] = w1
        wp = prioritize_model(w, permute_qk=False, permute_vo=False)
        spec = SubmodelSpec(ffn_widths=(2,), qk_widths=((4, 4),), v_widths=((4, 4),))
        sub = extract_submodel(wp, spec)
        assert sorted(salience_l1(sub["layer0.w1"])[:2].tolist(),
                      reverse=True) == [5.0, 3.0]

    def test_retained_qk_mass_is_subset_maximal(self):
        for dk in (4, 6, 8):
            cfg = ModelConfig(1, 8, 1, dk, 4, 8, 11, 3, 10)
            w = init_weights(cfg, 10 + dk)
            wp = prioritize_model(w)
            wq0, wk0 = w["layer0.head0.wq"], w["layer0.head0.wk"]
            for k in range(1, dk + 1):
                spec = SubmodelSpec(ffn_widths=(8,), qk_widths=((k,),), v_widths=((4,),))
                sub = extract_submodel(wp, spec)
                kept = math.fsum(np.abs(sub["layer0.head0.wq"]).flat) \
                    + math.fsum(np.abs(sub["layer0.head0.wk"]).flat)
                best = max(
                    math.fsum(np.abs(wq0[:, list(c)]).flat)
                    + math.fsum(np.abs(wk0[:, list(c)]).flat)
                    for c in combinations(range(dk), k))
                assert kept == best

    def test_spec_too_wide_rejected(self):
        wp = prioritize_model(init_weights(CFG, 3))
        narrow = extract_submodel(wp, uniform_spec(CFG, 0.5))
        with pytest.raises(ShapeError):
            extract_submodel(narrow, full_spec(CFG))
