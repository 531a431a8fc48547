import sys
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice import fed, scaling
from fedslice.errors import AggregationError, ConfigError, ValidationError
from fedslice.fed import (ClientProfile, FederationConfig, aggregate, local_train,
                          run_federation, run_round, select_participants)
from fedslice.nn import (Batch, ModelConfig, ModelWeights, backward, forward,
                         init_weights, sgd_step)
from fedslice.scaling import (ResourceBudget, SubmodelSpec, extract_submodel,
                              full_spec, param_count, prioritize_model)
from fedslice.tensor import RngStream

from test_slice_plan import configs, specs

# small enough that every matrix is at most 4x4
TINY = ModelConfig(n_layers=1, d_model=3, n_heads=2, d_k=4, d_v=2, d_ff=4,
                   vocab_size=4, n_classes=3, max_seq=4)


def tiny_batch(seed, n=4, cfg=TINY):
    rng = RngStream(seed, 321)
    return Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (n, 3))),
                 labels=np.asarray(rng.integers(0, cfg.n_classes, n)))


def make_profiles(cfg, n_clients, local_epochs=1, lr=0.1, budget=None):
    budget = budget or ResourceBudget(param_count(full_spec(cfg), cfg))
    return [ClientProfile(client_id=i, budget=budget,
                          shard=[tiny_batch(100 + i)], local_epochs=local_epochs,
                          lr=lr)
            for i in range(n_clients)]


def random_spec(cfg, rng):
    return SubmodelSpec(
        ffn_widths=tuple(int(rng.integers(1, cfg.d_ff + 1)) for _ in range(cfg.n_layers)),
        qk_widths=tuple(tuple(int(rng.integers(1, cfg.d_k + 1)) for _ in range(cfg.n_heads))
                        for _ in range(cfg.n_layers)),
        v_widths=tuple(tuple(int(rng.integers(1, cfg.d_v + 1)) for _ in range(cfg.n_heads))
                       for _ in range(cfg.n_layers)),
    )


def random_update(cfg, spec, rng):
    """Weights with the sub-model shapes the spec implies, random values."""
    sub = extract_submodel(init_weights(cfg, 0), spec)
    return ModelWeights(cfg, {k: rng.uniform(-1, 1, v.shape) for k, v in sub.tensors.items()})


def oracle_map_coord(name, idx, spec, cfg):
    """Independent per-coordinate coverage rule: the sub-model coordinate a
    global coordinate maps to, or None if the spec does not cover it."""
    if name.startswith("layer"):
        layer = int(name.split(".")[0][5:])
        rest = name.split(".", 1)[1]
        if rest.startswith("head"):
            head = int(rest.split(".")[0][4:])
            kind = rest.split(".")[1]
            qk = spec.qk_widths[layer][head]
            v = spec.v_widths[layer][head]
            if kind in ("wq", "wk"):
                return idx if idx[1] < qk else None
            if kind in ("bq", "bk"):
                return idx if idx[0] < qk else None
            if kind == "wv":
                return idx if idx[1] < v else None
            if kind == "bv":
                return idx if idx[0] < v else None
        elif rest == "wo":
            r, c = idx
            head, off = divmod(r, cfg.d_v)
            if off >= spec.v_widths[layer][head]:
                return None
            return (sum(spec.v_widths[layer][:head]) + off, c)
        elif rest == "w1":
            return idx if idx[1] < spec.ffn_widths[layer] else None
        elif rest == "b1":
            return idx if idx[0] < spec.ffn_widths[layer] else None
        elif rest == "w2":
            return idx if idx[0] < spec.ffn_widths[layer] else None
    return idx


def oracle_aggregate(global_w, updates):
    cfg = global_w.config
    out = {}
    for name, garr in global_w.tensors.items():
        res = np.empty_like(garr)
        for idx in np.ndindex(garr.shape):
            vals = []
            for spec, w in updates:
                m = oracle_map_coord(name, idx, spec, cfg)
                if m is not None:
                    vals.append(w.tensors[name][m])
            if vals:
                s = 0.0
                for v in vals:
                    s += v
                res[idx] = s / len(vals)
            else:
                res[idx] = garr[idx]
        out[name] = res
    return out


class TestSelectParticipants:
    def test_rate_one_selects_all(self):
        assert select_participants(7, 1.0, RngStream(1, 0)) == list(range(7))

    def test_ten_percent_of_hundred(self):
        ids = select_participants(100, 0.1, RngStream(2, 0))
        assert len(ids) == 10 and len(set(ids)) == 10
        assert all(0 <= i < 100 for i in ids)

    def test_same_seed_same_set(self):
        a = select_participants(50, 0.3, RngStream(5, 9))
        b = select_participants(50, 0.3, RngStream(5, 9))
        assert a == b


class TestLocalTrain:
    def test_zero_epochs_is_identity(self):
        w = init_weights(TINY, 1)
        p = make_profiles(TINY, 1, local_epochs=0)[0]
        out = local_train(w, p)
        assert all(np.array_equal(w.tensors[k], out.tensors[k]) for k in w.tensors)

    def test_zero_lr_is_identity(self):
        w = init_weights(TINY, 1)
        p = make_profiles(TINY, 1, lr=0.0)[0]
        out = local_train(w, p)
        assert all(np.array_equal(w.tensors[k], out.tensors[k]) for k in w.tensors)

    def test_one_epoch_single_batch_equals_one_sgd_step(self):
        w = init_weights(TINY, 2)
        batch = tiny_batch(0, n=1)
        p = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                          shard=[batch], local_epochs=1, lr=0.2)
        out = local_train(w, p)
        _, cache = forward(w, batch)
        expected = sgd_step(w, backward(w, cache, batch.labels), 0.2)
        assert all(np.array_equal(expected.tensors[k], out.tensors[k])
                   for k in w.tensors)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps call arguments on the caller's stack")
    def test_input_weights_freed_after_first_step(self, monkeypatch):
        p = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                          shard=[tiny_batch(0), tiny_batch(1)], local_epochs=2, lr=0.1)
        refs, alive = [], []
        real_forward = fed.forward

        def spy_forward(w, batch, *args, **kwargs):
            alive.append(refs[0]() is not None)
            return real_forward(w, batch, *args, **kwargs)

        def fresh_weights():
            w = init_weights(TINY, 1)
            refs.append(weakref.ref(w))
            return w

        monkeypatch.setattr(fed, "forward", spy_forward)
        local_train(fresh_weights(), p)
        assert alive == [True, False, False, False]

    def test_empty_shard_rejected(self):
        with pytest.raises(ValidationError):
            ClientProfile(client_id=0, budget=ResourceBudget(1), shard=[],
                          local_epochs=1, lr=0.1)


class TestAggregate:
    def test_single_full_update_replaces_global(self):
        g = init_weights(TINY, 1)
        u = init_weights(TINY, 2)
        out = aggregate(g, [(full_spec(TINY), u)])
        assert all(np.array_equal(u.tensors[k], out.tensors[k]) for k in u.tensors)

    def test_two_full_updates_average(self):
        g = init_weights(TINY, 1)
        a, b = init_weights(TINY, 2), init_weights(TINY, 3)
        out = aggregate(g, [(full_spec(TINY), a), (full_spec(TINY), b)])
        for k in g.tensors:
            assert np.array_equal(out.tensors[k], (a.tensors[k] + b.tensors[k]) / 2)

    def test_partial_coverage_keeps_uncovered_column(self):
        # 1x2 FFN input matrix: only the first hidden unit is covered
        cfg = ModelConfig(1, 1, 1, 1, 1, 2, 2, 2, 4)
        g = init_weights(cfg, 1)
        spec = SubmodelSpec(ffn_widths=(1,), qk_widths=((1,),), v_widths=((1,),))
        u = random_update(cfg, spec, RngStream(4, 0))
        out = aggregate(g, [(spec, u)])
        assert out.tensors["layer0.w1"][0, 0] == u.tensors["layer0.w1"][0, 0]
        assert out.tensors["layer0.w1"][0, 1] == g.tensors["layer0.w1"][0, 1]

    def test_matches_brute_force_oracle(self):
        for case in range(25):
            rng = RngStream(11, case)
            g = init_weights(TINY, case)
            n_clients = int(rng.integers(1, 4))
            updates = [(s := random_spec(TINY, rng), random_update(TINY, s, rng))
                       for _ in range(n_clients)]
            out = aggregate(g, updates)
            expected = oracle_aggregate(g, updates)
            for k in g.tensors:
                assert np.array_equal(out.tensors[k], expected[k]), k

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_brute_force_oracle_on_drawn_specs(self, data):
        cfg = data.draw(configs())
        rng = RngStream(data.draw(st.integers(0, 99)), 0)
        updates = [(s, random_update(cfg, s, rng))
                   for s in data.draw(st.lists(specs(cfg), min_size=1, max_size=4))]
        g = init_weights(cfg, 1)
        out = aggregate(g, updates)
        expected = oracle_aggregate(g, updates)
        for k in g.tensors:
            assert out.tensors[k].tobytes() == expected[k].tobytes(), k

    def test_no_updates_keep_global(self):
        g = init_weights(TINY, 1)
        out = aggregate(g, [])
        assert out.tensors.keys() == g.tensors.keys()
        assert all(out.tensors[k].tobytes() == g.tensors[k].tobytes() for k in g.tensors)

    def test_wrong_shape_rejected(self):
        g = init_weights(TINY, 1)
        bad = init_weights(TINY, 2)
        bad.tensors["cls.w"] = np.zeros((1, 1))
        with pytest.raises(AggregationError):
            aggregate(g, [(full_spec(TINY), bad)])


def fed_cfg(**kw):
    base = dict(n_clients=4, participation_rate=1.0, rounds=3, ratio_set=(1.0,),
                master_seed=9, eval_every=0)
    base.update(kw)
    return FederationConfig(**base)


class TestRounds:
    def test_zero_lr_rounds_leave_global_unchanged(self):
        cfg = fed_cfg(permute_qk=False, permute_vo=False, permute_ffn=False)
        profiles = make_profiles(TINY, 4, lr=0.0)
        w0 = init_weights(TINY, cfg.master_seed)
        final, log = run_federation(cfg, TINY, profiles)
        assert len(log) == 3
        assert all(np.array_equal(w0.tensors[k], final.tensors[k]) for k in w0.tensors)

    def test_traffic_bytes_formula(self):
        cfg = fed_cfg(rounds=1)
        profiles = make_profiles(TINY, 4)
        _, log = run_federation(cfg, TINY, profiles)
        rec = log[0]
        per_client = [cs["param_count"] for cs in rec.client_specs]
        assert rec.bytes_down == sum(p * 8 for p in per_client)
        assert rec.bytes_up == rec.bytes_down  # no client diverged

    def test_single_round_totals(self):
        cfg = fed_cfg(rounds=1, n_clients=1, participation_rate=1.0)
        _, log = run_federation(cfg, TINY, make_profiles(TINY, 1))
        p = log[0].client_specs[0]["param_count"]
        assert log[0].bytes_down + log[0].bytes_up == 16 * p

    def test_halved_widths_cost_less_than_full(self):
        full_run = run_federation(fed_cfg(rounds=2), TINY, make_profiles(TINY, 4))[1]
        half_run = run_federation(fed_cfg(rounds=2, ratio_set=(0.5,)), TINY,
                                  make_profiles(TINY, 4))[1]
        for half, full in zip(half_run, full_run):
            assert half.bytes_down < full.bytes_down and half.bytes_up < full.bytes_up

    def test_budget_compliance_in_records(self):
        full = param_count(full_spec(TINY), TINY)
        profiles = make_profiles(TINY, 4, budget=ResourceBudget(int(0.8 * full)))
        cfg = fed_cfg(ratio_set=(0.5, 0.75, 1.0), rounds=4)
        _, log = run_federation(cfg, TINY, profiles)
        for rec in log:
            for cs in rec.client_specs:
                assert cs["param_count"] <= int(0.8 * full)

    def test_determinism_across_runs(self):
        cfg = fed_cfg(ratio_set=(0.5, 1.0), rounds=4, participation_rate=0.5)
        a, log_a = run_federation(cfg, TINY, make_profiles(TINY, 4))
        b, log_b = run_federation(cfg, TINY, make_profiles(TINY, 4))
        assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)
        for ra, rb in zip(log_a, log_b):
            da, db = asdict(ra), asdict(rb)
            da.pop("wall_time"), db.pop("wall_time")
            assert da == db

    def test_zero_rounds_returns_initial_weights_and_empty_log(self):
        cfg = fed_cfg(rounds=0)
        final, log = run_federation(cfg, TINY, make_profiles(TINY, 4))
        w0 = init_weights(TINY, cfg.master_seed)
        assert log == []
        assert all(np.array_equal(w0.tensors[k], final.tensors[k]) for k in w0.tensors)

    def test_diverged_client_is_dropped_not_fatal(self):
        # first step overflows the weights; the second epoch sees a nan loss.
        # With prioritization on, a round where every client is dropped must
        # still return the previous global weights, not their prioritized copy.
        w0 = init_weights(TINY, fed_cfg().master_seed)
        assert any(not np.array_equal(w0.tensors[k], prioritize_model(w0).tensors[k])
                   for k in w0.tensors)
        for permute in (False, True):
            profiles = make_profiles(TINY, 2, lr=1e300, local_epochs=2)
            cfg = fed_cfg(n_clients=2, rounds=2, permute_qk=permute, permute_vo=permute,
                          permute_ffn=permute)
            with np.errstate(all="ignore"):
                final, log = run_federation(cfg, TINY, profiles)
            assert all(len(r.dropped) == 2 for r in log)
            assert all(w0.tensors[k].tobytes() == final.tensors[k].tobytes()
                       for k in w0.tensors)

    def test_each_client_is_extracted_after_the_previous_one_trained(self, monkeypatch):
        events = []
        real_extract, real_train = fed.extract_submodel, fed.local_train

        def extract(w, spec):
            events.append(("extract", spec.to_dict()))
            return real_extract(w, spec)

        def train(w, profile):
            events.append(("train", profile.client_id))
            out = real_train(w, profile)
            events.append(("trained", profile.client_id))
            return out

        monkeypatch.setattr(fed, "extract_submodel", extract)
        monkeypatch.setattr(fed, "local_train", train)
        cfg = fed_cfg(ratio_set=(0.5, 0.75, 1.0), rounds=1)
        _, rec = run_round(init_weights(TINY, cfg.master_seed), 0, make_profiles(TINY, 4), cfg)
        assert len(rec.participants) == 4
        expected = []
        for cid, cs in zip(rec.participants, rec.client_specs):
            expected += [("extract", cs["spec"]), ("train", cid), ("trained", cid)]
        assert events == expected

    def test_round_builds_each_distinct_slice_plan_once(self, monkeypatch):
        # floor-budget clients all get the floor spec; the others draw theirs
        floor = param_count(scaling.min_spec(TINY, (0.5, 1.0)), TINY)
        profiles = make_profiles(TINY, 8)
        for p in profiles[::2]:
            p.budget = ResourceBudget(floor)
        built = []
        real_build = scaling._build_slice_plan

        def build(spec, shapes):
            built.append(spec)
            return real_build(spec, shapes)

        scaling._cached_plan.cache_clear()
        monkeypatch.setattr(scaling, "_build_slice_plan", build)
        cfg = fed_cfg(n_clients=8, ratio_set=(0.5, 1.0), rounds=1)
        _, rec = run_round(init_weights(TINY, cfg.master_seed), 0, profiles, cfg)
        specs = [SubmodelSpec.from_dict(cs["spec"]) for cs in rec.client_specs]
        assert len(specs) == 8 and len(set(specs)) < 8
        assert sorted(map(str, built)) == sorted(map(str, set(specs)))

    def test_infeasible_budget_fails_at_setup(self):
        profiles = make_profiles(TINY, 4, budget=ResourceBudget(1))
        with pytest.raises(ConfigError):
            run_federation(fed_cfg(), TINY, profiles)

    def test_run_round_continues_a_federation(self):
        kw = dict(ratio_set=(0.5, 1.0), participation_rate=0.5, eval_every=1)
        evals = [tiny_batch(7, n=6)]
        w1, _ = run_federation(fed_cfg(rounds=1, **kw), TINY, make_profiles(TINY, 4),
                               eval_batches=evals)
        cfg = fed_cfg(rounds=2, **kw)
        w2, log = run_federation(cfg, TINY, make_profiles(TINY, 4), eval_batches=evals)
        w, rec = run_round(w1, 1, make_profiles(TINY, 4), cfg, eval_batches=evals)
        assert w.tensors.keys() == w2.tensors.keys()
        assert all(w.tensors[k].tobytes() == w2.tensors[k].tobytes() for k in w.tensors)
        got, want = asdict(rec), asdict(log[1])
        got.pop("wall_time"), want.pop("wall_time")
        assert got == want and got["round"] == 1 and got["accuracy"] is not None
