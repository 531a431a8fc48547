import sys
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice import fed, nn
from fedslice.errors import AggregationError, NumericError, ValidationError
from fedslice.fed import (ClientProfile, FederationConfig, Fold, RoundRecord, aggregate,
                          local_train, run_federation, run_round, select_participants)
from fedslice.nn import Batch, ModelConfig, forward, init_weights, softmax_cross_entropy
from fedslice.scaling import (ResourceBudget, SubmodelSpec, extract_submodel, full_spec,
                              param_count, prioritize_model)
from fedslice.tensor import RngStream

from test_nn import backward_new
from test_slice_plan import configs, copy_weights, model_of, prioritized, specs

# small enough that every matrix is at most 4x4
TINY = ModelConfig(n_layers=1, d_model=3, n_heads=2, d_k=4, d_v=2, d_ff=4,
                   vocab_size=4, n_classes=3, max_seq=4)
# big enough that no one tensor is a third of the model
WIDE = ModelConfig(n_layers=2, d_model=64, n_heads=2, d_k=16, d_v=16, d_ff=128,
                   vocab_size=8, n_classes=3, max_seq=4)


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
    w = init_weights(cfg, 0)
    sub = extract_submodel(w, spec)
    return model_of(cfg, {k: rng.uniform(-1, 1, v.shape) for k, v in sub.tensors.items()})


def fold_all(global_w, updates):
    """A copy of global_w merged with one fold that adds every update in one
    aggregate call; global_w itself is left as it is."""
    out = copy_weights(global_w)
    fold = Fold(out)
    aggregate(fold, updates)
    fold.merge()
    return out


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

    @pytest.mark.parametrize("rate, k", [(0.07, 7), (0.55, 55)])
    def test_count_is_exact_for_the_decimal_rate(self, rate, k):
        assert rate * 100 > k  # binary floating point rounds the product up
        assert len(select_participants(100, rate, RngStream(3, 0))) == k

    def test_same_seed_same_set(self):
        a = select_participants(50, 0.3, RngStream(5, 9))
        b = select_participants(50, 0.3, RngStream(5, 9))
        assert a == b


class TestLocalTrain:
    def test_zero_epochs_is_identity(self):
        w = init_weights(TINY, 1)
        p = make_profiles(TINY, 1, local_epochs=0)[0]
        out = local_train(w, full_spec(TINY), p)
        assert all(np.array_equal(w.tensors[k], out.tensors[k]) for k in w.tensors)

    def test_zero_lr_is_identity(self):
        w = init_weights(TINY, 1)
        p = make_profiles(TINY, 1, lr=0.0)[0]
        out = local_train(w, full_spec(TINY), p)
        assert all(np.array_equal(w.tensors[k], out.tensors[k]) for k in w.tensors)

    def test_one_epoch_single_batch_equals_one_sgd_step(self):
        w = init_weights(TINY, 2)
        batch = tiny_batch(0, n=1)
        p = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                          shard=[batch], local_epochs=1, lr=0.2)
        out = local_train(w, full_spec(TINY), p)
        logits, cache = forward(w, batch)
        _, dlogits = softmax_cross_entropy(logits, batch.labels)
        g = backward_new(cache, dlogits)
        assert all(np.array_equal(a - 0.2 * g[k], out.tensors[k]) for k, a in w.tensors.items())

    def test_one_loss_call_per_step(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return softmax_cross_entropy(*args)

        for module in (nn, fed):  # count calls from inside nn as well as from fed
            monkeypatch.setattr(module, "softmax_cross_entropy", counting)
        p = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                          shard=[tiny_batch(s) for s in range(3)], local_epochs=2, lr=0.1)
        w = init_weights(TINY, 3)
        local_train(w, full_spec(TINY), p)
        assert len(calls) == 2 * 3

    def test_trains_its_one_extraction_in_place(self, monkeypatch):
        # one sub-model-sized allocation besides the gradients: the
        # extraction, which is trained and returned; the input is not touched
        extracted, models = [], []
        real_extract, real_init = fed.extract_submodel, nn.ModelWeights.__init__

        def extract(w, spec):
            extracted.append(real_extract(w, spec))
            return extracted[-1]

        def counting_init(self, *args):
            models.append(self)
            real_init(self, *args)

        w = init_weights(TINY, 1)
        prioritize_model(w)
        monkeypatch.setattr(fed, "extract_submodel", extract)
        monkeypatch.setattr(nn.ModelWeights, "__init__", counting_init)
        before = {k: v.tobytes() for k, v in w.tensors.items()}
        spec = SubmodelSpec(ffn_widths=(3,), qk_widths=((2, 4),), v_widths=((1, 2),))
        p = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                          shard=[tiny_batch(0), tiny_batch(1)], local_epochs=2, lr=0.1)
        out = local_train(w, spec, p)
        assert len(extracted) == 1 and out is extracted[0] and len(models) == 2
        assert out.vector.tobytes() != real_extract(w, spec).vector.tobytes()
        assert {k: v.tobytes() for k, v in w.tensors.items()} == before

    def test_non_finite_gradient_drops_the_client_naming_the_tensor(self, monkeypatch):
        names = list(nn.full_shapes(TINY))
        middle = names[len(names) // 2]
        real_backward = fed.backward

        def poisoned(cache, dlogits, grads):
            real_backward(cache, dlogits, grads)
            grads[middle].flat[0] = np.inf
            return grads

        monkeypatch.setattr(fed, "backward", poisoned)
        cfg = fed_cfg(rounds=1)
        w0 = init_weights(TINY, cfg.master_seed)
        want = prioritized(w0)
        rec = run_round(w0, 0, make_profiles(TINY, 4), cfg)
        reason = f"non-finite gradient in {middle}; step refused"
        assert rec.dropped == [{"client_id": c, "reason": reason} for c in rec.participants]
        assert all(w0[k].tobytes() == want[k].tobytes() for k in w0.tensors)

    def test_underflowed_loss_drops_the_client(self):
        # the label's probability underflows to 0 in the second epoch: the
        # loss is inf, with no numpy warning, and the client is dropped
        cfg = ModelConfig(n_layers=2, d_model=3, n_heads=1, d_k=1, d_v=1, d_ff=1,
                          vocab_size=1, n_classes=2, max_seq=3)
        spec = SubmodelSpec(ffn_widths=(1, 1), qk_widths=((1,), (1,)), v_widths=((1,), (1,)))
        profile = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                                shard=[tiny_batch(0, n=1, cfg=cfg)] * 2, local_epochs=2,
                                lr=1.0)
        w = init_weights(cfg, 0)
        prioritize_model(w)
        with pytest.raises(NumericError, match="client 0: non-finite loss"):
            local_train(w, spec, profile)

    def test_empty_shard_rejected(self):
        with pytest.raises(ValidationError):
            ClientProfile(client_id=0, budget=ResourceBudget(1), shard=[],
                          local_epochs=1, lr=0.1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_local_train_bit_equal_to_out_of_place_sgd(data):
    cfg = replace(data.draw(configs()), max_seq=3)
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    prioritize_model(w)
    spec = data.draw(specs(cfg))
    shard = [tiny_batch(data.draw(st.integers(0, 99)), n=data.draw(st.integers(1, 5)), cfg=cfg)
             for _ in range(data.draw(st.integers(1, 3)))]
    epochs, lr = data.draw(st.integers(1, 2)), data.draw(st.floats(0.0, 1.0))
    before = {k: v.tobytes() for k, v in w.tensors.items()}
    profile = ClientProfile(client_id=0, budget=ResourceBudget(10 ** 9),
                            shard=shard, local_epochs=epochs, lr=lr)
    want = extract_submodel(w, spec).tensors
    for _ in range(epochs):
        for batch in shard:
            logits, cache = forward(model_of(cfg, want), batch)
            loss, dlogits = softmax_cross_entropy(logits, batch.labels)
            if not np.isfinite(loss):  # underflowed: local_train drops the client here
                with pytest.raises(NumericError):
                    local_train(w, spec, profile)
                return
            g = backward_new(cache, dlogits)
            want = {k: a - lr * g[k] for k, a in want.items()}
    got = local_train(w, spec, profile)
    assert {k: v.tobytes() for k, v in w.tensors.items()} == before
    assert list(got.tensors) == list(want)
    for k, v in want.items():
        assert got.tensors[k].shape == v.shape and got.tensors[k].tobytes() == v.tobytes(), k


class TestAggregate:
    def test_single_full_update_replaces_global(self):
        g = init_weights(TINY, 1)
        u = init_weights(TINY, 2)
        out = fold_all(g, [(full_spec(TINY), u)])
        assert all(np.array_equal(u.tensors[k], out.tensors[k]) for k in u.tensors)

    def test_two_full_updates_average(self):
        g = init_weights(TINY, 1)
        a, b = init_weights(TINY, 2), init_weights(TINY, 3)
        out = fold_all(g, [(full_spec(TINY), a), (full_spec(TINY), b)])
        for k in g.tensors:
            assert np.array_equal(out.tensors[k], (a.tensors[k] + b.tensors[k]) / 2)

    def test_partial_coverage_keeps_uncovered_column(self):
        # 1x2 FFN input matrix: only the first hidden unit is covered
        cfg = ModelConfig(1, 1, 1, 1, 1, 2, 2, 2, 4)
        g = init_weights(cfg, 1)
        spec = SubmodelSpec(ffn_widths=(1,), qk_widths=((1,),), v_widths=((1,),))
        u = random_update(cfg, spec, RngStream(4, 0))
        out = fold_all(g, [(spec, u)])
        assert out.tensors["layer0.w1"][0, 0] == u.tensors["layer0.w1"][0, 0]
        assert out.tensors["layer0.w1"][0, 1] == g.tensors["layer0.w1"][0, 1]

    def test_matches_brute_force_oracle(self):
        for case in range(25):
            rng = RngStream(11, case)
            g = init_weights(TINY, case)
            n_clients = int(rng.integers(1, 4))
            updates = [(s := random_spec(TINY, rng), random_update(TINY, s, rng))
                       for _ in range(n_clients)]
            out = fold_all(g, updates)
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
        out = fold_all(g, updates)
        streamed = copy_weights(g)
        one_at_a_time = Fold(streamed)
        for update in updates:
            aggregate(one_at_a_time, [update])
        one_at_a_time.merge()
        expected = oracle_aggregate(g, updates)
        for k in g.tensors:
            assert out.tensors[k].tobytes() == expected[k].tobytes(), k
            assert streamed.tensors[k].tobytes() == expected[k].tobytes(), k

    def test_no_updates_keep_global(self):
        g = init_weights(TINY, 1)
        out = fold_all(g, [])
        assert out.tensors.keys() == g.tensors.keys()
        assert all(out.tensors[k].tobytes() == g.tensors[k].tobytes() for k in g.tensors)

    def test_wrong_shape_rejected(self):
        g = init_weights(TINY, 1)
        bad = model_of(TINY, {**init_weights(TINY, 2).tensors, "cls.w": np.zeros((1, 1))})
        with pytest.raises(AggregationError):
            fold_all(g, [(full_spec(TINY), bad)])

    def test_a_fold_merges_once_and_takes_no_update_after(self):
        g = init_weights(TINY, 1)
        update = (full_spec(TINY), init_weights(TINY, 2))
        fold = Fold(g)
        aggregate(fold, [update])
        assert fold.merge() is None
        before = {k: v.tobytes() for k, v in g.tensors.items()}
        assert before == {k: v.tobytes() for k, v in update[1].tensors.items()}
        with pytest.raises(AggregationError):
            fold.merge()
        with pytest.raises(AggregationError):
            aggregate(fold, [update])
        assert {k: v.tobytes() for k, v in g.tensors.items()} == before

    def test_rejected_update_leaves_the_fold_untouched(self):
        g = init_weights(TINY, 1)
        good = [(full_spec(TINY), init_weights(TINY, 2)), (full_spec(TINY), init_weights(TINY, 3))]
        bad = model_of(TINY, {**init_weights(TINY, 4).tensors,  # cls.b: the last tensor checked
                              "cls.b": np.zeros(TINY.n_classes + 1)})
        out = copy_weights(g)
        fold = Fold(out)
        aggregate(fold, good[:1])
        with pytest.raises(AggregationError):
            aggregate(fold, [(full_spec(TINY), bad)])
        aggregate(fold, good[1:])
        fold.merge()
        expected = fold_all(g, good)
        assert all(out.tensors[k].tobytes() == expected.tensors[k].tobytes() for k in g.tensors)


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
        # A round where every client is dropped leaves the global as that
        # round prioritized it: the same function, channels reordered.
        w0 = init_weights(TINY, fed_cfg().master_seed)
        wp = prioritized(w0)
        assert any(w0[k].tobytes() != wp[k].tobytes() for k in w0.tensors)
        batch = tiny_batch(5)
        for permute, want in ((False, w0), (True, wp)):
            profiles = make_profiles(TINY, 2, lr=1e300, local_epochs=2)
            cfg = fed_cfg(n_clients=2, rounds=2, permute_qk=permute, permute_vo=permute,
                          permute_ffn=permute)
            with np.errstate(all="ignore"):
                final, log = run_federation(cfg, TINY, profiles)
            assert all(len(r.dropped) == 2 for r in log)
            assert all(want[k].tobytes() == final[k].tobytes() for k in w0.tensors)
            a, b = forward(w0, batch)[0], forward(final, batch)[0]
            rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            assert rel.max() <= 1e-9

    def test_each_client_is_extracted_after_the_previous_one_trained(self, monkeypatch):
        events = []
        real_extract, real_train = fed.extract_submodel, fed.local_train

        def extract(w, spec):
            events.append(("extract", spec.to_dict()))
            return real_extract(w, spec)

        def train(w, spec, profile):
            events.append(("train", profile.client_id))
            out = real_train(w, spec, profile)
            events.append(("trained", profile.client_id))
            return out

        monkeypatch.setattr(fed, "extract_submodel", extract)
        monkeypatch.setattr(fed, "local_train", train)
        cfg = fed_cfg(ratio_set=(0.5, 0.75, 1.0), rounds=1)
        rec = run_round(init_weights(TINY, cfg.master_seed), 0, make_profiles(TINY, 4), cfg)
        assert len(rec.participants) == 4
        expected = []
        for cid, cs in zip(rec.participants, rec.client_specs):
            expected += [("train", cid), ("extract", cs["spec"]), ("trained", cid)]
        assert events == expected

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython keeps call arguments on the caller's stack")
    def test_each_update_is_folded_and_freed_before_the_next_extraction(self, monkeypatch):
        refs, alive, calls = [], [], []
        real_extract, real_train, real_aggregate = (fed.extract_submodel, fed.local_train,
                                                    fed.aggregate)

        def extract(w, spec):
            alive.append([ref() is not None for ref in refs])
            return real_extract(w, spec)

        def train(w, spec, profile):
            trained = real_train(w, spec, profile)
            refs.append(weakref.ref(trained))
            return trained

        def fold(into, updates):
            calls.append(len(updates))
            return real_aggregate(into, updates)

        monkeypatch.setattr(fed, "extract_submodel", extract)
        monkeypatch.setattr(fed, "local_train", train)
        monkeypatch.setattr(fed, "aggregate", fold)
        profiles = make_profiles(TINY, 4)
        profiles[1] = ClientProfile(client_id=1, budget=profiles[1].budget,
                                    shard=profiles[1].shard, local_epochs=2, lr=1e300)
        cfg = fed_cfg(ratio_set=(0.5, 0.75, 1.0), rounds=1)
        with np.errstate(all="ignore"):
            rec = run_round(init_weights(TINY, cfg.master_seed), 0, profiles, cfg)
        assert [d["client_id"] for d in rec.dropped] == [1]
        assert calls == [1, 1, 1]
        assert alive == [[], [False], [False], [False, False]]
        assert all(ref() is None for ref in refs)

    def test_a_round_prioritizes_by_integer_permutations_not_a_copy(self, monkeypatch):
        # the round's global is permuted in place, one tensor-sized
        # temporary at a time
        calls, peaks, matches = [], [], []
        real_prioritize = fed.prioritize_model

        def prioritize(w, **kw):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                calls.append((w, real_prioritize(w, **kw)))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
            # before the round's merge writes into w
            matches.append(all(w[k].tobytes() == want[k].tobytes() for k in w.tensors))

        monkeypatch.setattr(fed, "prioritize_model", prioritize)
        profiles = [ClientProfile(client_id=i, budget=ResourceBudget(10 ** 9),
                                  shard=[tiny_batch(100 + i, cfg=WIDE)], local_epochs=1,
                                  lr=0.1) for i in range(2)]
        cfg = fed_cfg(n_clients=2, ratio_set=(0.5, 1.0), rounds=1)
        w = init_weights(WIDE, cfg.master_seed)
        want = prioritized(w)
        rec = run_round(w, 0, profiles, cfg)
        assert calls == [(w, None)] and isinstance(rec, RoundRecord)
        assert matches == [True]
        assert peaks[0] < 0.5 * w.param_total() * 8

    def test_round_holds_two_model_copies_while_clients_train(self, monkeypatch):
        # outside each local_train, the round holds the global and the sums:
        # no prioritized copy
        profiles = [ClientProfile(client_id=i, budget=ResourceBudget(10 ** 9),
                                  shard=[tiny_batch(100 + i, cfg=WIDE)], local_epochs=1,
                                  lr=0.1) for i in range(2)]
        held = []
        real_train = fed.local_train

        def train(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_train(*args)

        monkeypatch.setattr(fed, "local_train", train)
        cfg = fed_cfg(n_clients=2, ratio_set=(0.5, 1.0), rounds=1)
        tracemalloc.start()
        try:
            w = init_weights(WIDE, cfg.master_seed)
            run_round(w, 0, profiles, cfg)
        finally:
            tracemalloc.stop()
        model_bytes = w.param_total() * 8
        assert len(held) == 2 and max(held) < 2.5 * model_bytes

    def test_evaluation_runs_beside_one_global(self, monkeypatch):
        # the round merges into its global and evaluates that: no previous
        # global is alive during evaluation
        profiles = [ClientProfile(client_id=i, budget=ResourceBudget(10 ** 9),
                                  shard=[tiny_batch(100 + i, cfg=WIDE)], local_epochs=1,
                                  lr=0.1) for i in range(2)]
        evals = tiny_batch(7, n=6, cfg=WIDE)
        seen = []
        real_evaluate = fed.evaluate

        def evaluate(weights, batch):
            seen.append((weights, tracemalloc.get_traced_memory()[0]))
            return real_evaluate(weights, batch)

        monkeypatch.setattr(fed, "evaluate", evaluate)
        cfg = fed_cfg(n_clients=2, ratio_set=(0.5, 1.0), rounds=1, eval_every=1)
        tracemalloc.start()
        try:
            w = init_weights(WIDE, cfg.master_seed)
            rec = run_round(w, 0, profiles, cfg, eval_batch=evals)
        finally:
            tracemalloc.stop()
        assert rec.accuracy is not None and len(seen) == 1
        weights, held = seen[0]
        assert weights is w and held < 1.5 * w.param_total() * 8

    def test_run_round_continues_a_federation(self):
        kw = dict(ratio_set=(0.5, 1.0), participation_rate=0.5, eval_every=1)
        evals = tiny_batch(7, n=6)
        w1, _ = run_federation(fed_cfg(rounds=1, **kw), TINY, make_profiles(TINY, 4),
                               eval_batch=evals)
        cfg = fed_cfg(rounds=2, **kw)
        w2, log = run_federation(cfg, TINY, make_profiles(TINY, 4), eval_batch=evals)
        rec = run_round(w1, 1, make_profiles(TINY, 4), cfg, eval_batch=evals)
        assert w1.tensors.keys() == w2.tensors.keys()
        assert all(w1.tensors[k].tobytes() == w2.tensors[k].tobytes() for k in w1.tensors)
        got, want = asdict(rec), asdict(log[1])
        got.pop("wall_time"), want.pop("wall_time")
        assert got == want and got["round"] == 1 and got["accuracy"] is not None
