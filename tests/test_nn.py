import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice import nn
from fedslice.errors import NumericError, ValidationError
from fedslice.nn import (Batch, Flat, ModelConfig, ModelWeights, attention_scores,
                         backward, evaluate, forward, init_weights, sgd_step,
                         softmax_cross_entropy)
from fedslice.scaling import extract_submodel, prioritize_model, uniform_spec
from fedslice.tensor import RngStream
from test_slice_plan import specs

SMALL = ModelConfig(n_layers=1, d_model=6, n_heads=2, d_k=3, d_v=3, d_ff=8,
                    vocab_size=11, n_classes=3, max_seq=8)


def small_batch(seed=0, n=4, seq=5, cfg=SMALL):
    rng = RngStream(seed, 900)
    return Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (n, seq))),
                 labels=np.asarray(rng.integers(0, cfg.n_classes, n)))


DEEP = ModelConfig(n_layers=4, d_model=32, n_heads=4, d_k=8, d_v=8, d_ff=64,
                   vocab_size=11, n_classes=3, max_seq=16)


def forward_dlogits(w, batch):
    """The cache of a forward pass over the batch and d(loss)/d(logits)."""
    logits, cache = forward(w, batch)
    return cache, softmax_cross_entropy(logits, batch.labels)[1]


def backward_new(cache, dlogits):
    """backward() into the tensors of a new Flat of the cached weights' layout."""
    w = cache.weights
    return backward(cache, dlogits,
                    Flat(w.config, {k: v.shape for k, v in w.tensors.items()}).tensors)


def flat_of(tensors):
    """A Flat holding a copy of the tensors, in their order; its config
    (SMALL) is one that sgd_step does not read."""
    flat = Flat(SMALL, {k: v.shape for k, v in tensors.items()})
    for k, v in tensors.items():
        np.copyto(flat.tensors[k], v)
    return flat


def zero_weights(cfg):
    w = init_weights(cfg, 0)
    return ModelWeights(cfg, {k: np.zeros_like(v) for k, v in w.tensors.items()})


class TestAttentionScores:
    def test_zero_weights_uniform_rows(self):
        x = RngStream(1, 0).uniform(-1, 1, (4, 6))
        scores = attention_scores(np.zeros((6, 3)), np.zeros((6, 3)), x)
        assert np.allclose(scores, 0.25, atol=1e-15)

    def test_single_position(self):
        rng = RngStream(2, 0)
        scores = attention_scores(rng.uniform(-1, 1, (6, 3)),
                                  rng.uniform(-1, 1, (6, 3)),
                                  rng.uniform(-1, 1, (1, 6)))
        assert np.array_equal(scores, [[1.0]])

    def test_matches_direct_oracle(self):
        rng = RngStream(3, 0)
        x = rng.uniform(-1, 1, (5, 6))
        wq = rng.uniform(-1, 1, (6, 3))
        wk = rng.uniform(-1, 1, (6, 3))
        # independently coded softmax(Q K^T / sqrt(d_k))
        logits = (x @ wq) @ (x @ wk).T / np.sqrt(3)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        oracle = e / e.sum(axis=1, keepdims=True)
        assert np.allclose(attention_scores(wq, wk, x), oracle, atol=1e-12)

    def test_rows_stochastic(self):
        rng = RngStream(4, 0)
        scores = attention_scores(rng.uniform(-1, 1, (6, 3)),
                                  rng.uniform(-1, 1, (6, 3)),
                                  rng.uniform(-1, 1, (5, 6)))
        assert np.all(scores >= 0)
        assert np.all(np.abs(scores.sum(axis=1) - 1.0) <= 1e-12)

    def test_bit_equal_to_the_models_attention(self):
        w = init_weights(SMALL, 3)  # biases are zero, as attention_scores assumes
        batch = small_batch(seed=4)
        _, cache = forward(w, batch)
        lc = cache.layers[0]
        a1 = layer_norm_output(w, "layer0.ln1", lc.ln1)
        for h in range(SMALL.n_heads):
            wq, wk = w[f"layer0.head{h}.wq"], w[f"layer0.head{h}.wk"]
            for b in range(len(batch)):
                assert np.array_equal(attention_scores(wq, wk, a1[b]), lc.probs[h][b])


class TestForward:
    def test_zero_weights_uniform_probs_and_loss(self):
        w = zero_weights(SMALL)
        batch = small_batch()
        logits, _ = forward(w, batch)
        assert np.array_equal(logits, np.zeros_like(logits))
        loss, _ = softmax_cross_entropy(logits, batch.labels)
        assert abs(loss - np.log(SMALL.n_classes)) <= 1e-12

    def test_deterministic(self):
        w = init_weights(SMALL, 7)
        batch = small_batch(1)
        a, _ = forward(w, batch)
        b, _ = forward(init_weights(SMALL, 7), batch)
        assert np.array_equal(a, b)

    def test_single_token_sequence(self):
        w = init_weights(SMALL, 7)
        logits, _ = forward(w, Batch(tokens=np.array([[3]]), labels=np.array([0])))
        assert logits.shape == (1, SMALL.n_classes)
        assert np.all(np.isfinite(logits))

    def test_empty_batch(self):
        w = init_weights(SMALL, 7)
        empty = Batch(tokens=np.zeros((0, 5), dtype=np.intp), labels=np.zeros(0, dtype=np.intp))
        logits, _ = forward(w, empty)
        assert logits.shape == (0, SMALL.n_classes)

    def test_invalid_token_rejected(self):
        w = init_weights(SMALL, 7)
        with pytest.raises(ValidationError):
            forward(w, Batch(tokens=np.array([[SMALL.vocab_size]]), labels=np.array([0])))

    def test_too_long_sequence_rejected(self):
        w = init_weights(SMALL, 7)
        tokens = np.zeros((1, SMALL.max_seq + 1), dtype=np.intp)
        with pytest.raises(ValidationError):
            forward(w, Batch(tokens=tokens, labels=np.array([0])))


class TestLoss:
    @pytest.mark.parametrize("label", [-1, SMALL.n_classes])
    def test_label_out_of_class_range_rejected(self, label):
        logits = init_weights(SMALL, 7)["cls.b"][None, :]
        with pytest.raises(ValidationError, match="class ids"):
            softmax_cross_entropy(logits, np.array([label]))


class TestBackward:
    def test_matches_finite_differences_spot_check(self):
        w = init_weights(SMALL, 5)
        batch = small_batch(2)
        grads = backward_new(*forward_dlogits(w, batch))
        eps = 1e-5
        for name in ("layer0.head0.wq", "layer0.w1", "cls.w", "layer0.ln2.scale"):
            arr = w.tensors[name]
            flat = arr.reshape(-1)
            for j in range(0, flat.size, max(1, flat.size // 6)):
                orig = flat[j]
                flat[j] = orig + eps
                lp, _ = softmax_cross_entropy(forward(w, batch)[0], batch.labels)
                flat[j] = orig - eps
                lm, _ = softmax_cross_entropy(forward(w, batch)[0], batch.labels)
                flat[j] = orig
                fd = (lp - lm) / (2 * eps)
                g = grads[name].reshape(-1)[j]
                assert abs(g - fd) <= 1e-6 * max(1.0, abs(g), abs(fd))

    def test_near_zero_gradient_at_saturated_minimum(self):
        # push the correct-class logit far above the rest via the class bias
        w = zero_weights(SMALL)
        w.tensors["cls.b"][0] = 50.0
        batch = Batch(tokens=np.array([[1, 2, 3]]), labels=np.array([0]))
        grads = backward_new(*forward_dlogits(w, batch))
        total = sum(float(np.abs(g).sum()) for g in grads.values())
        assert total <= 1e-12

    def test_unused_vocab_rows_get_exact_zero_gradient(self):
        w = init_weights(SMALL, 5)
        batch = Batch(tokens=np.array([[1, 2, 3, 1]]), labels=np.array([0]))
        grads = backward_new(*forward_dlogits(w, batch))
        used = {1, 2, 3}
        for tok in range(SMALL.vocab_size):
            if tok not in used:
                assert np.array_equal(grads["embed"][tok], np.zeros(SMALL.d_model))

    def test_gradients_follow_tensor_order(self):
        w = extract_submodel(init_weights(SMALL, 5), uniform_spec(SMALL, 0.5))
        batch = small_batch(3)
        grads = backward_new(*forward_dlogits(w, batch))
        assert list(grads) == list(w.tensors)
        assert all(grads[k].shape == v.shape for k, v in w.tensors.items())

    def test_reused_buffer_equals_fresh_backward(self):
        # every slot is overwritten, the embedding's included: neither the
        # NaN prefill nor batch A's gradients leak into batch B's
        w = init_weights(SMALL, 5)
        grads = Flat(SMALL, {k: v.shape for k, v in w.tensors.items()})
        grads.vector.fill(np.nan)
        backward(*forward_dlogits(w, small_batch(1)), grads.tensors)
        b = Batch(tokens=np.array([[1, 2, 1], [2, 1, 2]]), labels=np.array([0, 2]))
        got = backward(*forward_dlogits(w, b), grads.tensors)
        want = backward_new(*forward_dlogits(w, b))
        assert got is grads.tensors and np.isfinite(grads.vector).all()
        assert list(got) == list(want)
        for name, g in want.items():
            assert got[name].tobytes() == g.tobytes(), name

    def test_mismatched_cache_rejected(self):
        cache, dlogits = forward_dlogits(init_weights(SMALL, 5), small_batch(3))
        for wrong in (dlogits[:-1], dlogits[:, :-1], dlogits.T, dlogits.ravel()):
            with pytest.raises(ValidationError, match="dlogits has shape"):
                backward_new(cache, wrong)

    def test_one_einsum_per_weight_gradient_group(self, monkeypatch):
        # per layer: w2, w1, wo, and one for every head's wq/wk/wv
        w = extract_submodel(prioritize_model(init_weights(DEEP, 4)), uniform_spec(DEEP, 0.5))
        cache, dlogits = forward_dlogits(w, small_batch(4, cfg=DEEP))
        calls = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(nn.np, "einsum", counting)
        backward_new(cache, dlogits)
        assert len(calls) == 4 * DEEP.n_layers


def layer_norm_output(w, prefix, ln_cache):
    """A layer norm's output from its cached (xhat, inv_std), as the forward
    computed it."""
    return w[f"{prefix}.scale"] * ln_cache[0] + w[f"{prefix}.shift"]


def per_head_backward(cache, dlogits):
    """backward() with one weight-gradient einsum per wq/wk/wv tensor, as
    it was written before they were fused into one einsum per layer."""
    w = cache.weights
    grads = dict.fromkeys(w.tensors)
    grads["cls.w"] = cache.pooled.T @ dlogits
    grads["cls.b"] = dlogits.sum(axis=0)
    dpooled = dlogits @ w["cls.w"].T
    seq_len = cache.batch.tokens.shape[1]
    dx = np.repeat(dpooled[:, None, :], seq_len, axis=1) / seq_len
    for i in reversed(range(w.config.n_layers)):
        lc = cache.layers[i]
        a1 = layer_norm_output(w, f"layer{i}.ln1", lc.ln1)
        a2 = layer_norm_output(w, f"layer{i}.ln2", lc.ln2)
        grads[f"layer{i}.b2"] = dx.sum(axis=(0, 1))
        grads[f"layer{i}.w2"] = np.einsum("blf,bld->fd", lc.relu, dx)
        dh1 = (dx @ w[f"layer{i}.w2"].T) * (lc.relu > 0)
        grads[f"layer{i}.w1"] = np.einsum("bld,blf->df", a2, dh1)
        grads[f"layer{i}.b1"] = dh1.sum(axis=(0, 1))
        dx2_ln, grads[f"layer{i}.ln2.scale"], grads[f"layer{i}.ln2.shift"] = \
            nn._layer_norm_backward(dh1 @ w[f"layer{i}.w1"].T, w[f"layer{i}.ln2.scale"], lc.ln2)
        dx2 = dx + dx2_ln
        grads[f"layer{i}.bo"] = dx2.sum(axis=(0, 1))
        grads[f"layer{i}.wo"] = np.einsum("blc,bld->cd", lc.o_cat, dx2)
        do_cat = dx2 @ w[f"layer{i}.wo"].T
        da1 = np.zeros_like(a1)
        offset = 0
        for h in range(w.config.n_heads):
            p = f"layer{i}.head{h}"
            dv_h = lc.v[h].shape[-1]
            do_h = do_cat[..., offset:offset + dv_h]
            offset += dv_h
            probs = lc.probs[h]
            dprobs = do_h @ lc.v[h].transpose(0, 2, 1)
            dv = probs.transpose(0, 2, 1) @ do_h
            dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
            dscores /= np.sqrt(lc.q[h].shape[-1])
            dq = dscores @ lc.k[h]
            dk = dscores.transpose(0, 2, 1) @ lc.q[h]
            grads[f"{p}.wq"] = np.einsum("bld,blk->dk", a1, dq)
            grads[f"{p}.bq"] = dq.sum(axis=(0, 1))
            grads[f"{p}.wk"] = np.einsum("bld,blk->dk", a1, dk)
            grads[f"{p}.bk"] = dk.sum(axis=(0, 1))
            grads[f"{p}.wv"] = np.einsum("bld,blk->dk", a1, dv)
            grads[f"{p}.bv"] = dv.sum(axis=(0, 1))
            da1 += dq @ w[f"{p}.wq"].T + dk @ w[f"{p}.wk"].T + dv @ w[f"{p}.wv"].T
        dx_ln, grads[f"layer{i}.ln1.scale"], grads[f"layer{i}.ln1.shift"] = \
            nn._layer_norm_backward(da1, w[f"layer{i}.ln1.scale"], lc.ln1)
        dx = dx2 + dx_ln
    grads["embed"] = np.zeros_like(w["embed"])
    np.add.at(grads["embed"], cache.batch.tokens, dx)
    return grads


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_backward_bit_equal_to_per_head_oracle(data):
    cfg = ModelConfig(n_layers=data.draw(st.integers(1, 2)), d_model=data.draw(st.integers(1, 24)),
                      n_heads=data.draw(st.integers(1, 4)), d_k=data.draw(st.integers(1, 9)),
                      d_v=data.draw(st.integers(1, 9)), d_ff=data.draw(st.integers(1, 12)),
                      vocab_size=5, n_classes=data.draw(st.integers(1, 4)), max_seq=9)
    spec = data.draw(specs(cfg))  # head widths down to 1
    w = extract_submodel(prioritize_model(init_weights(cfg, data.draw(st.integers(0, 99)))), spec)
    batch = small_batch(data.draw(st.integers(0, 99)), n=data.draw(st.integers(1, 20)),
                        seq=data.draw(st.integers(1, cfg.max_seq)), cfg=cfg)
    cache, dlogits = forward_dlogits(w, batch)
    got = backward_new(cache, dlogits)
    want = per_head_backward(cache, dlogits)
    assert list(got) == list(want)
    for name, g in want.items():
        assert got[name].shape == g.shape and got[name].tobytes() == g.tobytes(), name


class TestSgdStep:
    def test_lr_zero_is_identity(self):
        w = init_weights(SMALL, 5)
        params = flat_of(w.tensors)
        sgd_step(params, flat_of({k: np.ones_like(v) for k, v in w.tensors.items()}), 0.0)
        assert all(np.array_equal(w.tensors[k], params.tensors[k]) for k in w.tensors)

    def test_scalar_case(self):
        params = flat_of({"x": np.array([[1.0]])})
        sgd_step(params, flat_of({"x": np.array([[1.0]])}), 0.5)
        assert params.tensors["x"][0, 0] == 0.5

    def test_two_steps_equal_summed_displacement(self):
        w = init_weights(SMALL, 5)
        twice, once = flat_of(w.tensors), flat_of(w.tensors)
        for _ in range(2):  # the step scales its gradients in place, so each gets its own
            sgd_step(twice, flat_of({k: np.full_like(v, 0.25) for k, v in w.tensors.items()}),
                     0.1)
        sgd_step(once, flat_of({k: np.full_like(v, 0.5) for k, v in w.tensors.items()}), 0.1)
        assert np.allclose(twice.vector, once.vector, atol=1e-15)

    def test_non_finite_gradient_refused(self):
        # an inf in a middle tensor and a NaN in the last: the error names
        # the first of them in tensor order, and neither vector moves
        w = init_weights(SMALL, 5)
        params = flat_of(w.tensors)
        grads = flat_of(backward_new(*forward_dlogits(w, small_batch(1))))
        names = list(w.tensors)
        middle = names[len(names) // 2]
        grads.tensors[middle].flat[-1] = np.inf
        grads.tensors[names[-1]].flat[0] = np.nan
        params_before, grads_before = params.vector.tobytes(), grads.vector.tobytes()
        with pytest.raises(NumericError) as exc:
            sgd_step(params, grads, 0.1)
        assert str(exc.value) == f"non-finite gradient in {middle}; step refused"
        assert params.vector.tobytes() == params_before
        assert grads.vector.tobytes() == grads_before


class TestEvaluate:
    def test_perfect_prediction(self):
        w = zero_weights(SMALL)
        w.tensors["cls.b"][2] = 10.0
        batch = Batch(tokens=np.array([[1, 2], [3, 4]]), labels=np.array([2, 2]))
        acc, loss = evaluate(w, batch)
        assert acc == 1.0 and loss >= 0

    def test_random_weights_near_chance(self):
        cfg = ModelConfig(1, 8, 2, 4, 4, 8, 6, 4, 12)
        w = init_weights(cfg, 123)
        rng = RngStream(9, 1)
        n = 600
        tokens = np.asarray(rng.integers(0, cfg.vocab_size, (n, 6)))
        labels = np.asarray(rng.integers(0, cfg.n_classes, n))
        acc, _ = evaluate(w, Batch(tokens=tokens, labels=labels))
        assert abs(acc - 0.25) <= 0.1

    def test_zero_weights_loss_is_log_classes(self):
        w = zero_weights(SMALL)
        _, loss = evaluate(w, small_batch(4))
        assert abs(loss - np.log(SMALL.n_classes)) <= 1e-12

    def test_empty_set_rejected(self):
        empty = Batch(tokens=np.zeros((0, 5), dtype=np.intp), labels=np.zeros(0, dtype=np.intp))
        with pytest.raises(ValidationError, match="evaluation batch is empty"):
            evaluate(init_weights(SMALL, 1), empty)


def two_cores(monkeypatch):
    """Make evaluate see two usable cores whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def two_chunk_batch(bad_token):
    """A SMALL batch of 8 samples x 4 positions, two chunks at _EVAL_ROWS 16,
    whose second chunk (a worker's with two threads) holds `bad_token`."""
    batch = small_batch(4, n=8, seq=4)
    tokens = np.minimum(batch.tokens, SMALL.vocab_size - 2)
    tokens[6, 1] = bad_token
    return Batch(tokens=tokens, labels=batch.labels)


class TestChunkedEvaluate:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), seq=st.integers(1, 9), rows=st.integers(1, 64),
           cores=st.integers(1, 4))
    def test_chunks_are_near_equal_and_cover_the_batch(self, n, seq, rows, cores):
        batch = small_batch(0, n=n, seq=seq)
        with mock.patch.object(nn, "_EVAL_ROWS", rows), \
                mock.patch.object(nn, "_cores", lambda: cores):
            chunks = nn._eval_chunks(batch.tokens)
        sizes = [len(c) for c in chunks]
        assert np.array_equal(np.concatenate(chunks), batch.tokens)
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert (len(chunks) == 1) == (n * seq <= rows or n == 1)
        # as many chunks per thread, unless there is one chunk per row
        assert len(chunks) == 1 or len(chunks) % cores == 0 or len(chunks) == n
        assert len(chunks) <= max(1, cores * math.ceil(math.ceil(n * seq / rows) / cores))

    def test_an_eval_set_of_seven_chunks_splits_into_eight_on_two_cores(self, monkeypatch):
        two_cores(monkeypatch)
        tokens = np.zeros((240, 29), dtype=np.intp)  # 6,960 positions: 7 chunks of _EVAL_ROWS
        assert [len(c) for c in nn._eval_chunks(tokens)] == [30] * 8

    def test_overflow_in_a_worker_chunk_raises_in_caller(self, monkeypatch):
        two_cores(monkeypatch)
        monkeypatch.setattr(nn, "_EVAL_ROWS", 16)
        w = init_weights(SMALL, 3)
        overflowing = SMALL.vocab_size - 1
        w.tensors["embed"][overflowing] = 1e200 * (-1.0) ** np.arange(SMALL.d_model)
        batch = two_chunk_batch(overflowing)
        with np.errstate(all="raise"):
            evaluate(w, Batch(tokens=batch.tokens[:4], labels=batch.labels[:4]))
            with pytest.raises(FloatingPointError):
                evaluate(w, batch)

    def test_worker_validation_error_reaches_caller(self, monkeypatch):
        two_cores(monkeypatch)
        monkeypatch.setattr(nn, "_EVAL_ROWS", 16)
        with pytest.raises(ValidationError, match="vocabulary"):
            evaluate(init_weights(SMALL, 3), two_chunk_batch(SMALL.vocab_size))

    def test_threads_are_joined_and_one_chunk_starts_none(self, monkeypatch):
        two_cores(monkeypatch)
        monkeypatch.setattr(nn, "_EVAL_ROWS", 16)
        w = init_weights(SMALL, 3)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: (started.append(t), start(t)))
        before = threading.active_count()
        evaluate(w, small_batch(4, n=3, seq=4))  # 12 positions: one chunk
        assert started == []
        evaluate(w, two_chunk_batch(0))
        assert len(started) == 1 and threading.active_count() == before

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(nn, "_EVAL_ROWS", 4)
        w = init_weights(SMALL, 3)
        batch = small_batch(0, n=60, seq=4)  # 60 one-sample chunks
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = evaluate(w, batch)
        finally:
            sys.setswitchinterval(interval)
        assert got == cached_evaluate(w, batch)


def cached_evaluate(w, batch):
    """evaluate() spelled out over a forward pass that keeps its cache."""
    logits, _ = forward(w, batch)
    loss, _ = softmax_cross_entropy(logits, batch.labels)
    return int((logits.argmax(axis=1) == batch.labels).sum()) / len(batch), loss


def cache_test_models():
    """SMALL's full model and a prioritized half-width sub-model of DEEP."""
    w = init_weights(DEEP, 8)
    spec = uniform_spec(DEEP, 0.5)
    return {"small": init_weights(SMALL, 2),
            "deep-submodel": extract_submodel(prioritize_model(w), spec)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chunked_evaluate_bit_equal_to_cached_evaluate(data):
    # d_model up to 160 and sequences up to 32: BLAS and summation kernels
    # that a tiny model never reaches
    cfg = ModelConfig(n_layers=data.draw(st.integers(1, 2)), d_model=data.draw(st.integers(1, 160)),
                      n_heads=data.draw(st.integers(1, 4)), d_k=data.draw(st.integers(1, 20)),
                      d_v=data.draw(st.integers(1, 20)), d_ff=data.draw(st.integers(1, 40)),
                      vocab_size=5, n_classes=data.draw(st.integers(1, 9)), max_seq=32)
    w = init_weights(cfg, data.draw(st.integers(0, 99)))
    if data.draw(st.booleans()):
        w = extract_submodel(prioritize_model(w), data.draw(specs(cfg)))
    batch = small_batch(data.draw(st.integers(0, 99)), n=data.draw(st.integers(1, 40)),
                        seq=data.draw(st.integers(1, cfg.max_seq)), cfg=cfg)
    rows = data.draw(st.integers(1, 200))  # up to 40 chunks, uneven ones included
    cores = data.draw(st.integers(1, 3))
    with mock.patch.object(nn, "_EVAL_ROWS", rows), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cores)), create=True), \
            mock.patch.object(nn, "softmax_cross_entropy", wraps=softmax_cross_entropy) as loss:
        got = evaluate(w, batch)
    assert got == cached_evaluate(w, batch)
    # the scored logits too, where an ulp that the mean loss absorbs shows
    (call,) = loss.call_args_list
    assert call.args[0].tobytes() == forward(w, batch)[0].tobytes()


class TestCacheFreeForward:
    @pytest.mark.parametrize("name", ["small", "deep-submodel"])
    def test_evaluate_bit_equal_to_cached_evaluation(self, name):
        w = cache_test_models()[name]
        for s, n in ((1, 9), (2, 4)):
            batch = small_batch(s, n=n, seq=6, cfg=w.config)
            assert evaluate(w, batch) == cached_evaluate(w, batch)

    def test_evaluate_peak_is_under_half_of_cached_forward(self):
        w = init_weights(DEEP, 3)
        batch = small_batch(5, n=64, seq=16, cfg=DEEP)
        tracemalloc.start()
        try:
            evaluate(w, batch)
            _, eval_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            kept = forward(w, batch)
            _, cached_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept[1] is not None
        assert eval_peak < cached_peak / 2
