import tracemalloc

import numpy as np
import pytest

from fedslice.errors import NumericError, ValidationError
from fedslice.nn import (Batch, ModelConfig, ModelWeights, attention_scores,
                         backward, evaluate, forward, init_weights, sgd_step,
                         softmax_cross_entropy)
from fedslice.scaling import extract_submodel, prioritize_model, uniform_spec
from fedslice.tensor import RngStream

SMALL = ModelConfig(n_layers=1, d_model=6, n_heads=2, d_k=3, d_v=3, d_ff=8,
                    vocab_size=11, n_classes=3, max_seq=8)


def small_batch(seed=0, n=4, seq=5, cfg=SMALL):
    rng = RngStream(seed, 900)
    return Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (n, seq))),
                 labels=np.asarray(rng.integers(0, cfg.n_classes, n)))


DEEP = ModelConfig(n_layers=4, d_model=32, n_heads=4, d_k=8, d_v=8, d_ff=64,
                   vocab_size=11, n_classes=3, max_seq=16)


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
        for h in range(SMALL.n_heads):
            wq, wk = w[f"layer0.head{h}.wq"], w[f"layer0.head{h}.wk"]
            for b in range(len(batch)):
                assert np.array_equal(attention_scores(wq, wk, lc.a1[b]), lc.probs[h][b])


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

    def test_invalid_token_rejected(self):
        w = init_weights(SMALL, 7)
        with pytest.raises(ValidationError):
            forward(w, Batch(tokens=np.array([[SMALL.vocab_size]]), labels=np.array([0])))

    def test_too_long_sequence_rejected(self):
        w = init_weights(SMALL, 7)
        tokens = np.zeros((1, SMALL.max_seq + 1), dtype=np.intp)
        with pytest.raises(ValidationError):
            forward(w, Batch(tokens=tokens, labels=np.array([0])))


class TestBackward:
    def test_matches_finite_differences_spot_check(self):
        w = init_weights(SMALL, 5)
        batch = small_batch(2)
        _, cache = forward(w, batch)
        grads = backward(w, cache, batch.labels)
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
        _, cache = forward(w, batch)
        grads = backward(w, cache, batch.labels)
        total = sum(float(np.abs(g).sum()) for g in grads.values())
        assert total <= 1e-12

    def test_unused_vocab_rows_get_exact_zero_gradient(self):
        w = init_weights(SMALL, 5)
        batch = Batch(tokens=np.array([[1, 2, 3, 1]]), labels=np.array([0]))
        _, cache = forward(w, batch)
        grads = backward(w, cache, batch.labels)
        used = {1, 2, 3}
        for tok in range(SMALL.vocab_size):
            if tok not in used:
                assert np.array_equal(grads["embed"][tok], np.zeros(SMALL.d_model))

    def test_gradients_follow_tensor_order(self):
        w = extract_submodel(init_weights(SMALL, 5), uniform_spec(SMALL, 0.5))
        batch = small_batch(3)
        grads = backward(w, forward(w, batch)[1], batch.labels)
        assert list(grads) == list(w.tensors)
        assert all(grads[k].shape == v.shape for k, v in w.tensors.items())

    def test_cache_free_result_rejected(self):
        w = init_weights(SMALL, 5)
        batch = small_batch(3)
        _, cache = forward(w, batch, keep_cache=False)
        assert cache is None
        with pytest.raises(ValidationError):
            backward(w, cache, batch.labels)

    def test_mismatched_cache_rejected(self):
        w = init_weights(SMALL, 5)
        batch = small_batch(3)
        _, cache = forward(w, batch)
        other = init_weights(SMALL, 6)
        with pytest.raises(ValidationError):
            backward(other, cache, batch.labels)
        with pytest.raises(ValidationError):
            backward(w, cache, batch.labels[:-1])


class TestSgdStep:
    def test_lr_zero_is_identity(self):
        w = init_weights(SMALL, 5)
        g = {k: np.ones_like(v) for k, v in w.tensors.items()}
        w2 = sgd_step(w, g, 0.0)
        assert all(np.array_equal(w.tensors[k], w2.tensors[k]) for k in w.tensors)

    def test_scalar_case(self):
        w = ModelWeights(SMALL, {"x": np.array([[1.0]])})
        w2 = sgd_step(w, {"x": np.array([[1.0]])}, 0.5)
        assert w2.tensors["x"][0, 0] == 0.5

    def test_two_steps_equal_summed_displacement(self):
        w = init_weights(SMALL, 5)
        g = {k: np.full_like(v, 0.25) for k, v in w.tensors.items()}
        twice = sgd_step(sgd_step(w, g, 0.1), g, 0.1)
        g2 = {k: 2 * v for k, v in g.items()}
        once = sgd_step(w, g2, 0.1)
        assert all(np.allclose(twice.tensors[k], once.tensors[k], atol=1e-15)
                   for k in w.tensors)

    def test_non_finite_gradient_refused(self):
        w = init_weights(SMALL, 5)
        g = {k: np.zeros_like(v) for k, v in w.tensors.items()}
        g["cls.b"][0] = np.inf
        with pytest.raises(NumericError):
            sgd_step(w, g, 0.1)


class TestEvaluate:
    def test_perfect_prediction(self):
        w = zero_weights(SMALL)
        w.tensors["cls.b"][2] = 10.0
        batch = Batch(tokens=np.array([[1, 2], [3, 4]]), labels=np.array([2, 2]))
        acc, loss = evaluate(w, [batch])
        assert acc == 1.0 and loss >= 0

    def test_random_weights_near_chance(self):
        cfg = ModelConfig(1, 8, 2, 4, 4, 8, 6, 4, 12)
        w = init_weights(cfg, 123)
        rng = RngStream(9, 1)
        n = 600
        tokens = np.asarray(rng.integers(0, cfg.vocab_size, (n, 6)))
        labels = np.asarray(rng.integers(0, cfg.n_classes, n))
        acc, _ = evaluate(w, [Batch(tokens=tokens, labels=labels)])
        assert abs(acc - 0.25) <= 0.1

    def test_zero_weights_loss_is_log_classes(self):
        w = zero_weights(SMALL)
        _, loss = evaluate(w, [small_batch(4)])
        assert abs(loss - np.log(SMALL.n_classes)) <= 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(init_weights(SMALL, 1), [])


def cached_evaluate(w, batches):
    """evaluate() spelled out over forward passes that keep their cache."""
    correct = total = 0
    loss_sum = 0.0
    for b in batches:
        logits, _ = forward(w, b)
        loss, _ = softmax_cross_entropy(logits, b.labels)
        loss_sum += loss * len(b)
        correct += int((logits.argmax(axis=1) == b.labels).sum())
        total += len(b)
    return correct / total, loss_sum / total


def cache_test_models():
    """SMALL's full model and a prioritized half-width sub-model of DEEP."""
    w = init_weights(DEEP, 8)
    spec = uniform_spec(DEEP, 0.5)
    return {"small": init_weights(SMALL, 2),
            "deep-submodel": extract_submodel(prioritize_model(w)[0], spec)}


class TestCacheFreeForward:
    @pytest.mark.parametrize("name", ["small", "deep-submodel"])
    def test_logits_bit_equal_to_cached_forward(self, name):
        w = cache_test_models()[name]
        batch = small_batch(6, n=7, seq=5, cfg=w.config)
        cached, _ = forward(w, batch)
        free, _ = forward(w, batch, keep_cache=False)
        assert cached.tobytes() == free.tobytes()

    @pytest.mark.parametrize("name", ["small", "deep-submodel"])
    def test_evaluate_bit_equal_to_cached_evaluation(self, name):
        w = cache_test_models()[name]
        batches = [small_batch(s, n=n, seq=6, cfg=w.config) for s, n in ((1, 9), (2, 4))]
        assert evaluate(w, batches) == cached_evaluate(w, batches)

    def test_evaluate_peak_is_under_half_of_cached_forward(self):
        w = init_weights(DEEP, 3)
        batch = small_batch(5, n=64, seq=16, cfg=DEEP)
        tracemalloc.start()
        try:
            evaluate(w, [batch])
            _, eval_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            kept = forward(w, batch)
            _, cached_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept[1] is not None
        assert eval_peak < cached_peak / 2
