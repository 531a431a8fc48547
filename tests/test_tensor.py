import numpy as np
import pytest

from fedslice.errors import ShapeError, ValidationError
from fedslice.tensor import RngStream, check_permutation, matmul, softmax_rows


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), a), a)
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_hand_computed(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert np.array_equal(out, np.array([[11.0]]))

    def test_zero_matrix(self):
        z = np.zeros((2, 3))
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(matmul(z, b), np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))


class TestSoftmaxRows:
    def test_uniform_for_equal_logits(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1 - 1e-12 and out[0, 1] < 1e-12

    def test_analytic_value(self):
        out = softmax_rows(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros((0, 3)))

    def test_rows_sum_to_one_over_wide_magnitudes(self):
        rng = RngStream(3, 17)
        for _ in range(20):
            a = rng.uniform(-1e6, 1e6, (5, 7))
            sums = softmax_rows(a).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)


class TestPermutation:
    def test_non_bijective_rejected(self):
        with pytest.raises(ValidationError):
            check_permutation([0, 0, 1], 3)


class TestRngStream:
    def test_equal_keys_reproduce_draws(self):
        a = RngStream(42, 7).random(10_000)
        b = RngStream(42, 7).random(10_000)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(42, 7).random(100)
        b = RngStream(42, 8).random(100)
        assert not np.array_equal(a, b)
