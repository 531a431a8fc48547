import numpy as np
import pytest

from fedslice.errors import ValidationError
from fedslice.nn import _softmax
from fedslice.tensor import RngStream, check_permutation


class TestSoftmaxRows:
    """The model's one softmax, over the last axis."""

    def test_uniform_for_equal_logits(self):
        out = _softmax(np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = _softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 1 - 1e-12 and out[0, 1] < 1e-12

    def test_analytic_value(self):
        out = _softmax(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_rows_sum_to_one_over_wide_magnitudes(self):
        rng = RngStream(3, 17)
        for _ in range(20):
            a = rng.uniform(-1e6, 1e6, (5, 7))
            sums = _softmax(a).sum(axis=1)
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
