"""Seeded, splittable random streams and the permutation check.

Every randomized stage of a run draws from its own named Philox stream, so
results depend only on the seed, never on the order of the work.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1


def check_permutation(p, n: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.intp)
    if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
        raise ValidationError(f"not a permutation of [0, {n}): {p.tolist()}")
    return p


class RngStream:
    """Counter-based (Philox) random stream keyed by (seed, stream_id).

    Equal (seed, stream_id) pairs reproduce the same draw sequence on any
    platform; distinct stream ids are statistically independent, so every
    randomized stage of a run owns a named stream and results do not depend
    on execution order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.gen = np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self.gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        return self.gen.integers(low, high, size=size)

    def random(self, size=None):
        return self.gen.random(size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self.gen.choice(n, size=size, replace=replace)

    def dirichlet(self, alpha: np.ndarray) -> np.ndarray:
        return self.gen.dirichlet(alpha)
