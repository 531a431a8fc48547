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


class RngStream(np.random.Generator):
    """Counter-based (Philox) random stream keyed by (seed, stream_id).

    Equal (seed, stream_id) pairs reproduce the same draw sequence on any
    platform; distinct stream ids are statistically independent, so every
    randomized stage of a run owns a named stream and results do not depend
    on execution order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        key = np.array([int(seed) & _MASK64, int(stream_id) & _MASK64], dtype=np.uint64)
        super().__init__(np.random.Philox(key=key))
