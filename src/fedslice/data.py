"""Synthetic sequence-classification tasks and Dirichlet non-IID partitioning.

Labels are pure functions of the token sequence so an oracle pass can
always re-derive them; the three task kinds are graded in difficulty so
quality comparisons between training regimes have headroom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_types
from .nn import Batch
from .tensor import RngStream

TASK_KINDS = ("majority-token", "parity-of-sum", "keyed-lookup")

_STREAM_TOKENS = 1
_STREAM_PARTITION = 2


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    vocab_size: int
    seq_len: int
    n_classes: int
    n_samples: int
    seed: int

    def __post_init__(self):
        check_types(self, "task")
        if self.kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind {self.kind!r}")
        if self.seq_len < 1 or self.vocab_size < 1 or self.n_samples < 1:
            raise ValidationError("seq_len, vocab_size and n_samples must be >= 1")
        if self.kind == "parity-of-sum" and self.n_classes != 2:
            raise ValidationError("parity-of-sum requires n_classes == 2")
        if self.kind == "keyed-lookup" and self.seq_len < 2:
            raise ValidationError("keyed-lookup requires seq_len >= 2")
        if self.n_classes < 2:
            raise ValidationError("n_classes must be >= 2")


def label_tokens(tokens: np.ndarray, task: TaskSpec) -> np.ndarray:
    """Apply the task rule to each row of token ids."""
    tokens = np.asarray(tokens)
    if task.kind == "majority-token":
        # most frequent token id, ties to the smaller id, then mod n_classes:
        # in each sorted row the end of the first longest run of equal ids
        ids = np.sort(tokens, axis=1)
        pos = np.arange(ids.shape[1])
        run_start = np.where(ids != np.roll(ids, 1, axis=1), pos, 0)
        run_len = pos + 1 - np.maximum.accumulate(run_start, axis=1)
        return ids[np.arange(ids.shape[0]), run_len.argmax(axis=1)] % task.n_classes
    if task.kind == "parity-of-sum":
        return tokens.sum(axis=1) % 2
    # keyed-lookup: the first token picks a position; the label is the token there
    pos = tokens[:, 0] % (task.seq_len - 1) + 1
    return tokens[np.arange(tokens.shape[0]), pos] % task.n_classes


def generate(task: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (tokens, labels) arrays for the task."""
    rng = RngStream(task.seed, _STREAM_TOKENS)
    tokens = rng.integers(0, task.vocab_size, size=(task.n_samples, task.seq_len))
    tokens = np.asarray(tokens, dtype=np.intp)
    return tokens, label_tokens(tokens, task)


@dataclass(frozen=True)
class PartitionSpec:
    n_clients: int
    dirichlet_alpha: float
    seed: int

    def __post_init__(self):
        check_types(self, "partition")
        if self.dirichlet_alpha <= 0:
            raise ValidationError("dirichlet_alpha must be > 0")
        if self.n_clients < 1:
            raise ValidationError("n_clients must be >= 1")


def dirichlet_partition(labels: np.ndarray, part: PartitionSpec) -> list[list[int]]:
    """Split sample indices across clients with Dirichlet(alpha) per-class
    proportions; always disjoint, exhaustive, and free of empty shards."""
    labels = np.asarray(labels)
    n = len(labels)
    if part.n_clients > n:
        raise ValidationError(f"{part.n_clients} clients for only {n} samples")

    rng = RngStream(part.seed, _STREAM_PARTITION)
    shards: list[list[int]] = [[] for _ in range(part.n_clients)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        props = rng.dirichlet(np.full(part.n_clients, part.dirichlet_alpha))
        cuts = (np.cumsum(props) * len(idx)).astype(np.intp)[:-1]
        for client, chunk in enumerate(np.split(idx, cuts)):
            shards[client].extend(int(i) for i in chunk)

    # repair: move one sample from the largest shard into any empty one
    for client in range(part.n_clients):
        while not shards[client]:
            donor = max(range(part.n_clients), key=lambda c: len(shards[c]))
            if len(shards[donor]) <= 1:
                raise ValidationError("cannot repair empty shard: too few samples")
            shards[client].append(shards[donor].pop())
    return shards


def batches_from_indices(tokens: np.ndarray, labels: np.ndarray,
                         indices, batch_size: int) -> list[Batch]:
    """Fixed-order mini-batches over the given sample indices."""
    indices = np.asarray(sorted(indices), dtype=np.intp)
    out = []
    for start in range(0, len(indices), batch_size):
        chunk = indices[start:start + batch_size]
        out.append(Batch(tokens=tokens[chunk], labels=labels[chunk]))
    return out
