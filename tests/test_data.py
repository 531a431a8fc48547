import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice.data import (PartitionSpec, TaskSpec, batches_from_indices,
                           dirichlet_partition, generate, label_tokens)
from fedslice.errors import ValidationError


def task(kind="majority-token", **kw):
    base = dict(kind=kind, vocab_size=6, seq_len=5, n_classes=4,
                n_samples=100, seed=3)
    if kind == "parity-of-sum":
        base["n_classes"] = 2
    base.update(kw)
    return TaskSpec(**base)


class TestLabelRules:
    def test_majority_token(self):
        t = task(seq_len=3)
        labels = label_tokens(np.array([[3, 3, 1]]), t)
        assert labels.tolist() == [3]

    def test_majority_tie_goes_to_smaller_id(self):
        t = task(seq_len=4)
        assert label_tokens(np.array([[5, 2, 5, 2]]), t).tolist() == [2 % 4]

    def test_majority_wraps_mod_classes(self):
        t = task(seq_len=3, vocab_size=6, n_classes=4)
        assert label_tokens(np.array([[5, 5, 1]]), t).tolist() == [5 % 4]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_majority_equals_counting_rule(self, data):
        vocab, n_classes = data.draw(st.integers(1, 9)), data.draw(st.integers(2, 5))
        n, seq_len = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        tokens = np.array(data.draw(st.lists(st.integers(0, vocab - 1),
                                             min_size=n * seq_len, max_size=n * seq_len)),
                          dtype=np.intp).reshape(n, seq_len)
        # the counting rule: a (sample, token id) count matrix, first maximum wins
        counts = np.zeros((n, vocab), dtype=np.int64)
        for j in range(seq_len):
            counts[np.arange(n), tokens[:, j]] += 1
        t = task(vocab_size=vocab, seq_len=seq_len, n_classes=n_classes, n_samples=n)
        assert label_tokens(tokens, t).tolist() == (counts.argmax(axis=1) % n_classes).tolist()

    def test_majority_needs_no_vocab_sized_array(self):
        # a (1000, 10**16) count matrix cannot be allocated
        t = task(vocab_size=10 ** 16, n_samples=1000)
        tokens, labels = generate(t)
        want = []
        for row in tokens:
            ids, counts = np.unique(row, return_counts=True)  # ids ascending
            want.append(int(ids[counts.argmax()]) % t.n_classes)
        assert labels.tolist() == want

    def test_parity_of_sum(self):
        t = task("parity-of-sum", seq_len=3)
        assert label_tokens(np.array([[1, 2, 3]]), t).tolist() == [0]
        assert label_tokens(np.array([[1, 2, 4]]), t).tolist() == [1]

    def test_keyed_lookup_is_pure_function_of_tokens(self):
        t = task("keyed-lookup")
        tokens, labels = generate(t)
        # oracle pass: re-derive each label with plain python
        for row, lab in zip(tokens, labels):
            pos = row[0] % (t.seq_len - 1) + 1
            assert row[pos] % t.n_classes == lab


class TestGenerate:
    def test_deterministic_per_seed(self):
        a_tok, a_lab = generate(task())
        b_tok, b_lab = generate(task())
        assert np.array_equal(a_tok, b_tok) and np.array_equal(a_lab, b_lab)

    def test_different_seeds_differ(self):
        a_tok, _ = generate(task(seed=1))
        b_tok, _ = generate(task(seed=2))
        assert not np.array_equal(a_tok, b_tok)

    def test_parity_class_balance(self):
        _, labels = generate(task("parity-of-sum", n_samples=10_000))
        frac = labels.mean()
        assert abs(frac - 0.5) <= 0.02

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValidationError):
            task(seq_len=0)
        with pytest.raises(ValidationError):
            task("parity-of-sum", n_classes=3)
        with pytest.raises(ValidationError):
            task(kind="no-such-task")


class TestDirichletPartition:
    def test_partition_is_exact(self):
        _, labels = generate(task(n_samples=500))
        shards = dirichlet_partition(labels, PartitionSpec(8, 0.5, seed=1))
        flat = [i for s in shards for i in s]
        assert sorted(flat) == list(range(500))
        assert all(len(s) >= 1 for s in shards)

    def test_large_alpha_approaches_global_histogram(self):
        _, labels = generate(task(n_samples=10_000))
        shards = dirichlet_partition(labels, PartitionSpec(4, 1e6, seed=2))
        global_hist = np.bincount(labels, minlength=4) / len(labels)
        for shard in shards:
            hist = np.bincount(labels[shard], minlength=4) / len(shard)
            assert np.abs(hist - global_hist).max() <= 0.05

    def test_small_alpha_concentrates_labels(self):
        _, labels = generate(task("parity-of-sum", n_samples=400))
        concentrated = 0
        for trial in range(100):
            shards = dirichlet_partition(labels, PartitionSpec(2, 0.01, seed=trial))
            for shard in shards:
                top = np.bincount(labels[shard], minlength=2).max() / len(shard)
                if top >= 0.9:
                    concentrated += 1
                    break
        assert concentrated >= 80

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValidationError):
            dirichlet_partition(np.array([0, 1]), PartitionSpec(3, 1.0, seed=0))

    def test_deterministic(self):
        _, labels = generate(task())
        a = dirichlet_partition(labels, PartitionSpec(5, 0.3, seed=7))
        b = dirichlet_partition(labels, PartitionSpec(5, 0.3, seed=7))
        assert a == b


class TestBatching:
    def test_fixed_order_batches(self):
        tokens = np.arange(40).reshape(10, 4) % 6
        labels = np.arange(10) % 4
        batches = batches_from_indices(tokens, labels, [3, 1, 7, 5], batch_size=3)
        assert [len(b) for b in batches] == [3, 1]
        assert np.array_equal(batches[0].labels, labels[[1, 3, 5]])
