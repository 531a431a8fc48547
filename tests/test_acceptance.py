"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run with -s to see them)."""

import json
import math
import time
from itertools import combinations

import numpy as np

from fedslice import cli
from fedslice.checkpoint import read_checkpoint, write_checkpoint
from fedslice.config import parse_run_config
from fedslice.data import TaskSpec, label_tokens
from fedslice.errors import FormatError
from fedslice.fed import (STREAM_SELECT, ClientProfile, FederationConfig,
                          run_federation)
from fedslice.nn import (Batch, ModelConfig, attention_scores, forward, init_weights,
                         softmax_cross_entropy)
from fedslice.scaling import (ResourceBudget, SubmodelSpec, extract_submodel,
                              prioritize_model, uniform_spec, verify_theorem1)
from fedslice.tensor import RngStream
from test_bench_contract import load_perfbench
from test_fed import oracle_aggregate, random_spec
from test_golden import GOLDEN
from test_nn import backward_new
from test_slice_plan import copy_weights, model_of


def test_1_theorem_invariance_and_negative_control():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(100):
        rng = RngStream(7, 1000 + trial)
        wq = rng.uniform(-1, 1, (16, 8))
        wk = rng.uniform(-1, 1, (16, 8))
        x = rng.uniform(-1, 1, (5, 16))
        worst = max(worst, verify_theorem1(wq, wk, x, rng.permutation(8)))
    assert worst <= 1e-12

    rng = RngStream(8, 0)
    wq = rng.uniform(-1, 1, (16, 8))
    wk = rng.uniform(-1, 1, (16, 8))
    x = rng.uniform(-1, 1, (5, 16))
    p = rng.permutation(8)
    while np.array_equal(p, np.arange(8)):
        p = rng.permutation(8)
    control = float(np.abs(attention_scores(wq, wk, x)
                           - attention_scores(wq[:, p], wk, x)).max())
    assert control > 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: theorem max rel diff {worst:.2e} <= 1e-12, "
          f"negative control {control:.2e} > 1e-3, {elapsed:.2f}s")


def test_2_function_preservation_full_model():
    t0 = time.monotonic()
    cfg = ModelConfig(n_layers=2, d_model=16, n_heads=4, d_k=4, d_v=4, d_ff=32,
                      vocab_size=16, n_classes=4, max_seq=12)
    w = init_weights(cfg, 21)
    wp = copy_weights(w)
    prioritize_model(wp)  # all flags on by default
    worst = 0.0
    for seed in range(16):
        rng = RngStream(seed, 444)
        batch = Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (8, 10))),
                      labels=np.asarray(rng.integers(0, cfg.n_classes, 8)))
        a, _ = forward(w, batch)
        b, _ = forward(wp, batch)
        rel = np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(rel.max()))
    assert worst <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS: logits max rel diff {worst:.2e} <= 1e-9 "
          f"over 16 batches, {elapsed:.2f}s")


def test_3_gradient_correctness_every_tensor():
    t0 = time.monotonic()
    cfg = ModelConfig(n_layers=1, d_model=6, n_heads=2, d_k=3, d_v=3, d_ff=8,
                      vocab_size=11, n_classes=3, max_seq=8)
    w = init_weights(cfg, 31)
    rng = RngStream(31, 555)
    batch = Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (4, 5))),
                  labels=np.asarray(rng.integers(0, cfg.n_classes, 4)))
    logits, cache = forward(w, batch)
    grads = backward_new(cache, softmax_cross_entropy(logits, batch.labels)[1])

    def loss_at():
        logits, _ = forward(w, batch)
        return softmax_cross_entropy(logits, batch.labels)[0]

    eps = 1e-5
    worst = 0.0
    checked = 0
    for name, arr in w.tensors.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_at()
            flat[j] = orig - eps
            lm = loss_at()
            flat[j] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(gflat[j] - fd) / max(1.0, abs(gflat[j]), abs(fd))
            worst = max(worst, rel)
            checked += 1
    assert worst <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS: {checked} coordinates, worst rel error "
          f"{worst:.2e} <= 1e-6, {elapsed:.1f}s")


# --- criterion 4: aggregation vs an independent per-coordinate loop ---

AGG_CFG = ModelConfig(n_layers=1, d_model=3, n_heads=2, d_k=4, d_v=2, d_ff=4,
                      vocab_size=4, n_classes=3, max_seq=4)


def test_4_aggregation_matches_brute_force_bit_exactly():
    from fedslice.fed import Fold, aggregate
    t0 = time.process_time()  # this process's CPU time: other jobs do not count
    cfg = AGG_CFG
    for case in range(200):
        rng = RngStream(404, case)
        g = init_weights(cfg, case)
        updates = []
        for _ in range(int(rng.integers(1, 4))):
            spec = random_spec(cfg, rng)
            shaped = extract_submodel(g, spec)
            updates.append((spec, model_of(
                cfg, {k: rng.uniform(-1, 1, v.shape) for k, v in shaped.tensors.items()})))
        out = copy_weights(g)  # the merge writes into its base; g stays the oracle's
        fold = Fold(out)
        aggregate(fold, updates)
        fold.merge()
        expected = oracle_aggregate(g, updates)
        for name, arr in expected.items():
            assert out.tensors[name].tobytes() == arr.tobytes(), (case, name)
    elapsed = time.process_time() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 4 PASS: 200 random cases bit-equal to the "
          f"per-coordinate oracle, {elapsed:.2f}s")


def test_5_homogeneous_reduction_to_fedavg():
    model_cfg = ModelConfig(n_layers=1, d_model=6, n_heads=2, d_k=3, d_v=3,
                            d_ff=8, vocab_size=6, n_classes=3, max_seq=8)
    task = TaskSpec("majority-token", 6, 5, 3, 1, 0)

    def shard(seed):
        rng = RngStream(seed, 808)
        toks = np.asarray(rng.integers(0, 6, (6, 5)))
        return [Batch(tokens=toks, labels=label_tokens(toks, task))]

    profiles = [ClientProfile(client_id=i,
                              budget=ResourceBudget(10 ** 9),
                              shard=shard(600 + i), local_epochs=1, lr=0.2)
                for i in range(4)]
    fed_cfg = FederationConfig(n_clients=4, participation_rate=0.5, rounds=5,
                               ratio_set=(1.0,), master_seed=55, eval_every=0,
                               permute_qk=False, permute_vo=False, permute_ffn=False)
    final, _ = run_federation(fed_cfg, model_cfg, profiles)

    # reference FedAvg: independent orchestration and SGD over the same forward/backward
    w = init_weights(model_cfg, fed_cfg.master_seed)
    for t in range(fed_cfg.rounds):
        rng = RngStream(fed_cfg.master_seed, STREAM_SELECT + t)
        k = int(np.ceil(fed_cfg.participation_rate * fed_cfg.n_clients))
        ids = sorted(int(i) for i in rng.choice(fed_cfg.n_clients, size=k,
                                                replace=False))
        trained = []
        for cid in ids:
            local = copy_weights(w)
            p = profiles[cid]
            for _ in range(p.local_epochs):
                for batch in p.shard:
                    logits, cache = forward(local, batch)
                    _, dlogits = softmax_cross_entropy(logits, batch.labels)
                    g = backward_new(cache, dlogits)
                    local = model_of(model_cfg, {k: a - p.lr * g[k]
                                                 for k, a in local.tensors.items()})
            trained.append(local)
        merged = {}
        for name, arr in w.tensors.items():
            acc = np.zeros_like(arr)
            for u in trained:
                acc += u.tensors[name]
            merged[name] = acc / len(trained)
        w = model_of(model_cfg, merged)

    assert all(np.array_equal(final.tensors[kk], w.tensors[kk]) for kk in w.tensors)
    print("ACCEPTANCE 5 PASS: 5-round/4-client run bit-identical to reference FedAvg")


def test_6_slice_optimality_exhaustive():
    for dk in (4, 6, 8):
        cfg = ModelConfig(1, 8, 1, dk, 4, 8, 11, 3, 10)
        w = init_weights(cfg, 60 + dk)
        wq0, wk0 = w["layer0.head0.wq"].copy(), w["layer0.head0.wk"].copy()
        prioritize_model(w)
        for k in range(1, dk + 1):
            spec = SubmodelSpec(ffn_widths=(8,), qk_widths=((k,),), v_widths=((4,),))
            sub = extract_submodel(w, spec)
            kept = math.fsum(np.abs(sub["layer0.head0.wq"]).flat) \
                + math.fsum(np.abs(sub["layer0.head0.wk"]).flat)
            best = max(math.fsum(np.abs(wq0[:, list(c)]).flat)
                       + math.fsum(np.abs(wk0[:, list(c)]).flat)
                       for c in combinations(range(dk), k))
            assert kept == best, (dk, k)
    print("ACCEPTANCE 6 PASS: retained L1 mass equals the exhaustive subset "
          "maximum for d_k in {4, 6, 8}, all k")


def _desk_config(ratio_set, budget_fractions, spp_on):
    return parse_run_config(json.dumps({
        "model": {"n_layers": 2, "d_model": 16, "n_heads": 2, "d_k": 4, "d_v": 4,
                  "d_ff": 32, "vocab_size": 4, "n_classes": 4, "max_seq": 12},
        "federation": {"n_clients": 20, "participation_rate": 0.2, "rounds": 30,
                       "ratio_set": ratio_set, "master_seed": 7, "eval_every": 5},
        "task": {"kind": "majority-token", "vocab_size": 4, "seq_len": 9,
                 "n_classes": 4, "n_samples": 2000, "seed": 11},
        "partition": {"dirichlet_alpha": 1.0, "seed": 13},
        "spp": {"permute_qk": spp_on, "permute_vo": spp_on, "permute_ffn": spp_on},
        "clients": {"local_epochs": 1, "lr": 0.3, "batch_size": 16,
                    "budget_fractions": budget_fractions, "eval_fraction": 0.2},
    }))


def test_7_desk_scale_run_vs_full_baseline():
    from fedslice.sim import run_simulation
    # the subnetwork run is the benchmark's desk variant 0, whose summary
    # tests/golden.json pins and test_golden.py reproduces bit for bit
    desk = load_perfbench("workloads").WORKLOADS["desk"].config(0)
    assert parse_run_config(json.dumps(desk)) == _desk_config([0.5, 0.75, 1.0],
                                                              [0.65, 0.8, 1.0], True)
    sub = json.loads(GOLDEN.read_text())["runs"]["desk"]["summary"]
    t0 = time.monotonic()
    _, _, base = run_simulation(_desk_config([1.0], [1.0], False))
    elapsed = time.monotonic() - t0

    full = sub["full_model_params"]
    assert sub["mean_client_params"] <= 0.8 * full
    assert sub["total_bytes"] <= 0.8 * base["total_bytes"]
    assert sub["final_accuracy"] >= base["final_accuracy"] - 0.05
    assert elapsed < 180
    print(f"ACCEPTANCE 7 PASS: mean client params "
          f"{sub['mean_client_params']:.0f}/{full} "
          f"({sub['mean_client_params'] / full:.0%}), traffic "
          f"{sub['total_bytes'] / base['total_bytes']:.0%} of baseline, "
          f"accuracy {sub['final_accuracy']:.3f} vs {base['final_accuracy']:.3f}, "
          f"{elapsed:.0f}s")


def _random_paired_permute(w, rng):
    """Function-preserving permutations drawn at random instead of by
    salience, written into a copy of w in place."""
    out = copy_weights(w)
    cfg = w.config
    for i in range(cfg.n_layers):
        for h in range(cfg.n_heads):
            p = f"layer{i}.head{h}"
            perm = rng.permutation(out[f"{p}.wq"].shape[1])
            for nm in ("wq", "wk"):
                out[f"{p}.{nm}"][...] = out[f"{p}.{nm}"][:, perm]
            for nm in ("bq", "bk"):
                out[f"{p}.{nm}"][...] = out[f"{p}.{nm}"][perm]
            vperm = rng.permutation(out[f"{p}.wv"].shape[1])
            out[f"{p}.wv"][...] = out[f"{p}.wv"][:, vperm]
            out[f"{p}.bv"][...] = out[f"{p}.bv"][vperm]
            lo = h * cfg.d_v
            wo = out[f"layer{i}.wo"]
            wo[lo:lo + cfg.d_v] = wo[lo:lo + cfg.d_v][vperm]
        fperm = rng.permutation(cfg.d_ff)
        out[f"layer{i}.w1"][...] = out[f"layer{i}.w1"][:, fperm]
        out[f"layer{i}.b1"][...] = out[f"layer{i}.b1"][fperm]
        out[f"layer{i}.w2"][...] = out[f"layer{i}.w2"][fperm, :]
    return out


def test_8_salience_beats_random_permutation_slicing():
    cfg = ModelConfig(1, 8, 2, 4, 4, 16, 6, 3, 10)
    task = TaskSpec("majority-token", 6, 7, 3, 1, 0)
    spec = uniform_spec(cfg, 0.5)
    wins = 0
    for trial in range(50):
        w = init_weights(cfg, 200 + trial)
        rng = RngStream(300, trial)
        for _ in range(40):  # brief training so salience differentiates
            toks = np.asarray(rng.integers(0, 6, (16, 7)))
            batch = Batch(tokens=toks, labels=label_tokens(toks, task))
            logits, cache = forward(w, batch)
            _, dlogits = softmax_cross_entropy(logits, batch.labels)
            g = backward_new(cache, dlogits)
            w = model_of(cfg, {k: a - 0.3 * g[k] for k, a in w.tensors.items()})
        toks = np.asarray(rng.integers(0, 6, (32, 7)))
        probe = Batch(tokens=toks, labels=label_tokens(toks, task))
        full_logits, _ = forward(w, probe)
        spp = copy_weights(w)
        prioritize_model(spp)
        spp_sub = extract_submodel(spp, spec)
        mse_spp = float(((forward(spp_sub, probe)[0] - full_logits) ** 2).mean())
        rnd = _random_paired_permute(w, rng)
        rnd_sub = extract_submodel(rnd, spec)
        mse_rnd = float(((forward(rnd_sub, probe)[0] - full_logits) ** 2).mean())
        wins += mse_spp < mse_rnd
    assert wins >= 0.7 * 50
    print(f"ACCEPTANCE 8 PASS: salience-ranked slicing beats random-permutation "
          f"slicing in {wins}/50 trials (>= 35)")


def test_9_determinism_and_formats(tmp_path):
    cfg_doc = {
        "model": {"n_layers": 1, "d_model": 8, "n_heads": 2, "d_k": 2, "d_v": 2,
                  "d_ff": 8, "vocab_size": 4, "n_classes": 4, "max_seq": 8},
        "federation": {"n_clients": 4, "participation_rate": 0.5, "rounds": 3,
                       "ratio_set": [0.5, 1.0], "master_seed": 5, "eval_every": 1},
        "task": {"kind": "majority-token", "vocab_size": 4, "seq_len": 5,
                 "n_classes": 4, "n_samples": 120, "seed": 3},
        "partition": {"dirichlet_alpha": 1.0, "seed": 4},
        "clients": {"local_epochs": 1, "lr": 0.2, "batch_size": 16,
                    "budget_fractions": [1.0], "eval_fraction": 0.2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "final_weights.rffm").read_bytes() \
        == (out2 / "final_weights.rffm").read_bytes()

    # checkpoint roundtrip is the identity, bit-exact
    tensors = read_checkpoint(out1 / "final_weights.rffm")
    again = tmp_path / "again.rffm"
    write_checkpoint(again, tensors)
    assert again.read_bytes() == (out1 / "final_weights.rffm").read_bytes()

    # corrupted containers are rejected
    blob = bytearray((out1 / "final_weights.rffm").read_bytes())
    blob[0] ^= 0xFF
    bad = tmp_path / "bad.rffm"
    bad.write_bytes(bytes(blob))
    try:
        read_checkpoint(bad)
        raise AssertionError("corrupted container was accepted")
    except FormatError:
        pass
    print("ACCEPTANCE 9 PASS: byte-identical repeated runs, bit-exact "
          "checkpoint roundtrip, corrupted container rejected")
