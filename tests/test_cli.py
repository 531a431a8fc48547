import json
import math
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslice import cli
from fedslice.checkpoint import (model_to_tensors, read_checkpoint, tensors_to_model,
                                 write_checkpoint)
from fedslice.config import parse_run_config
from fedslice.data import generate
from fedslice.errors import ConfigError, FormatError
from fedslice.nn import Batch, ModelConfig, _model_values, full_shapes, init_weights
from fedslice.scaling import param_count, uniform_spec
from fedslice.sim import build_profiles
from test_slice_plan import configs


def run_config_doc(**overrides):
    doc = {
        "model": {"n_layers": 1, "d_model": 8, "n_heads": 2, "d_k": 2, "d_v": 2,
                  "d_ff": 8, "vocab_size": 4, "n_classes": 4, "max_seq": 8},
        "federation": {"n_clients": 4, "participation_rate": 0.5, "rounds": 2,
                       "ratio_set": [0.5, 1.0], "master_seed": 5, "eval_every": 1},
        "task": {"kind": "majority-token", "vocab_size": 4, "seq_len": 5,
                 "n_classes": 4, "n_samples": 120, "seed": 3},
        "partition": {"dirichlet_alpha": 1.0, "seed": 4},
        "clients": {"local_epochs": 1, "lr": 0.2, "batch_size": 16,
                    "budget_fractions": [1.0], "eval_fraction": 0.2},
    }
    doc.update(overrides)
    return doc


# (section, key or None for the whole section, value, expected message)
MALFORMED = [
    ("model", None, 5, "'model' must be a JSON object"),
    ("federation", None, "x", "'federation' must be a JSON object"),
    ("spp", None, [], "'spp' must be a JSON object"),
    ("clients", None, 3, "'clients' must be a JSON object"),
    ("federation", "ratio_set", [], "ratio_set"),
    ("federation", "ratio_set", [0.0, 1.0], "ratio_set"),
    ("federation", "ratio_set", [0.5, 1.5], "ratio_set"),
    ("federation", "ratio_set", [0.5, 0.5, 1.0], "ratio_set repeats a ratio"),
    ("clients", "budget_fractions", [], "budget_fractions"),
    ("clients", "budget_fractions", [0.5, "x"], "budget_fractions"),
    ("clients", "budget_fractions", 0.5, "clients.budget_fractions"),
    ("clients", "budget_fractions", [1e308], "clients.budget_fractions"),
    ("clients", "budget_fractions", [1.5], "clients.budget_fractions"),
    ("clients", "lr", "x", "clients.lr"),
    ("clients", "lr", float("nan"), "clients.lr"),
    ("clients", "lr", -0.1, "clients.lr"),
    ("clients", "local_epochs", "x", "clients.local_epochs"),
    ("clients", "local_epochs", 1.5, "clients.local_epochs"),
    ("clients", "local_epochs", True, "clients.local_epochs"),
    ("clients", "batch_size", 2.5, "clients.batch_size"),
    ("clients", "batch_size", True, "clients.batch_size"),
    ("clients", "eval_fraction", "x", "clients.eval_fraction"),
    ("clients", "eval_fraction", float("nan"), "clients.eval_fraction"),
    ("clients", "eval_fraction", -0.1, "clients.eval_fraction"),
    ("clients", "eval_fraction", 1.0, "clients.eval_fraction"),
    ("clients", "eval_fraction", 0.999, "leave training data"),
    ("model", "d_model", 2.5, "ModelConfig.d_model"),
    ("model", "n_heads", True, "ModelConfig.n_heads"),
    ("federation", "rounds", 1.5, "federation.rounds"),
    ("federation", "rounds", True, "federation.rounds"),
    ("federation", "n_clients", 2.5, "federation.n_clients"),
    ("federation", "master_seed", "s", "federation.master_seed"),
    ("federation", "eval_every", -1, "eval_every"),
    ("federation", "participation_rate", 0, "participation_rate"),
    ("federation", "participation_rate", 1.5, "participation_rate"),
    ("federation", "participation_rate", "x", "federation.participation_rate"),
    ("task", "n_samples", 80.5, "task.n_samples"),
    ("task", "seed", "x", "task.seed"),
    ("partition", "dirichlet_alpha", float("nan"), "partition.dirichlet_alpha"),
    ("partition", "dirichlet_alpha", float("inf"), "partition.dirichlet_alpha"),
    ("partition", "dirichlet_alpha", 0, "dirichlet_alpha"),
    ("partition", "seed", 1.5, "partition.seed"),
    ("spp", "permute_qk", "yes", "spp.permute_qk"),
    ("clients", "local_epochs", -1, "clients.local_epochs"),
    ("clients", "batch_size", 0, "clients.batch_size"),
    ("task", "vocab_size", 9, "task.vocab_size = 9 exceeds model.vocab_size"),
    ("task", "n_classes", 5, "task.n_classes = 5 exceeds model.n_classes"),
    ("task", "seq_len", 20, "task.seq_len = 20 exceeds model.max_seq"),
]


def malformed_doc(section, key, value):
    doc = run_config_doc()
    if key is None:
        doc[section] = value
    else:
        doc.setdefault(section, {})[key] = value
    return doc


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCheckpoint:
    def test_roundtrip_2x3(self, tmp_path):
        path = tmp_path / "t.rffm"
        arr = np.arange(1.0, 7.0).reshape(2, 3)
        write_checkpoint(path, {"weights": arr})
        back = read_checkpoint(path)
        assert list(back) == ["weights"]
        assert np.array_equal(back["weights"], arr)

    def test_roundtrip_model_bit_exact(self, tmp_path):
        w = init_weights(ModelConfig(1, 6, 2, 3, 3, 8, 11, 3, 8), 7)
        path = tmp_path / "m.rffm"
        write_checkpoint(path, model_to_tensors(w))
        back = tensors_to_model(read_checkpoint(path))
        assert back.config == w.config
        assert all(np.array_equal(w.tensors[k], back.tensors[k]) for k in w.tensors)

    def test_empty_map_roundtrips(self, tmp_path):
        path = tmp_path / "e.rffm"
        write_checkpoint(path, {})
        assert read_checkpoint(path) == {}

    def test_flipped_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rffm"
        write_checkpoint(path, {"a": np.zeros((1, 1))})
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.rffm"
        write_checkpoint(path, {"a": np.zeros((2, 2))})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(path)

    def test_truncation_rejected_with_offset(self, tmp_path):
        path = tmp_path / "t.rffm"
        write_checkpoint(path, {"a": np.ones((4, 4))})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="offset"):
            read_checkpoint(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "t.rffm"
        arr = np.zeros((2, 2))
        arr[0, 0] = np.nan
        blob = bytearray()
        blob += b"RFFM"
        blob += struct.pack("<II", 1, 1)
        blob += struct.pack("<I", 1) + b"a" + struct.pack("<I", 2)
        blob += struct.pack("<QQ", 2, 2) + arr.astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            read_checkpoint(path)

    def test_shape_numpy_cannot_hold_rejected_with_offset(self, tmp_path):
        # one tensor "a" of rank 2 with dims (0, 2**63): no payload, no array
        path = tmp_path / "t.rffm"
        path.write_bytes(b"RFFM" + struct.pack("<III", 1, 1, 1) + b"a"
                         + struct.pack("<IQQ", 2, 0, 2 ** 63))
        with pytest.raises(FormatError, match="at offset 21"):
            read_checkpoint(path)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_corrupt_model_reads_or_raises_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "m.rffm"
        write_checkpoint(path, model_to_tensors(
            init_weights(ModelConfig(1, 2, 2, 1, 1, 2, 3, 2, 2), 1)))
        blob = bytearray(path.read_bytes())
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] ^= data.draw(st.integers(1, 255))
        blob = blob[:data.draw(st.integers(0, len(blob)))]
        path.write_bytes(bytes(blob))
        try:
            tensors_to_model(read_checkpoint(path))
        except FormatError:
            pass


class TestRunConfig:
    def test_unknown_key_rejected(self):
        for section, key, value in [("model", "d_modle", 8),
                                    ("federation", "aggregation", "coverage-average")]:
            doc = run_config_doc()
            doc[section][key] = value
            with pytest.raises(ConfigError, match=key):
                parse_run_config(json.dumps(doc))
        for section, key, value, message in MALFORMED:
            with pytest.raises(ConfigError, match=message):
                parse_run_config(json.dumps(malformed_doc(section, key, value)))

    def test_unknown_top_level_key_rejected(self):
        doc = run_config_doc()
        doc["extras"] = {}
        with pytest.raises(ConfigError, match="extras"):
            parse_run_config(json.dumps(doc))

    def test_invalid_json_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_run_config('{\n "model": }')

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_value_parses_or_raises_config_error(self, data):
        doc = run_config_doc()
        section, key = data.draw(st.sampled_from(
            [(section, None) for section in doc]
            + [(section, key) for section in doc for key in doc[section]]))
        value = data.draw(st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=5))
        try:
            parse_run_config(json.dumps(malformed_doc(section, key, value)))
        except ConfigError:
            return
        # accepted: the value has the JSON type of the one it replaced (an
        # integer may stand for a float), and a float is finite
        original = doc[section] if key is None else doc[section][key]
        assert type(value) is type(original) or (type(original), type(value)) == (float, int)
        assert type(value) is not float or math.isfinite(value)

    @settings(max_examples=50, deadline=None)
    @given(configs())
    def test_size_check_counts_every_model_value(self, model):
        assert _model_values(model) == sum(map(math.prod, full_shapes(model).values()))

    def test_seed_override(self):
        cfg = parse_run_config(json.dumps(run_config_doc()), seed_override=99)
        assert cfg.federation.master_seed == 99


class TestBuildProfiles:
    @pytest.mark.parametrize("fraction", [0.2, 0.33])  # 24 and 39.6 -> 40 of 120 samples
    def test_eval_batch_is_the_last_generated_samples(self, fraction):
        doc = run_config_doc()
        doc["clients"]["eval_fraction"] = fraction
        cfg = parse_run_config(json.dumps(doc))
        profiles, eval_batch, _ = build_profiles(cfg)
        tokens, labels = generate(cfg.task)
        n_eval = round(fraction * cfg.task.n_samples)
        assert type(eval_batch) is Batch and len(eval_batch) == n_eval
        assert eval_batch.tokens.tobytes() == tokens[-n_eval:].tobytes()
        assert eval_batch.labels.tobytes() == labels[-n_eval:].tobytes()
        assert sum(len(b) for p in profiles for b in p.shard) == cfg.task.n_samples - n_eval

    @pytest.mark.parametrize("fraction", [0.0, 0.004])  # 0.48 of 120 samples rounds to none
    def test_without_eval_samples_no_round_is_scored(self, tmp_path, fraction):
        doc = run_config_doc()
        doc["clients"]["eval_fraction"] = fraction
        assert build_profiles(parse_run_config(json.dumps(doc)))[1] is None
        out = tmp_path / "out"
        assert cli.main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(records) == 2
        assert all(r["accuracy"] is None and r["loss"] is None for r in records)


class TestCmdRun:
    def test_zero_rounds(self, tmp_path):
        doc = run_config_doc()
        doc["federation"]["rounds"] = 0
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rounds"] == 0 and summary["total_bytes"] == 0
        assert (out / "metrics.jsonl").read_text() == ""

    def test_run_writes_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, run_config_doc())
        out = tmp_path / "out"
        assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert {"round", "participants", "bytes_down", "bytes_up"} <= set(rec)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_accuracy"] is not None
        assert read_checkpoint(out / "final_weights.rffm")

    def test_same_seed_byte_identical_summary(self, tmp_path):
        cfg_path = write_config(tmp_path, run_config_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", cfg_path, "--out", str(out1)]) == 0
        assert cli.main(["run", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        assert cli.main(["run", str(path)]) == 1
        assert "line" in capsys.readouterr().err
        for section, key, value, message in MALFORMED:
            path = write_config(tmp_path, malformed_doc(section, key, value))
            assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 1
            assert message in capsys.readouterr().err

    def test_budget_below_floor_exits_1(self, tmp_path, capsys):
        # the smallest spec of ratio 0.5 is 65% of this model
        path = write_config(tmp_path, malformed_doc("clients", "budget_fractions", [0.3]))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert "below minimum spec size" in capsys.readouterr().err

    def test_diverged_run_writes_outputs_and_exits_2(self, tmp_path, capsys):
        # at lr 1e300 round 0 drops one of two clients and evaluates to NaN,
        # and round 1 drops both
        for eval_every, message in [
                (1, "round 0 went wrong: 1 of 2 participants dropped, eval loss nan"),
                (0, "round 1 went wrong: 2 of 2 participants dropped")]:
            doc = malformed_doc("clients", "lr", 1e300)
            doc["federation"]["eval_every"] = eval_every
            out = tmp_path / f"out{eval_every}"
            with np.errstate(all="ignore"):
                assert cli.main(["run", write_config(tmp_path, doc), "--out", str(out)]) == 2
            assert f"error: {message}" in capsys.readouterr().err
            assert sorted(p.name for p in out.iterdir()) == [
                "final_weights.rffm", "metrics.jsonl", "summary.json"]
            # strict JSON: the non-finite loss is written as null
            summary = json.loads((out / "summary.json").read_text(),
                                 parse_constant=reject_constant)
            records = [json.loads(line, parse_constant=reject_constant)
                       for line in (out / "metrics.jsonl").read_text().splitlines()]
            assert summary["final_loss"] is None and len(records) == 2
            if eval_every:
                assert records[0]["loss"] is None

    def test_diverged_run_prints_only_its_error_line(self, tmp_path):
        # numpy overflows on the way to the NaN loss; it must not warn about it
        config = write_config(tmp_path, malformed_doc("clients", "lr", 1e300))
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "fedslice.cli", "run", config,
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ("error: round 0 went wrong: 1 of 2 participants dropped, "
                               "eval loss nan\n")

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config is not UTF-8 text") and err.count("\n") == 1

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d_model", 10 ** 30), ("model", "d_ff", 2 ** 62),
        ("model", "vocab_size", 10 ** 25), ("task", "n_samples", 10 ** 20)])
    def test_size_numpy_cannot_index_exits_1(self, tmp_path, capsys, section, key, value):
        path = write_config(tmp_path, malformed_doc(section, key, value))
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key} = {value} is too large")
        assert err.count("\n") == 1

    def test_out_of_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "run_simulation", exhausted)
        path = write_config(tmp_path, run_config_doc())
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert "error: out of memory: Unable to allocate 7.28 TiB" in capsys.readouterr().err

    def test_vocab_too_large_to_embed_exits_2(self, tmp_path, capsys):
        # the token matrix and the labels fit; the (10**16, d_model) embedding cannot
        doc = run_config_doc()
        doc["model"]["vocab_size"] = doc["task"]["vocab_size"] = 10 ** 16
        doc["task"]["n_samples"] = 1000
        path = write_config(tmp_path, doc)
        assert cli.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_missing_file_exits_3(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 3


class TestCmdVerify:
    def test_single_trial(self, capsys):
        assert cli.main(["verify", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "theorem invariance" in out

    def test_default_tolerances_pass(self):
        assert cli.main(["verify", "--trials", "20"]) == 0

    def test_negative_control_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_theorem1", lambda *args: 1.0)
        assert cli.main(["verify", "--trials", "5"]) == 2
        assert "theorem check failed at seed 0 trial 0" in capsys.readouterr().out


class TestCmdExtractInspect:
    def test_extract_roundtrip_and_counts(self, tmp_path, capsys):
        cfg = ModelConfig(1, 8, 2, 4, 4, 16, 11, 3, 10)
        w = init_weights(cfg, 2)
        ckpt_in = tmp_path / "in.rffm"
        write_checkpoint(ckpt_in, model_to_tensors(w))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"ratio": 0.5}))
        ckpt_out = tmp_path / "out.rffm"
        assert cli.main(["extract", str(ckpt_in), str(spec_path), str(ckpt_out)]) == 0
        out = capsys.readouterr().out
        assert f"params before: {w.param_total()}" in out
        sub = tensors_to_model(read_checkpoint(ckpt_out))
        assert sub.param_total() < w.param_total()
        assert f"params after:  {sub.param_total()}" in out

    def test_full_ratio_extract_preserves_values(self, tmp_path):
        cfg = ModelConfig(1, 6, 2, 3, 3, 8, 11, 3, 8)
        w = init_weights(cfg, 4)
        ckpt_in = tmp_path / "in.rffm"
        write_checkpoint(ckpt_in, model_to_tensors(w))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"ratio": 1.0}))
        ckpt_out = tmp_path / "out.rffm"
        assert cli.main(["extract", str(ckpt_in), str(spec_path), str(ckpt_out)]) == 0
        sub = tensors_to_model(read_checkpoint(ckpt_out))
        from fedslice.scaling import prioritize_model
        wp = prioritize_model(w)
        assert all(np.array_equal(wp.tensors[k], sub.tensors[k]) for k in wp.tensors)

    def test_incompatible_spec_exits_1(self, tmp_path, capsys):
        cfg = ModelConfig(1, 6, 2, 3, 3, 8, 11, 3, 8)
        ckpt_in = tmp_path / "in.rffm"
        write_checkpoint(ckpt_in, model_to_tensors(init_weights(cfg, 1)))
        spec_path = tmp_path / "spec.json"
        specs = [{"ffn_widths": [99], "qk_widths": [[3, 3]], "v_widths": [[3, 3]]},
                 {"ratio": 0}, {"ratio": -1}, {"ratio": float("nan")},
                 {"ratio": 1.5}, {"ratio": True}, {"ratio": "0.5"},
                 {"ratio": 0.5, "ffn_widths": [4]}, [1, 2],
                 {"ffn_widths": [4], "qk_widths": [[3, 3]]},
                 {"ffn_widths": [4.5], "qk_widths": [[3, 3]], "v_widths": [[3, 3]]},
                 {"ffn_widths": [4], "qk_widths": [3, 3], "v_widths": [[3, 3]]},
                 {"ffn_widths": [4], "qk_widths": [[3, 3]], "v_widths": [[3]]}]
        for text in [json.dumps(spec) for spec in specs] + ['{"ratio": ']:
            spec_path.write_text(text)
            assert cli.main(["extract", str(ckpt_in), str(spec_path),
                             str(tmp_path / "o.rffm")]) == 1, text
            assert capsys.readouterr().err.startswith("error:"), text
        assert not (tmp_path / "o.rffm").exists()

    def test_extract_from_narrow_checkpoint(self, tmp_path):
        cfg = ModelConfig(2, 6, 3, 4, 3, 8, 11, 3, 8)
        paths = [tmp_path / f"m{i}.rffm" for i in range(4)]
        write_checkpoint(paths[0], model_to_tensors(init_weights(cfg, 6)))
        spec_path = tmp_path / "spec.json"
        for ratio, src, dst, code in [(0.5, 0, 1, 0), (0.25, 1, 2, 0), (1.0, 1, 3, 1)]:
            spec_path.write_text(json.dumps({"ratio": ratio}))
            assert cli.main(["extract", str(paths[src]), str(spec_path),
                             str(paths[dst])]) == code, ratio
        assert tensors_to_model(read_checkpoint(paths[2])).param_total() \
            == param_count(uniform_spec(cfg, 0.25), cfg)

    @pytest.mark.parametrize("corrupt", [
        lambda t: t.pop("layer0.head1.wk"),
        lambda t: t.update(stray=np.zeros(2)),
        lambda t: t.update({"layer0.head0.wq": np.zeros((5, 3))}),
        lambda t: t.update({"layer0.bo": np.zeros((6, 1))}),
        lambda t: t.update({"layer0.w1": np.zeros((6, 9)), "layer0.b1": np.zeros(9),
                            "layer0.w2": np.zeros((9, 6))}),
        lambda t: t.update({"layer0.head0.wk": np.zeros((6, 2))}),
        lambda t: t.update({"layer0.wo": np.zeros((5, 6))}),
        lambda t: t["__config__"].__setitem__(1, 6.5),
        lambda t: t["__config__"].__setitem__(0, 0.0),
        lambda t: t.update(__config__=np.ones(3)),
        lambda t: t["__config__"].__setitem__(0, 1e12),
        lambda t: t["__config__"].__setitem__(5, 2.0 ** 62),  # d_ff
    ], ids=["missing-tensor", "extra-tensor", "wq-wrong-d_model", "wrong-rank",
            "ffn-wider-than-config", "qk-widths-disagree", "wo-rows-disagree",
            "config-not-integer", "config-zero", "config-short", "config-huge",
            "config-too-large"])
    def test_malformed_checkpoint_exits_1(self, tmp_path, capsys, corrupt):
        tensors = model_to_tensors(init_weights(ModelConfig(1, 6, 2, 3, 3, 8, 11, 3, 8), 1))
        corrupt(tensors)
        ckpt_in = tmp_path / "in.rffm"
        write_checkpoint(ckpt_in, tensors)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"ratio": 0.5}))
        ckpt_out = tmp_path / "out.rffm"
        assert cli.main(["extract", str(ckpt_in), str(spec_path), str(ckpt_out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not ckpt_out.exists()
        with pytest.raises(FormatError):
            tensors_to_model(tensors)

    def test_inspect_manifest(self, tmp_path, capsys):
        path = tmp_path / "t.rffm"
        write_checkpoint(path, {"a": np.zeros((2, 3)), "b": np.zeros(4)})
        assert cli.main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "a  shape=[2, 3]" in out
        assert "total: 2 tensors, 10 values" in out
