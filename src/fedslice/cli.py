"""Command-line entry points: run, verify, extract, inspect.

Exit codes: 0 success, 1 validation/config, 2 runtime/numeric, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .checkpoint import (model_to_tensors, read_checkpoint, tensors_to_model,
                         write_checkpoint)
from .config import parse_run_config
from .errors import (AggregationError, ConfigError, FormatError, NumericError,
                     ShapeError, ValidationError)
from .nn import Batch, ModelConfig, forward, init_weights
from .scaling import (SubmodelSpec, extract_submodel, prioritize_model,
                      uniform_spec, verify_theorem1)
from .sim import run_simulation
from .tensor import RngStream

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


def _cmd_run(args) -> int:
    with open(args.config) as f:
        text = f.read()
    cfg = parse_run_config(text, seed_override=args.seed)
    os.makedirs(args.out, exist_ok=True)

    final_weights, log, summary = run_simulation(cfg)

    with open(os.path.join(args.out, "metrics.jsonl"), "w") as f:
        for record in log:
            f.write(json.dumps(asdict(record), sort_keys=True) + "\n")
    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    write_checkpoint(os.path.join(args.out, "final_weights.rffm"),
                     model_to_tensors(final_weights))
    acc = summary["final_accuracy"]
    print(f"completed {summary['rounds']} rounds; "
          f"final accuracy = {acc if acc is not None else 'n/a'}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValidationError("--trials must be >= 1")
    seq, d, dk = 5, 16, 8
    max_theorem = 0.0
    for trial in range(args.trials):
        rng = RngStream(args.seed, 50_000 + trial)
        x = rng.uniform(-1, 1, (seq, d))
        wq = rng.uniform(-1, 1, (d, dk))
        wk = rng.uniform(-1, 1, (d, dk))
        diff = verify_theorem1(wq, wk, x, rng.permutation(dk))
        if diff > 1e-12:
            print(f"theorem check failed at seed {args.seed} trial {trial}: "
                  f"max rel diff {diff:.3e}")
            return EXIT_RUNTIME
        max_theorem = max(max_theorem, diff)

    cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_k=4, d_v=4, d_ff=16,
                      vocab_size=12, n_classes=3, max_seq=8)
    max_preserve = 0.0
    for trial in range(args.trials):
        w = init_weights(cfg, args.seed + trial)
        rng = RngStream(args.seed, 60_000 + trial)
        batch = Batch(tokens=np.asarray(rng.integers(0, cfg.vocab_size, (4, 6))),
                      labels=np.asarray(rng.integers(0, cfg.n_classes, 4)))
        base, _ = forward(w, batch)
        wp = prioritize_model(w)
        after, _ = forward(wp, batch)
        rel = np.abs(base - after) / np.maximum(1.0, np.maximum(np.abs(base), np.abs(after)))
        diff = float(rel.max())
        if diff > 1e-9:
            print(f"function preservation failed at seed {args.seed + trial}: "
                  f"max rel diff {diff:.3e}")
            return EXIT_RUNTIME
        max_preserve = max(max_preserve, diff)

    print(f"theorem invariance: max rel diff {max_theorem:.3e} over {args.trials} trials")
    print(f"function preservation: max rel diff {max_preserve:.3e} over {args.trials} trials")
    return EXIT_OK


def _parse_spec_json(path: str, cfg: ModelConfig) -> SubmodelSpec:
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValidationError(f"spec is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "ratio" in doc:
        ratio = doc["ratio"]
        if set(doc) != {"ratio"} or type(ratio) not in (int, float) or not 0 < ratio <= 1:
            raise ValidationError(f'spec must be {{"ratio": r}} with r in (0, 1], got {doc!r}')
        return uniform_spec(cfg, ratio)
    return SubmodelSpec.from_dict(doc)


def _cmd_extract(args) -> int:
    model = tensors_to_model(read_checkpoint(args.checkpoint_in))
    spec = _parse_spec_json(args.spec, model.config)
    prioritized = prioritize_model(model)
    sub = extract_submodel(prioritized, spec)
    print(f"params before: {model.param_total()}")
    print(f"params after:  {sub.param_total()}")
    write_checkpoint(args.checkpoint_out, model_to_tensors(sub))
    return EXIT_OK


def _cmd_inspect(args) -> int:
    tensors = read_checkpoint(args.checkpoint)
    total = 0
    for name, arr in tensors.items():
        print(f"{name}  shape={list(arr.shape)}  values={arr.size}")
        total += arr.size
    print(f"total: {len(tensors)} tensors, {total} values, {total * 8} payload bytes")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedslice",
                                     description="resource-aware federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a federation from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's master seed")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check attention-permutation invariance")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_extract = sub.add_parser("extract", help="prioritize and slice a checkpointed model")
    p_extract.add_argument("checkpoint_in")
    p_extract.add_argument("spec", help="JSON width spec or {\"ratio\": r}")
    p_extract.add_argument("checkpoint_out")
    p_extract.set_defaults(func=_cmd_extract)

    p_inspect = sub.add_parser("inspect", help="print a checkpoint manifest")
    p_inspect.add_argument("checkpoint")
    p_inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, ShapeError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, AggregationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
