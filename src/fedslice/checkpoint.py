"""Binary checkpoint container for named float64 tensors, and the model a
checkpoint holds.

Layout, all little-endian:
  magic "RFFM" | u32 version | u32 tensor count |
  per tensor: u32 name length | UTF-8 name | u32 rank |
              rank x u64 dims | row-major f64 payload
Roundtrips are bit-exact; trailing bytes, bad magic, truncation, and
non-finite payloads are rejected with the failing byte offset. A model is
stored as its tensors plus the metadata tensor ``__config__`` (metadata
tensor names have the form ``__*__``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import numpy as np

from .errors import FormatError, ValidationError
from .nn import ModelConfig, ModelWeights, full_shapes
from .scaling import slice_plan, spec_of

MAGIC = b"RFFM"
VERSION = 1

_CONFIG_TENSOR = "__config__"
_CONFIG_FIELDS = tuple(f.name for f in fields(ModelConfig))


def write_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    blob = bytearray(MAGIC)
    blob += struct.pack("<II", VERSION, len(tensors))
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded
        blob += struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape)
        blob += arr.data
    with open(path, "wb") as f:
        f.write(blob)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"truncated container: needed {n} bytes for {what} "
                              f"at offset {pos}")
        chunk = blob[pos:pos + n]
        pos += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise FormatError("bad magic at offset 0")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported format version {version} at offset 4")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_at = pos
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8 tensor name at offset {name_at}") from exc
        (rank,) = struct.unpack("<I", take(4, "rank"))
        dims_at = pos
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, "dims")) if rank else ()
        payload_at = pos
        data = np.frombuffer(take(8 * math.prod(dims), f"payload of {name!r}"), dtype="<f8")
        try:
            arr = data.astype(np.float64).reshape(dims)
        except ValueError as exc:  # more dims, or a larger one, than numpy holds
            raise FormatError(f"unsupported shape {dims} at offset {dims_at}: {exc}") from exc
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite values in tensor {name!r} at offset {payload_at}")
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r} at offset {name_at}")
        tensors[name] = arr
    if pos != len(blob):
        raise FormatError(f"trailing bytes at offset {pos}")
    return tensors


def model_to_tensors(w: ModelWeights) -> dict[str, np.ndarray]:
    tensors = {_CONFIG_TENSOR: np.array([getattr(w.config, f) for f in _CONFIG_FIELDS],
                                        dtype=np.float64)}
    tensors.update(w.tensors)
    return tensors


def tensors_to_model(tensors: dict[str, np.ndarray]) -> ModelWeights:
    """The model a checkpoint holds. It must hold exactly the config's
    tensors, each shaped as in the full model or in one sub-model of it;
    anything else raises FormatError."""
    vals = tensors.get(_CONFIG_TENSOR)
    if vals is None or vals.shape != (len(_CONFIG_FIELDS),) or not np.all(np.isfinite(vals)) \
            or np.any(vals < 1) or np.any(vals != np.floor(vals)):
        raise FormatError(f"checkpoint needs a {_CONFIG_TENSOR} tensor of "
                          f"{len(_CONFIG_FIELDS)} integers >= 1")
    try:
        cfg = ModelConfig(**{f: int(v) for f, v in zip(_CONFIG_FIELDS, vals)})
    except ValidationError as exc:
        raise FormatError(f"checkpoint {_CONFIG_TENSOR} is not a model config: {exc}") from exc
    weights = {k: v for k, v in tensors.items() if k != _CONFIG_TENSOR}
    # every head owns a tensor, so this bounds the enumeration of names
    if cfg.n_layers * cfg.n_heads > len(weights):
        raise FormatError(f"{_CONFIG_TENSOR} describes more tensors than the checkpoint holds")
    full = full_shapes(cfg)
    if set(full) != set(weights):
        raise FormatError(f"checkpoint tensors do not match its config: missing "
                          f"{sorted(set(full) - set(weights))[:3]}, "
                          f"unexpected {sorted(set(weights) - set(full))[:3]}")
    shapes = {name: arr.shape for name, arr in weights.items()}
    for name in full:
        if len(shapes[name]) != len(full[name]):
            raise FormatError(f"tensor {name!r} has rank {len(shapes[name])}, "
                              f"expected {len(full[name])}")
    spec = spec_of(shapes, cfg.n_layers, cfg.n_heads)
    try:
        spec.validate(cfg)
    except ValidationError as exc:
        raise FormatError(f"checkpoint widths do not fit its config: {exc}") from exc
    for name, (_, shape) in slice_plan(spec, full).items():
        if shapes[name] != shape:
            raise FormatError(f"tensor {name!r} has shape {shapes[name]}, expected {shape}")
    model = ModelWeights(cfg, shapes)
    for name, arr in model.tensors.items():
        np.copyto(arr, weights[name])
    return model
