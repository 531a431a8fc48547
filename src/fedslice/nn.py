"""Miniature pre-norm multi-head transformer classifier with exact manual backprop.

The model is a standard encoder stack: token embedding, per-layer
(layer-norm -> multi-head attention -> residual, layer-norm -> ReLU FFN ->
residual), mean pooling over positions, and a linear classifier head.
Weights live in a flat name->array map so that slicing, aggregation and
serialization can treat every parameter uniformly. Per-head widths may be
narrower than the config maxima: forward/backward read actual shapes from
the arrays, which is what makes extracted sub-models runnable as-is.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import NumericError, ShapeError, ValidationError, check_size, check_types
from .tensor import RngStream

LN_EPS = 1e-5
_INIT_STREAM_BASE = 100
_EVAL_ROWS = 1024  # token positions per evaluation chunk, so its activations stay in cache


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_k: int
    d_v: int
    d_ff: int
    vocab_size: int
    n_classes: int
    max_seq: int

    def __post_init__(self):
        check_types(self, "ModelConfig")
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValidationError(f"ModelConfig.{f.name} must be >= 1")
        dims = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "max_seq"}  # max_seq sizes no tensor
        check_size("model", dims, _model_values(self), ValidationError)


@dataclass(frozen=True)
class Batch:
    tokens: np.ndarray  # (batch, seq_len) integer token ids
    labels: np.ndarray  # (batch,) integer class labels

    def __post_init__(self):
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.intp))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.intp))
        if self.tokens.ndim != 2 or self.labels.ndim != 1:
            raise ValidationError("Batch needs 2-D tokens and 1-D labels")
        if self.tokens.shape[0] != self.labels.shape[0]:
            raise ValidationError("tokens/labels batch size mismatch")

    def __len__(self):
        return self.tokens.shape[0]


def full_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every trainable tensor, in canonical enumeration order."""
    d, dk, dv, dff = cfg.d_model, cfg.d_k, cfg.d_v, cfg.d_ff
    shapes: dict[str, tuple[int, ...]] = {"embed": (cfg.vocab_size, d)}
    for i in range(cfg.n_layers):
        shapes[f"layer{i}.ln1.scale"] = (d,)
        shapes[f"layer{i}.ln1.shift"] = (d,)
        for h in range(cfg.n_heads):
            p = f"layer{i}.head{h}"
            shapes[f"{p}.wq"] = (d, dk)
            shapes[f"{p}.bq"] = (dk,)
            shapes[f"{p}.wk"] = (d, dk)
            shapes[f"{p}.bk"] = (dk,)
            shapes[f"{p}.wv"] = (d, dv)
            shapes[f"{p}.bv"] = (dv,)
        shapes[f"layer{i}.wo"] = (cfg.n_heads * dv, d)
        shapes[f"layer{i}.bo"] = (d,)
        shapes[f"layer{i}.ln2.scale"] = (d,)
        shapes[f"layer{i}.ln2.shift"] = (d,)
        shapes[f"layer{i}.w1"] = (d, dff)
        shapes[f"layer{i}.b1"] = (dff,)
        shapes[f"layer{i}.w2"] = (dff, d)
        shapes[f"layer{i}.b2"] = (d,)
    shapes["cls.w"] = (d, cfg.n_classes)
    shapes["cls.b"] = (cfg.n_classes,)
    return shapes


def _model_values(m: ModelConfig) -> int:
    """How many values the tensors of full_shapes(m) hold, from the dims."""
    d = m.d_model
    head = 2 * (d + 1) * m.d_k + (d + 1) * m.d_v + m.d_v * d  # wq, bq, wk, bk, wv, bv, wo rows
    layer = 6 * d + m.n_heads * head + (2 * d + 1) * m.d_ff
    return m.vocab_size * d + m.n_layers * layer + (d + 1) * m.n_classes


class ModelWeights:
    """Complete parameter set; the per-tensor shapes are the source of truth
    for actual (possibly sliced) widths."""

    def __init__(self, config: ModelConfig, tensors: dict[str, np.ndarray]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def param_total(self) -> int:
        return sum(int(v.size) for v in self.tensors.values())

    def qk_width(self, layer: int, head: int) -> int:
        return self.tensors[f"layer{layer}.head{head}.wq"].shape[1]

    def v_width(self, layer: int, head: int) -> int:
        return self.tensors[f"layer{layer}.head{head}.wv"].shape[1]

    def ffn_width(self, layer: int) -> int:
        return self.tensors[f"layer{layer}.w1"].shape[1]


class Flat(ModelWeights):
    """Weights whose tensors lie end to end, in order, in one float64
    vector: each of `tensors` is a view of its run of `vector`, with the
    given shape. The values start uninitialised."""

    def __init__(self, config: ModelConfig, shapes: dict[str, tuple[int, ...]]):
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.vector = np.empty(sum(sizes))
        super().__init__(config, {})
        end = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self.tensors[name] = self.vector[end:end + size].reshape(shape)
            end += size


def init_weights(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) matrices from per-tensor
    streams; biases zero, layer-norm scale one / shift zero."""
    tensors: dict[str, np.ndarray] = {}
    for idx, (name, shape) in enumerate(full_shapes(cfg).items()):
        if name.endswith(".scale"):
            tensors[name] = np.ones(shape)
        elif name.endswith((".shift", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2", "cls.b")):
            tensors[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])  # fan-in
            stream = RngStream(seed, _INIT_STREAM_BASE + idx)
            tensors[name] = stream.uniform(-bound, bound, shape)
    return ModelWeights(cfg, tensors)


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its max for stability."""
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _attention(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-stochastic scores softmax(q k^T / sqrt(d_k)) over the last two axes."""
    return _softmax(q @ k.swapaxes(-1, -2) / np.sqrt(q.shape[-1]))


def attention_scores(wq: np.ndarray, wk: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One head's score matrix softmax(x wq (x wk)^T / sqrt(d_k)), as the
    model computes it when the head's biases are zero."""
    if wq.shape != wk.shape:
        raise ShapeError(f"wq/wk shape mismatch: {wq.shape} vs {wk.shape}")
    return _attention(x @ wq, x @ wk)


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    return scale * xhat + shift, (xhat, inv_std)


def _layer_norm_backward(dy: np.ndarray, scale: np.ndarray, ln_cache):
    xhat, inv_std = ln_cache
    dscale = (dy * xhat).sum(axis=(0, 1))
    dshift = dy.sum(axis=(0, 1))
    dxhat = dy * scale
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return dx, dscale, dshift


@dataclass
class _LayerCache:
    """The activations of one layer that `backward` reads. The layer norms'
    outputs a1 and a2 are not kept: `backward` recomputes each from its
    cached (xhat, inv_std) as `scale * xhat + shift`, the expression
    `_layer_norm` used, so bit for bit the forward's values."""
    ln1: tuple | None = None
    q: list = field(default_factory=list)
    k: list = field(default_factory=list)
    v: list = field(default_factory=list)
    probs: list = field(default_factory=list)
    o_cat: np.ndarray | None = None
    ln2: tuple | None = None
    relu: np.ndarray | None = None


@dataclass
class ForwardCache:
    weights: ModelWeights
    batch: Batch
    layers: list
    pooled: np.ndarray


def _layer_forward(w: ModelWeights, i: int, x: np.ndarray,
                   cache: _LayerCache | None) -> np.ndarray:
    """Layer i applied to x, which it overwrites with its output; its
    activations go into `cache` unless it is None, in which case they are
    freed on return. The residual adds, the FFN bias and the ReLU run in
    place, bit for bit their out-of-place forms."""
    a1, ln1 = _layer_norm(x, w[f"layer{i}.ln1.scale"], w[f"layer{i}.ln1.shift"])
    heads = []
    for h in range(w.config.n_heads):
        p = f"layer{i}.head{h}"
        q = a1 @ w[f"{p}.wq"] + w[f"{p}.bq"]
        k = a1 @ w[f"{p}.wk"] + w[f"{p}.bk"]
        v = a1 @ w[f"{p}.wv"] + w[f"{p}.bv"]
        probs = _attention(q, k)
        heads.append(probs @ v)
        if cache is not None:
            cache.q.append(q)
            cache.k.append(k)
            cache.v.append(v)
            cache.probs.append(probs)
    o_cat = np.concatenate(heads, axis=-1)
    del a1, heads  # each a (B, l, *) array that nothing below reads
    x += o_cat @ w[f"layer{i}.wo"]  # x is now x2 = x + o_cat wo + bo
    x += w[f"layer{i}.bo"]
    a2, ln2 = _layer_norm(x, w[f"layer{i}.ln2.scale"], w[f"layer{i}.ln2.shift"])
    relu = a2 @ w[f"layer{i}.w1"]
    del a2  # likewise
    relu += w[f"layer{i}.b1"]
    np.maximum(relu, 0.0, out=relu)
    if cache is not None:
        cache.ln1, cache.o_cat, cache.ln2, cache.relu = ln1, o_cat, ln2, relu
    x += relu @ w[f"layer{i}.w2"]
    x += w[f"layer{i}.b2"]
    return x


def _pool(w: ModelWeights, tokens: np.ndarray, layer_caches: list) -> np.ndarray:
    """Each sequence's last-layer output averaged over its positions: every op
    here works per sample (a stacked matmul is one GEMM per sample), so a row
    of the result does not depend on the other rows of `tokens`."""
    cfg = w.config
    if tokens.shape[1] > cfg.max_seq:
        raise ValidationError(f"sequence length {tokens.shape[1]} exceeds max_seq {cfg.max_seq}")
    if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= cfg.vocab_size:
        raise ValidationError("token id out of vocabulary range")

    x = w["embed"][tokens]  # (B, l, d)
    for i, cache in enumerate(layer_caches):
        x = _layer_forward(w, i, x, cache)
    return x.mean(axis=1)


def forward(w: ModelWeights, batch: Batch) -> tuple[np.ndarray, ForwardCache]:
    """Logits for the batch and the cache `backward` needs."""
    layer_caches = [_LayerCache() for _ in range(w.config.n_layers)]
    pooled = _pool(w, batch.tokens, layer_caches)
    logits = pooled @ w["cls.w"] + w["cls.b"]
    return logits, ForwardCache(weights=w, batch=batch, layers=layer_caches, pooled=pooled)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean loss over the batch plus d(loss)/d(logits); each label is a
    class id in [0, logits.shape[1])."""
    n, n_classes = logits.shape
    # initial=0 admits an empty batch and changes no verdict on a non-empty one
    if labels.shape != (n,) or labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise ValidationError(f"labels must be {n} class ids in [0, {n_classes})")
    probs = _softmax(logits)
    loss = -np.log(probs[np.arange(n), labels]).mean()
    probs[np.arange(n), labels] -= 1.0  # now d(loss)/d(logits) times n
    return float(loss), probs / n


def backward(cache: ForwardCache, dlogits: np.ndarray,
             grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """d(loss)/d(tensor) for every tensor of the cached forward's weights, in
    tensor order, from d(loss)/d(logits) of that forward's batch.

    Each gradient is written into its array in `grads`, which must have the
    weights' names and shapes (a `Flat`'s tensors, say); every value there
    is overwritten.

    The layer norms' outputs a1 and a2 are recomputed from the cache (see
    `_LayerCache`). A layer's wq/wk/wv gradients are column slices of one
    einsum over every head's d(a1 @ w), laid side by side in one buffer,
    bit for bit the per-tensor einsums:
    - exact, because einsum sums each output coordinate over (b, l) in the
      same order whatever the output's width;
    - bias sums stay per head, because a width-1 head's (B, l, 1) sum takes
      numpy's contiguous pairwise path, which one sum over the concatenation
      would not.
    """
    w = cache.weights
    cfg = w.config
    if dlogits.shape != (len(cache.batch), cfg.n_classes):
        raise ValidationError(f"dlogits has shape {dlogits.shape}, the cached logits "
                              f"{(len(cache.batch), cfg.n_classes)}")

    np.matmul(cache.pooled.T, dlogits, out=grads["cls.w"])
    dlogits.sum(axis=0, out=grads["cls.b"])
    dpooled = dlogits @ w["cls.w"].T

    seq_len = cache.batch.tokens.shape[1]
    dx = np.repeat(dpooled[:, None, :], seq_len, axis=1) / seq_len

    for i in reversed(range(cfg.n_layers)):
        lc = cache.layers[i]
        # FFN block: x_out = x2 + relu(a2 w1 + b1) w2 + b2
        dx.sum(axis=(0, 1), out=grads[f"layer{i}.b2"])
        np.einsum("blf,bld->fd", lc.relu, dx, out=grads[f"layer{i}.w2"])
        drelu = dx @ w[f"layer{i}.w2"].T
        dh1 = drelu * (lc.relu > 0)  # relu(h1) > 0 exactly where h1 > 0
        a2 = w[f"layer{i}.ln2.scale"] * lc.ln2[0] + w[f"layer{i}.ln2.shift"]
        np.einsum("bld,blf->df", a2, dh1, out=grads[f"layer{i}.w1"])
        del a2
        dh1.sum(axis=(0, 1), out=grads[f"layer{i}.b1"])
        da2 = dh1 @ w[f"layer{i}.w1"].T
        dx2_ln, dsc2, dsh2 = _layer_norm_backward(da2, w[f"layer{i}.ln2.scale"], lc.ln2)
        np.copyto(grads[f"layer{i}.ln2.scale"], dsc2)
        np.copyto(grads[f"layer{i}.ln2.shift"], dsh2)
        dx2 = dx + dx2_ln

        # attention block: x2 = x_in + o_cat wo + bo
        dx2.sum(axis=(0, 1), out=grads[f"layer{i}.bo"])
        np.einsum("blc,bld->cd", lc.o_cat, dx2, out=grads[f"layer{i}.wo"])
        do_cat = dx2 @ w[f"layer{i}.wo"].T

        xhat1 = lc.ln1[0]
        da1 = np.zeros_like(xhat1)
        # d(a1 @ w) of every head's wq, wk, wv, side by side in grads order
        proj = [f"layer{i}.head{h}.{t}" for h in range(cfg.n_heads) for t in ("wq", "wk", "wv")]
        d_proj = np.empty(xhat1.shape[:2] + (sum(w[name].shape[1] for name in proj),))
        offset = 0
        end = 0
        for h in range(cfg.n_heads):
            p = f"layer{i}.head{h}"
            dv_h = lc.v[h].shape[-1]
            do_h = do_cat[..., offset:offset + dv_h]
            offset += dv_h
            probs = lc.probs[h]
            dprobs = do_h @ lc.v[h].transpose(0, 2, 1)
            dv = probs.transpose(0, 2, 1) @ do_h
            dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
            dscores /= np.sqrt(lc.q[h].shape[-1])
            dq = dscores @ lc.k[h]
            dk = dscores.transpose(0, 2, 1) @ lc.q[h]
            dq.sum(axis=(0, 1), out=grads[f"{p}.bq"])
            dk.sum(axis=(0, 1), out=grads[f"{p}.bk"])
            dv.sum(axis=(0, 1), out=grads[f"{p}.bv"])
            for d in (dq, dk, dv):
                d_proj[..., end:end + d.shape[-1]] = d
                end += d.shape[-1]
            da1 += dq @ w[f"{p}.wq"].T + dk @ w[f"{p}.wk"].T + dv @ w[f"{p}.wv"].T

        a1 = w[f"layer{i}.ln1.scale"] * xhat1 + w[f"layer{i}.ln1.shift"]
        d_cat = np.einsum("bld,blk->dk", a1, d_proj)
        del a1, d_proj
        end = 0
        for name in proj:
            np.copyto(grads[name], d_cat[:, end:end + w[name].shape[1]])
            end += w[name].shape[1]

        dx_ln, dsc1, dsh1 = _layer_norm_backward(da1, w[f"layer{i}.ln1.scale"], lc.ln1)
        np.copyto(grads[f"layer{i}.ln1.scale"], dsc1)
        np.copyto(grads[f"layer{i}.ln1.shift"], dsh1)
        dx = dx2 + dx_ln

    grads["embed"].fill(0.0)
    np.add.at(grads["embed"], cache.batch.tokens, dx)
    return grads


def sgd_step(params: Flat, grads: Flat, lr: float) -> None:
    """params -= lr * grads in place, bit for bit `w - lr * g` on every
    tensor; `grads` is left holding lr * grads. A non-finite gradient
    refuses the step, naming the first such tensor in order, and leaves
    both untouched."""
    if not np.isfinite(grads.vector).all():
        name = next(name for name, g in grads.tensors.items() if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient in {name}; step refused")
    grads.vector *= lr
    params.vector -= grads.vector


def _cores() -> int:
    """How many cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _eval_chunks(tokens: np.ndarray) -> list[np.ndarray]:
    """The rows of the evaluation batch's (non-empty) token matrix cut into
    near-equal, non-empty runs of at most about _EVAL_ROWS token positions
    each. A batch of at most _EVAL_ROWS positions stays whole, so it starts
    no thread; one that needs more chunks gets a multiple of the core count
    (or one chunk per row), so every thread of `_map_threads` takes as many."""
    n, seq_len = tokens.shape
    k = -(-n * seq_len // _EVAL_ROWS)
    if k > 1:
        cores = _cores()
        k = -(-k // cores) * cores
    return np.array_split(tokens, max(1, min(n, k)))


def _map_threads(fn, items: list) -> list:
    """[fn(x) for x in items] on one thread per usable core, the caller among
    them, so one item starts no thread. Thread t takes items t, t + n, ...
    and runs them in a copy of the caller's context (numpy's errstate is a
    context variable); the exception of the first item that raised is
    re-raised in the caller."""
    # The caller works as one of the threads, not waiting on a pool: each
    # extra thread that allocates gets its own glibc malloc arena. With a
    # ThreadPoolExecutor of two workers (caller waiting), perfbench medium's
    # peak RSS rose from 87.3-89.1 to 95.0-98.1 MB (3 runs each, 2-core Xeon).
    n = min(_cores(), len(items))
    results = [None] * len(items)
    errors = {}

    def work(first):
        for j in range(first, len(items), n):
            try:
                results[j] = fn(items[j])
            except BaseException as exc:
                errors[j] = exc
                return

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, t))
               for t in range(1, n)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]
    return results


def evaluate(w: ModelWeights, batch: Batch) -> tuple[float, float]:
    """Accuracy and mean cross-entropy over the samples of a non-empty
    batch, bit for bit those of `forward` on it.

    The batch's sequences are pooled in chunks of about _EVAL_ROWS token
    positions, whose activations stay in cache, on every usable core. The
    classifier then runs once on all the pooled rows, as in `forward`: it
    is one GEMM over all rows, and BLAS may round a row differently when
    the GEMM has fewer rows."""
    if not len(batch):
        raise ValidationError("evaluation batch is empty")
    no_cache = [None] * w.config.n_layers
    pooled = _map_threads(lambda tokens: _pool(w, tokens, no_cache), _eval_chunks(batch.tokens))
    logits = np.concatenate(pooled) @ w["cls.w"] + w["cls.b"]
    loss, _ = softmax_cross_entropy(logits, batch.labels)
    return int((logits.argmax(axis=1) == batch.labels).sum()) / len(batch), loss
