"""The toy visual-prefix decoder: weights, KV cache, prefill/decode, greedy loop.

Architecture: learned absolute positional embeddings, pre-norm residual
blocks (RMS gains), causal multi-head attention, a 2-layer GELU MLP, and a
final unembedding with no output norm. Weights are stored float32; the
hidden stream is upcast to float64 once at the embedding so every
downstream op accumulates in f64.

Prefill runs in two phases over a single pass of the prompt: the visual
prefix first (yielding per-patch vocabulary logits), then the remaining
text rows attending the cached prefix. The prefix runs without a hook, so
its keys, values and logits depend on the prefix tokens alone, and prompts
that share it share one run of it: ``prefill_shared`` runs the prefix once
and the text tails of all its prompts as one batched forward over its
cached rows, each batch entry what a ``prefill`` of that prompt alone
computes, bit for bit on models with more than one head. The forward pass
takes token ids [B, n]; the attention kernel sees the batch entries' heads
side by side on its head axis, since heads never mix. One guidance hook,
when attached, serves the whole batch: it binds to the read-only visual
logits between the phases, and on each layer it guides it receives the
last row of every entry at once, with which it may guide any of them.
The hook is duck-typed:

    guided_layers                             range of the layers it guides
    on_visual(visual_logits, layouts, vocab)  -> None
    correction(layer, z_last, v_cache)        -> GuidanceRow | None
    on_token(token_id)                        -> None

``on_visual`` gets every prompt's layout, one per batch entry, all sharing
the visual span of ``layouts[0]``; a hook that serves another number of
entries rejects them there. The forward pass calls ``correction``, and
takes the last rows for it, only on a layer in ``guided_layers``, so a
hook with an empty range (one that can never guide) costs no call per
layer. ``z_last`` [B, H, dh] holds every entry's last-row attention
output, and ``v_cache`` is a read-only view of the cached value rows:
those every entry shares, the visual prefix among them (for B = 1, also
the rows the entry has just appended). ``on_token`` is the greedy loop's:
it reports each generated token before the next decode step. The forward
pass applies a correction in value space (``GuidanceRow.apply``) to the
entries it names. ``reference_forward`` is the oracle: an uncached
recompute of one prompt with the explicit kernel, which splices the same
weights into the guided row's attention matrix; the two must agree.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from ..errors import CapacityError, InvalidInput, ShapeError, require_int
from ..vocab import Vocabulary
from .attention import attention_explicit, attention_fused
from .config import ModelConfig, SequenceLayout

_NORM_EPS = 1e-6

# Rows pushed through the network since the last reset; guided and vanilla
# generation must tally identical counts for the same prompts.
_FORWARD_ROWS = 0


def forward_rows_count() -> int:
    return _FORWARD_ROWS


def reset_forward_rows() -> None:
    global _FORWARD_ROWS
    _FORWARD_ROWS = 0


@dataclass(frozen=True)
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    norm1: np.ndarray
    norm2: np.ndarray
    mlp_w1: np.ndarray
    mlp_w2: np.ndarray


# The model's tensor set in container file order: container name, the field
# holding it, and its shape as ModelConfig attributes. Rows named
# "layers.{i}.*" are LayerWeights fields; their block repeats per layer.
_TENSORS = (
    ("embed.tok", "embed_tok", ("vocab_size", "d_model")),
    ("embed.pos", "embed_pos", ("max_seq_len", "d_model")),
    ("layers.{i}.wq", "wq", ("d_model", "d_model")),
    ("layers.{i}.wk", "wk", ("d_model", "d_model")),
    ("layers.{i}.wv", "wv", ("d_model", "d_model")),
    ("layers.{i}.wo", "wo", ("d_model", "d_model")),
    ("layers.{i}.norm1", "norm1", ("d_model",)),
    ("layers.{i}.norm2", "norm2", ("d_model",)),
    ("layers.{i}.mlp.w1", "mlp_w1", ("d_model", "d_ff")),
    ("layers.{i}.mlp.w2", "mlp_w2", ("d_ff", "d_model")),
    ("unembed", "unembed", ("d_model", "vocab_size")),
)


def tensor_table(config: ModelConfig) -> Iterator[tuple[str, int | None, str, tuple[int, ...]]]:
    """(container name, layer index or None, field, shape) of each tensor, in file order."""
    for per_layer, rows in groupby(_TENSORS, key=lambda row: "{i}" in row[0]):
        rows = tuple(rows)
        for i in range(config.n_layers) if per_layer else (None,):
            for name, field, dims in rows:
                yield name.format(i=i), i, field, tuple(getattr(config, d) for d in dims)


@dataclass(frozen=True)
class Model:
    """Immutable weight bundle; arrays are float32 and write-protected."""

    config: ModelConfig
    vocab: Vocabulary
    embed_tok: np.ndarray
    embed_pos: np.ndarray
    layers: tuple[LayerWeights, ...]
    unembed: np.ndarray

    def __post_init__(self) -> None:
        cfg = self.config
        if self.vocab.size != cfg.vocab_size:
            raise ShapeError("vocabulary size disagrees with config")
        if len(self.layers) != cfg.n_layers:
            raise ShapeError(f"expected {cfg.n_layers} layers, got {len(self.layers)}")
        for name, i, field, shape in tensor_table(cfg):
            arr = getattr(self if i is None else self.layers[i], field)
            if not isinstance(arr, np.ndarray):
                raise ShapeError(f"{name}: expected a numpy array, got {type(arr).__name__}")
            if arr.shape != shape:
                raise ShapeError(f"{name}: expected shape {shape}, got {arr.shape}")
            if arr.dtype != np.float32:
                raise ShapeError(f"{name}: expected float32, got {arr.dtype}")
            if not np.all(np.isfinite(arr)):
                raise InvalidInput(f"{name} contains NaN or Inf")
            arr.flags.writeable = False

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by container name, in file order."""
        return {
            name: getattr(self if i is None else self.layers[i], field)
            for name, i, field, _ in tensor_table(self.config)
        }

    @classmethod
    def from_tensors(cls, config: ModelConfig, vocab: Vocabulary, tensors) -> "Model":
        """The inverse of ``named_tensors``: a model from its tensors by container name."""
        top: dict = {}
        layers: list[dict] = [{} for _ in range(config.n_layers)]
        for name, i, field, _ in tensor_table(config):
            if name not in tensors:
                raise ShapeError(f"missing tensor {name!r}")
            (top if i is None else layers[i])[field] = tensors[name]
        return cls(config, vocab, layers=tuple(LayerWeights(**kw) for kw in layers), **top)


class KvCache:
    """Preallocated per-layer key/value store, float64, append-only.

    Every layer's keys and values are views of one block. Rows past
    ``length`` are uninitialized: every read goes through ``view``, which
    stops at the written rows and hands out the value rows read-only, so a
    guidance hook can read but never overwrite them.
    """

    def __init__(self, config: ModelConfig) -> None:
        # One allocation, not 2 * n_layers: once a freed block has raised
        # glibc's mmap threshold above its size, later caches reuse heap
        # pages instead of page-faulting fresh mappings on every prefill.
        kv = np.empty((2, config.n_layers, config.max_seq_len, config.n_heads, config.d_head))
        self.k, self.v = list(kv[0]), list(kv[1])
        self._v_read = [v.view() for v in self.v]
        for v in self._v_read:
            v.flags.writeable = False
        self._len = 0
        self.capacity = config.max_seq_len

    @property
    def length(self) -> int:
        return self._len

    def write(self, layer: int, start: int, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        stop = start + k_rows.shape[0]
        if stop > self.capacity:
            raise CapacityError(f"cache capacity {self.capacity} exceeded at position {stop}")
        self.k[layer][start:stop] = k_rows
        self.v[layer][start:stop] = v_rows

    def advance(self, n_rows: int) -> None:
        self._len += n_rows

    def view(self, layer: int, upto: int) -> tuple[np.ndarray, np.ndarray]:
        return self.k[layer][:upto], self._v_read[layer][:upto]


@dataclass
class PrefillResult:
    """Everything a guidance session needs after one pass over the prompt."""

    cache: KvCache | None
    visual_logits: np.ndarray
    last_logits: np.ndarray
    bos_attention: tuple[float, ...] | None = None


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    # np.mean's own arithmetic (sum, then divide by the count), without its
    # Python wrapper: this runs twice per layer of every forward.
    scale = np.sqrt(np.square(x).sum(axis=-1, keepdims=True) / x.shape[-1] + _NORM_EPS)
    return x / scale * gain


def gelu(x: np.ndarray) -> np.ndarray:
    # tanh-form GELU; exactness vs erf is irrelevant at toy scale. The cube
    # is two multiplies: np.power(x, 3) costs ~14x as much for the same value.
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def _check_ids(config: ModelConfig, token_ids: np.ndarray, stop: int) -> None:
    """Typed errors for ids that would run past ``max_seq_len`` (at absolute
    position ``stop``) or lie outside the vocabulary."""
    if stop > config.max_seq_len:
        raise CapacityError(f"sequence of length {stop} exceeds max_seq_len {config.max_seq_len}")
    if (token_ids < 0).any() or (token_ids >= config.vocab_size).any():
        raise InvalidInput("token id out of vocabulary range")


def _fold_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[B, n, d_model] -> [n, B*H, d_head]: the entries' heads side by side.

    Attention treats every head on its own, so a batch rides on the
    kernel's head axis; for B = 1 this is a view.
    """
    b, n, d = a.shape
    return a.swapaxes(0, 1).reshape(n, b * n_heads, d // n_heads)


def _join(shared: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Every entry's keys (or values): the shared rows [e, H, dh], then its own [n, B*H, dh]."""
    e, h, dh = shared.shape
    n, bh, _ = own.shape
    out = np.empty((e + n, bh // h, h, dh))
    out[:e] = shared[:, None]
    out[e:] = own.reshape(n, bh // h, h, dh)
    return out.reshape(e + n, bh, dh)


def _forward_block(
    model: Model,
    token_ids: np.ndarray,
    start_pos: int,
    cache: KvCache,
    *,
    hook=None,
) -> np.ndarray:
    """Push ``token_ids`` [B, n] (absolute positions start_pos..) through all layers.

    One row (B = 1) appends its keys and values to ``cache``. A batch
    (B > 1) reads the cache's first ``start_pos`` rows, shared by every
    entry, followed by each entry's own rows, so the entries never see each
    other, and writes nothing. ``hook``, if given, guides the entries' last
    rows on each of its ``guided_layers``, handed a read-only view of the
    cached value rows. Returns the logits [B, n, V].
    """
    global _FORWARD_ROWS
    cfg = model.config
    b, n = token_ids.shape
    _check_ids(cfg, token_ids, start_pos + n)

    x = (
        model.embed_tok[token_ids].astype(np.float64)
        + model.embed_pos[start_pos : start_pos + n].astype(np.float64)
    )
    n_heads, d_head = cfg.n_heads, cfg.d_head
    guided = range(0) if hook is None else hook.guided_layers

    for layer_idx, lw in enumerate(model.layers):
        hn = rms_norm(x, lw.norm1)
        q = _fold_heads(hn @ lw.wq, n_heads)
        k = _fold_heads(hn @ lw.wk, n_heads)
        v = _fold_heads(hn @ lw.wv, n_heads)
        if b == 1:
            cache.write(layer_idx, start_pos, k, v)
            k_all, v_all = cache.view(layer_idx, start_pos + n)
            v_cache = v_all
        else:
            k_shared, v_cache = cache.view(layer_idx, start_pos)
            k_all, v_all = _join(k_shared, k), _join(v_cache, v)

        z = attention_fused(q, k_all, v_all).reshape(n, b, n_heads, d_head)
        if layer_idx in guided:
            z_last = z[-1]
            corr = hook.correction(layer_idx, z_last, v_cache)
            if corr is not None:
                corr.apply(z_last)

        x = x + z.swapaxes(0, 1).reshape(b, n, cfg.d_model) @ lw.wo
        x = x + gelu(rms_norm(x, lw.norm2) @ lw.mlp_w1) @ lw.mlp_w2

    _FORWARD_ROWS += b * n
    return x @ model.unembed


def _prefill(
    model: Model, layouts: Sequence[SequenceLayout], hook
) -> tuple[KvCache, np.ndarray, np.ndarray]:
    """Run the prompts' shared visual prefix once, then their text tails as one batch.

    The prefix rows ``[0, visual_end)`` of ``layouts[0]`` run unguided into
    a new cache; the hook, if any, binds to the read-only visual logits and
    the layouts, whose visual span every prompt shares; then the tails,
    of equal length, run as one [B, n] forward under the hook, which
    extends the cache only for B = 1. The first prompt is checked whole
    before the prefix runs, so it fails before the hook binds. Returns
    (cache, visual logits, last-row logits [B, V]).
    """
    first = layouts[0]
    ids = first.ids_array()
    _check_ids(model.config, ids, first.length)
    e = first.visual_end
    cache = KvCache(model.config)
    logits = _forward_block(model, ids[None, :e], 0, cache)
    cache.advance(e)
    visual_logits = logits[0, first.visual_start : e]
    visual_logits.flags.writeable = False
    if hook is not None:
        hook.on_visual(visual_logits, layouts, model.vocab)

    if e < first.length:
        tails = np.array([layout.token_ids[e:] for layout in layouts], dtype=np.int64)
        logits = _forward_block(model, tails, e, cache, hook=hook)
        if len(layouts) == 1:
            cache.advance(first.length - e)
    return cache, visual_logits, logits[:, -1].copy()


def reference_forward(
    model: Model, layout: SequenceLayout, hook=None
) -> tuple[np.ndarray, list[float]]:
    """Every row's logits [T, V] and the last row's per-layer BOS attention,
    from a plain uncached recompute of the whole prompt: the oracle.

    It shares no code with the cached forward pass beyond the weights,
    ``rms_norm`` and ``gelu``: its own projections, the explicit kernel, no
    cache. With a hook, an unguided pass gives the read-only visual logits
    the hook binds to; then, when the prompt has a text tail, a second pass
    hands the hook the last row on each of its guided layers and recomputes
    that row with the returned weights spliced into its attention matrix.
    The BOS attention is the last row's head-max weight on position 0, read
    before the splice.
    """
    cfg = model.config
    ids = layout.ids_array()
    t, n_heads, d_head = layout.length, cfg.n_heads, cfg.d_head
    _check_ids(cfg, ids, t)

    def run(guided: range) -> tuple[np.ndarray, list[float]]:
        x = model.embed_tok[ids].astype(np.float64) + model.embed_pos[:t].astype(np.float64)
        bos = []
        for layer, lw in enumerate(model.layers):
            hn = rms_norm(x, lw.norm1)
            q, k, v = ((hn @ w).reshape(t, n_heads, d_head) for w in (lw.wq, lw.wk, lw.wv))
            v.flags.writeable = False
            z, alpha = attention_explicit(q, k, v)
            bos.append(float(alpha[:, -1, 0].max()))
            if layer in guided:
                row = hook.correction(layer, z[-1:], v)
                if row is not None:
                    z[-1] = attention_explicit(q[-1:], k, v, guidance=row)[0][0]
            x = x + z.reshape(t, cfg.d_model) @ lw.wo
            x = x + gelu(rms_norm(x, lw.norm2) @ lw.mlp_w1) @ lw.mlp_w2
        return x @ model.unembed, bos

    logits, bos = run(range(0))
    if hook is None:
        return logits, bos
    visual_logits = logits[layout.visual_start : layout.visual_end]
    visual_logits.flags.writeable = False
    hook.on_visual(visual_logits, [layout], model.vocab)
    if layout.visual_end == t:
        return logits, bos
    return run(hook.guided_layers)


def prefill(
    model: Model,
    layout: SequenceLayout,
    hook=None,
    *,
    record_attention: bool = False,
) -> PrefillResult:
    """One pass over the prompt; visual rows first, then the text tail.

    The split lets an attached hook ground itself on the visual logits
    before the text rows (the only guided ones) are processed, without a
    second pass. ``record_attention`` runs ``reference_forward`` instead
    and records each layer's last-row attention to position 0; that result
    keeps no cache.
    """
    if record_attention:
        logits, bos = reference_forward(model, layout, hook)
        visual_logits = logits[layout.visual_start : layout.visual_end]
        return PrefillResult(None, visual_logits, logits[-1], tuple(bos))
    cache, visual_logits, last_logits = _prefill(model, [layout], hook)
    return PrefillResult(cache, visual_logits, last_logits[0])


def prefill_shared(model: Model, layouts: Sequence[SequenceLayout], hook=None) -> np.ndarray:
    """Last-row logits [B, V] of prompts that share one visual prefix, in one forward.

    The prompts must match ``layouts[0]`` in ``visual_end``, in the tokens
    before it and in length, and have a text tail. The prefix runs once;
    the hook, if any, binds to its read-only visual logits and then guides
    every prompt's last row at once (a ``VgaSession`` with one entry per
    prompt, in order); the text tails run as one batch over the prefix
    rows. Row b is bit for bit what ``prefill`` of ``layouts[b]`` under a
    one-entry session for that prompt computes, except that one-row tails
    on a one-head model may differ in the last bits (BLAS reduces a lone
    contiguous head by another path). No cache is kept, so the prompts
    cannot be decoded further.
    """
    if not layouts:
        raise InvalidInput("need one or more prompts")
    first = layouts[0]
    e = first.visual_end
    for layout in layouts:
        if layout.visual_end != e or layout.token_ids[:e] != first.token_ids[:e]:
            raise InvalidInput("prompts do not share one visual prefix")
        if layout.length != first.length:
            raise InvalidInput("text tails of unequal length cannot share one forward")
    if first.length == e:
        raise InvalidInput("prompts have no text tail after the prefix")
    return _prefill(model, layouts, hook)[2]


def decode_step(model: Model, cache: KvCache, token_id: int, hook=None) -> np.ndarray:
    """Append one token and return the next-token logits."""
    token_id = require_int(token_id, "token_id", InvalidInput)
    ids = np.asarray([[token_id]], dtype=np.int64)
    logits = _forward_block(model, ids, cache.length, cache, hook=hook)
    cache.advance(1)
    return logits[0, 0]


def greedy_generate(
    model: Model,
    layout: SequenceLayout,
    vga=None,
    max_len: int = 512,
) -> list[int]:
    """Greedy decoding until EOS, ``max_len`` tokens, or cache capacity.

    Ties resolve to the lowest token id. When a guidance session is given
    it is attached as the prefill/decode hook and notified of every
    generated token (which is what drives per-token guidance updates).
    """
    if require_int(max_len, "max_len", InvalidInput) < 1:
        raise InvalidInput("max_len must be >= 1")
    result = prefill(model, layout, hook=vga)
    logits = result.last_logits
    eos = model.vocab.eos_id
    out: list[int] = []
    while True:
        token = int(np.argmax(logits))
        out.append(token)
        if vga is not None:
            vga.on_token(token)
        if token == eos or len(out) == max_len or result.cache.length >= result.cache.capacity:
            return out
        logits = decode_step(model, result.cache, token, hook=vga)


def generated_words(model: Model, token_ids: Sequence[int]) -> list[str]:
    """Map generated ids to words, dropping nothing; helper for reporting."""
    return [model.vocab.word_of(t) for t in token_ids]
