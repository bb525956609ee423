"""Causal multi-head attention in two interchangeable flavors.

``attention_explicit`` materializes the attention matrix and can splice an
additive guidance row into it: the kernel of ``core.reference_forward``,
the oracle, which also profiles BOS attention.

``attention_fused`` streams over key blocks with an online softmax and
never exposes weights, mimicking fused kernels whose internals are
unavailable. It works head-major ([H, T, dh], one batched ``matmul`` per
block for the scores and one for the values) and masks only the blocks
that hold keys past the first query row's position. Its online-softmax
carry needs no guard against a row that has seen no key yet: key 0 is in
the first block and visible to every row, so each row's running max is
finite after that block. Guidance for this path is applied *outside* the
kernel by ``GuidanceRow.apply``, the value-space form of the same splice
(output + beta * gamma_h * rho * sum_i G_i V_i), on the last row of every
guided batch entry at once; equivalence of the two routes is a tested
invariant.

Shapes: q is [Tq, H, dh]; k and v are [Tk, H, dh] with Tk >= Tq. Query row
i sits at absolute position (Tk - Tq + i) and attends keys 0..that
position (causal). Computation accumulates in float64.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import InvalidInput, ShapeError

_KEY_BLOCK = 64


class GuidanceRow(NamedTuple):
    """Additive guidance for the visual columns of the last query row of k
    batch entries.

    ``entries`` picks the guided entries on the batch axis: a slice when
    they are contiguous, else an index array. ``weights`` [k, m] holds one
    unit-mass vector over the visual span ``span`` per entry; head h of
    guided entry j receives ``weights[j]`` scaled by ``scales[j, h]`` (beta *
    rho * gamma_h). ``delta`` [k, H, dh] is the value mix those weights
    select, ``sum_i weights[j, i] * v[span[0] + i]`` per head. A named
    tuple, immutable and cheaper to build than a frozen dataclass: the hook
    builds one per guided layer of every generated token.
    """

    entries: slice | np.ndarray
    weights: np.ndarray
    scales: np.ndarray
    span: tuple[int, int]
    delta: np.ndarray

    def apply(self, z_last: np.ndarray) -> None:
        """Guide ``z_last`` [B, H, dh], the entries' last rows, in place: each
        guided entry's row gains its scaled value mix, ``z + s * delta``
        elementwise. A slice picks the rows as a view, which takes the sum
        in place; an index array picks a copy, which is written back."""
        boost = self.scales[..., None] * self.delta
        if type(self.entries) is slice:
            rows = z_last[self.entries]
            rows += boost
        else:
            z_last[self.entries] += boost


def _check_qkv(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError("q, k, v must be [T, n_heads, d_head]")
    if k.shape != v.shape:
        raise ShapeError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
    if q.shape[1:] != k.shape[1:]:
        raise ShapeError(f"q vs k head dims mismatch: {q.shape} vs {k.shape}")
    if q.shape[0] > k.shape[0]:
        raise ShapeError("more query rows than key rows (cache shorter than queries)")
    return (
        np.ascontiguousarray(q, dtype=np.float64),
        np.ascontiguousarray(k, dtype=np.float64),
        np.ascontiguousarray(v, dtype=np.float64),
    )


def attention_explicit(q, k, v, guidance: GuidanceRow | None = None):
    """Reference attention; returns (z, alpha) with alpha shaped [H, Tq, Tk].

    With ``guidance``, a row for this one sequence (k = 1, entry 0), the
    last query row's weights over the visual span get the additive boost
    before the value reduction, so the returned alpha is the guided matrix
    (its guided row sums to 1 + scales[0, h]).
    """
    q, k, v = _check_qkv(q, k, v)
    tq, n_heads, d_head = q.shape
    tk = k.shape[0]
    offset = tk - tq

    scores = np.einsum("qhd,khd->hqk", q, k) / np.sqrt(d_head)
    cols = np.arange(tk)[None, :]
    rows = (np.arange(tq) + offset)[:, None]
    scores = np.where(cols <= rows, scores, -np.inf)

    alpha = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha /= alpha.sum(axis=-1, keepdims=True)

    if guidance is not None:
        s, e = guidance.span
        if not (0 <= s < e <= tk):
            raise ShapeError(f"guidance span [{s}, {e}) outside key range {tk}")
        g = np.asarray(guidance.weights, dtype=np.float64)
        if g.shape != (1, e - s):
            raise ShapeError("guidance weights must be one entry's [1, m] over the visual span")
        if e - 1 > offset + tq - 1:
            raise InvalidInput("guidance span is not visible to the last query row")
        alpha = alpha.copy()
        alpha[:, -1, s:e] += guidance.scales[0][:, None] * g

    z = np.einsum("hqk,khd->qhd", alpha, v)
    return z, alpha


def attention_fused(q, k, v) -> np.ndarray:
    """Streaming attention; returns z only, weights are never materialized.

    Works head-major: each key block is one batched ``matmul`` over heads
    for the scores and one for the value reduction, with the running max
    and denominator kept as [H, Tq, 1].
    """
    q, k, v = _check_qkv(q, k, v)
    tq, n_heads, d_head = q.shape
    tk = k.shape[0]
    offset = tk - tq

    qh = q.transpose(1, 0, 2) * (1.0 / np.sqrt(d_head))  # [H, Tq, dh]
    kh = k.transpose(1, 2, 0)  # [H, dh, Tk]
    vh = v.transpose(1, 0, 2)  # [H, Tk, dh]
    rows = (np.arange(tq) + offset)[:, None]

    running_max = denom = acc = None
    for start in range(0, tk, _KEY_BLOCK):
        stop = min(start + _KEY_BLOCK, tk)
        scores = qh @ kh[:, :, start:stop]  # [H, Tq, block]
        if stop - 1 > offset:  # some key lies past row 0's position
            scores = np.where(np.arange(start, stop) <= rows, scores, -np.inf)
        block_max = scores.max(axis=-1, keepdims=True)
        if acc is None:
            # Key 0 sits in this block and every row sees it, so the running
            # max is finite from here on: a later block that a row cannot see
            # at all gives exp(-inf - finite) = 0, and no carry needs a guard.
            running_max = block_max
            weights = np.exp(scores - running_max)
            denom = weights.sum(axis=-1, keepdims=True)
            acc = weights @ vh[:, start:stop]
            continue
        new_max = np.maximum(running_max, block_max)
        carry = np.exp(running_max - new_max)
        weights = np.exp(scores - new_max)
        denom = denom * carry + weights.sum(axis=-1, keepdims=True)
        acc = acc * carry + weights @ vh[:, start:stop]
        running_max = new_max

    return (acc / denom).transpose(1, 0, 2)
