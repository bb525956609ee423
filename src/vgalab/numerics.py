"""Pure numeric kernels: stabilized softmax, mass normalization, clamped cosine.

``sum_normalize`` and ``cosine_sim_clamped`` are the entry points for
arrays from outside the program, and ``_as_float_array`` is their check,
which ``grounding`` runs once on outside visual logits: it checks shapes,
raises InvalidInput on NaN/Inf and on arrays that do not hold real
numbers (complex, string, object or bool) instead of propagating poison
or parsing them, preserves float dtypes and computes in float64
otherwise; ``sum_normalize`` also rejects negative mass.
``stable_softmax`` and ``unit_mass`` are the unchecked cores, the only
statement of each formula but one; the guidance hook calls them directly
on arrays the forward pass built from checked inputs, and ``grounding``
calls ``stable_softmax`` on the visual logits it has checked. ``head_scales``
finishes the hook's head balancing in one call on the cosines of
``_clamped_cosines``, and states the unit-mass rule a second time, on
Python floats (the ``DEGENERATE_EPS`` uniform fallback and the division
by each row's total);
``test_head_scales_is_the_composition_of_the_cores_byte_for_byte`` holds
it byte-equal to ``unit_mass``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInput, ShapeError

DEGENERATE_EPS = 1e-12


def _real_array(x, name: str) -> np.ndarray:
    """``x`` as an array of integers or floats, as the attention kernels
    take: a complex array would lose its imaginary part in a float cast,
    and a string array would be parsed."""
    try:
        arr = np.asarray(x)
    except ValueError:  # a ragged nested sequence
        raise InvalidInput(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} must hold real numbers, got {arr.dtype}")
    return arr


def _as_float_array(x, name: str, min_dim: int = 1, max_dim: int = 2) -> np.ndarray:
    arr = _real_array(x, name)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    if arr.ndim < min_dim or arr.ndim > max_dim:
        raise ShapeError(f"{name} must have {min_dim}..{max_dim} dims, got {arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains NaN or Inf")
    return arr


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a finite float vector or matrix,
    unchecked. Each row is shifted by its max before exponentiation, so the
    result is invariant to per-row constant shifts. The reductions are the
    ufuncs ``max`` and ``sum`` call, without their Python wrappers, and the
    exponent and quotient are written into one new array."""
    exps = logits - np.maximum.reduce(logits, -1, None, None, True)  # keepdims
    np.exp(exps, out=exps)
    exps /= np.add.reduce(exps, -1, None, None, True)
    return exps


def unit_mass(values: np.ndarray) -> tuple[np.ndarray, bool | list[bool]]:
    """Unchecked core of ``sum_normalize``; ``values`` is a finite,
    nonnegative float vector, or a stack of them [k, n] scaled row by row.

    ``degenerate`` is a bool for a vector and a list of bools, one per row,
    for a stack; each row is bit for bit what the vector call on it returns.
    """
    if values.ndim == 2:
        totals = np.add.reduce(values, 1, None, None, True)  # keepdims
        degenerate = [total < DEGENERATE_EPS for total, in totals.tolist()]
        # a degenerate row divides by the floor, not by ~0, and is then overwritten
        out = values / np.maximum(totals, DEGENERATE_EPS)
        if True in degenerate:
            out[degenerate] = 1.0 / values.shape[1]
        return out, degenerate
    total = float(np.add.reduce(values, None))  # values.sum() minus its Python-level wrapper
    if total < DEGENERATE_EPS:
        return np.full(values.shape, 1.0 / values.shape[-1], dtype=values.dtype), True
    return values / total, False


def sum_normalize(values) -> tuple[np.ndarray, bool]:
    """Scale a nonnegative vector to unit sum.

    Returns (normalized, degenerate). When the input mass is below
    ``DEGENERATE_EPS`` the result is the uniform distribution and
    ``degenerate`` is True; downstream guidance treats that as "no
    information". Negative entries raise InvalidInput.
    """
    arr = _as_float_array(values, "values", max_dim=1)
    if (arr < 0).any():
        raise InvalidInput("sum_normalize requires nonnegative entries")
    return unit_mass(arr)


def _clamped_cosines(a: np.ndarray, b: np.ndarray) -> list[float]:
    """The clamped cosine of every row of ``a`` and ``b``, in row order, as
    Python floats: the one statement of the formula.

    The dots of every row (a.a, a.b, b.a, b.b) run as one batched BLAS
    call, the pair of arrays against itself, each bit for bit the 1-d
    ``np.dot`` of that row. The rows are few (one per head on the guidance
    path), so they are finished on Python floats rather than by a chain of
    numpy calls on a handful of elements. A row whose norm product
    underflows to zero, though neither norm is zero, gets what the clamped
    IEEE division would give: 1 for a positive dot, else 0. The clamp is
    spelled with comparisons, equal to ``min(1, max(0, cos))``.
    """
    n = a.shape[-1]
    pair = np.concatenate((a, b))
    # [2, 1, rows, 1, n] @ [2, rows, n, 1]: matmul's vector-vector path is
    # the BLAS dot np.dot uses, so every row comes out bit-identical to the
    # 1-d call on that row
    gram = pair.reshape(2, 1, -1, 1, n) @ pair.reshape(2, -1, n, 1)
    aa, ab, _, bb = gram.reshape(4, -1).tolist()
    sqrt = math.sqrt
    sims = []
    for xx, xy, yy in zip(aa, ab, bb):
        if xx == 0.0 or yy == 0.0:
            sims.append(0.0)
        elif (norms := sqrt(xx) * sqrt(yy)) == 0.0:
            sims.append(1.0 if xy > 0.0 else 0.0)
        else:
            cos = xy / norms
            sims.append(1.0 if cos >= 1.0 else cos if cos > 0.0 else 0.0)
    return sims


def head_scales(z: np.ndarray, dz: np.ndarray, coef: list[float]) -> np.ndarray:
    """Head-balanced guidance scales ``coef[j] * gamma[j, h]`` [k, H] of k
    rows [k, H, dh]: the guidance hook's head balancing, and the only
    statement of it.

    gamma = ReLU(2 - H * gamma'), where gamma' is the unit mass of the
    row's clamped cosines ``cos(z[j, h], dz[j, h])`` over its heads
    (uniform when they sum below ``DEGENERATE_EPS``). Heads whose output
    already points along the correction get gamma below 1, the rest more;
    the mean is 1 whenever the ReLU clips nothing. ``z`` and ``dz`` are
    finite float64 arrays of one shape and ``coef`` holds one Python float
    per row. Every value is bit for bit ``coef * np.maximum(0, 2 - H *
    gamma')`` with gamma' the ``unit_mass`` of the [k, H] stack of
    ``cosine_sim_clamped`` over the heads: one batched dot for the cosines,
    then Python floats. A row's total must be the sum numpy's
    ``add.reduce`` takes. Below numpy's pairwise-sum block size of 8
    values that is a left-to-right sum, which
    ``sum`` takes too; from 8 heads on every row's total comes from one
    ``add.reduce`` over the stacked rows. The 8 is numpy's internal block
    size, so ``test_head_scales_is_the_composition_of_the_cores_byte_for_byte``
    draws 1 to 12 heads: a numpy release that moves the block size fails it.
    """
    n_heads = z.shape[1]
    sims = _clamped_cosines(z, dz)
    rows = [sims[j * n_heads : (j + 1) * n_heads] for j in range(len(coef))]
    if n_heads < 8:
        totals = [sum(row) for row in rows]
    else:
        totals = np.add.reduce(np.array(sims).reshape(len(coef), n_heads), 1).tolist()
    scales = []
    for c, row, total in zip(coef, rows, totals):
        if total < DEGENERATE_EPS:  # uniform gamma': each head's share is 1/H
            row, total = [1.0 / n_heads] * n_heads, 1.0
        scales.append([c * (g if (g := 2.0 - n_heads * (s / total)) > 0.0 else 0.0) for s in row])
    return np.array(scales)


def cosine_sim_clamped(a, b) -> float | np.ndarray:
    """Cosine similarity clamped to [0, 1]; zero vectors compare as 0.

    Accepts two vectors (returns a float) or two matrices compared row by
    row (returns one similarity per row).
    """
    va = _as_float_array(a, "a")
    vb = _as_float_array(b, "b")
    if va.shape != vb.shape:
        raise ShapeError(f"length mismatch: {va.shape} vs {vb.shape}")
    sim = np.array(_clamped_cosines(va, vb), dtype=np.result_type(va, vb))
    return float(sim[0]) if va.ndim == 1 else sim
