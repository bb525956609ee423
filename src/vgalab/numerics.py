"""Pure numeric kernels: stabilized softmax, mass normalization, clamped
cosine, head balancing.

Every kernel here is unchecked: it takes finite float arrays that the
forward pass built from checked inputs, or that ``errors.require_array``
has checked. ``stable_softmax``, ``unit_mass``
and ``_clamped_cosines`` state each formula once, but for one restatement:
``head_scales`` finishes the hook's head balancing in one call on the
cosines of ``_clamped_cosines``, and states the unit-mass rule a second
time, on Python floats (the ``DEGENERATE_EPS`` uniform fallback and the
division by each row's total);
``test_head_scales_is_the_composition_of_the_cores_byte_for_byte`` holds
it byte-equal to ``unit_mass``.
"""
from __future__ import annotations

import math

import numpy as np

DEGENERATE_EPS = 1e-12


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
    """Scale a finite, nonnegative float vector to unit sum, or a stack of
    them [k, n] row by row. Returns (normalized, degenerate): a vector whose
    mass is below ``DEGENERATE_EPS`` becomes the uniform distribution and is
    degenerate, which downstream guidance reads as "no information".

    ``degenerate`` is a bool for a vector and a list of bools, one per row,
    for a stack; a vector is normalized as the one row of a stack.
    """
    if values.ndim == 1:
        out, (degenerate,) = unit_mass(values.reshape(1, -1))
        return out[0], degenerate
    totals = np.add.reduce(values, 1, None, None, True)  # keepdims
    degenerate = [total < DEGENERATE_EPS for total, in totals.tolist()]
    # a degenerate row divides by the floor, not by ~0, and is then overwritten
    out = values / np.maximum(totals, DEGENERATE_EPS)
    if True in degenerate:
        out[degenerate] = 1.0 / values.shape[1]
    return out, degenerate


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
    ``_clamped_cosines`` over the heads: one batched dot for the cosines,
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
