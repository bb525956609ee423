"""Numeric kernels: softmax, mass normalization, clamped cosine, head balancing."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vgalab.errors import InvalidInput
from vgalab.grounding import vsc_vector, vss_values
from vgalab.numerics import (
    DEGENERATE_EPS,
    _clamped_cosines,
    head_scales,
    stable_softmax,
    unit_mass,
)

ORACLE_TOL = 1e-12
SUM_TOL = 1e-9

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def softmax_oracle(row):
    exps = [np.exp(x - max(row)) for x in row]
    total = sum(exps)
    return [e / total for e in exps]


@given(arrays(np.float64, st.integers(1, 12), elements=finite_floats))
def test_stable_softmax_matches_oracle(row):
    got = stable_softmax(row)
    want = softmax_oracle(list(row))
    assert np.allclose(got, want, rtol=0, atol=ORACLE_TOL)
    assert abs(got.sum() - 1.0) < SUM_TOL
    assert np.all(got > 0)


@given(
    arrays(np.float64, (4, 6), elements=finite_floats),
    st.floats(min_value=-30, max_value=30, allow_nan=False),
)
def test_stable_softmax_shift_invariant(matrix, shift):
    base = stable_softmax(matrix)
    shifted = stable_softmax(matrix + shift)
    assert np.allclose(base, shifted, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: vsc_vector(np.array([["a", "b"]]), 0),
        lambda: vss_values(np.array([[1 + 1j, 2, 0.5]]), k=2),
        lambda: vsc_vector(np.array([[0.5, None]]), 0),
        lambda: vss_values([[1.0, 2.0], [3.0]], k=2),
        lambda: vss_values(np.array([["1", "2"]]), k=2),
        lambda: vsc_vector(np.array([[True, False]]), 0),
    ],
    ids=["vsc-str", "vss-complex", "object", "ragged", "vss-str", "vsc-bool"],
)
def test_checked_entry_points_reject_arrays_that_do_not_hold_reals(call):
    """The kinds the attention kernels reject: no complex value loses its
    imaginary part, no string is parsed and no bool is read as 0 or 1."""
    with pytest.raises(InvalidInput):
        call()


@given(arrays(np.float64, st.integers(1, 20), elements=st.floats(0, 1e6)))
def test_sum_normalize_unit_mass_or_degenerate(values):
    """``unit_mass`` sum-normalizes, or falls back to uniform."""
    normalized, degenerate = unit_mass(values)
    assert abs(normalized.sum() - 1.0) < SUM_TOL
    assert np.all(normalized >= 0)
    if degenerate:
        assert np.allclose(normalized, 1.0 / values.size)
        assert values.sum() < DEGENERATE_EPS
    else:
        # atol floors at 1e-300: ratios of denormal components underflow,
        # far below any mass the package ever treats as meaningful
        assert np.allclose(normalized * values.sum(), values, rtol=1e-12, atol=1e-300)


def frozen_vector_unit_mass(values):
    """``unit_mass`` of a vector as its own branch stated it before a vector
    became one row of a stack, kept as the oracle."""
    total = float(np.add.reduce(values, None))
    if total < DEGENERATE_EPS:
        return np.full(values.shape, 1.0 / values.shape[-1], dtype=values.dtype), True
    return values / total, False


@settings(max_examples=60)
@given(
    st.sampled_from([np.float64, np.float32]),
    st.integers(1, 5),
    st.integers(1, 12),
    st.data(),
)
def test_unit_mass_of_a_stack_is_the_vector_call_per_row(dtype, k, n, data):
    """Each row, degenerate ones among them, comes out byte for byte what
    the frozen vector branch gives, a stack of one row (every guided
    generation) too; so does the vector call, on each row and on each
    strided column."""
    rows = data.draw(arrays(dtype, (k, n), elements=st.floats(0, 1e6, width=32)))
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, k - 1))] = 0.0
    stacked, degenerate = unit_mass(rows)
    assert stacked.dtype == dtype and len(degenerate) == k
    vectors = list(rows) + [rows[:, j] for j in range(n)]
    for row, got, flag in zip(rows, stacked, degenerate):
        want, want_flag = frozen_vector_unit_mass(row)
        assert got.tobytes() == want.tobytes()
        assert flag == want_flag
    for vector in vectors:
        got, flag = unit_mass(vector)
        want, want_flag = frozen_vector_unit_mass(vector)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert flag is want_flag


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("scale", [1.0, 100.0], ids=["spread", "near-degenerate"])
def test_unit_mass_of_softmax_columns_matches_the_frozen_vector_branch(dtype, scale):
    """The strided ``probs[:, t]`` columns programmed suppression reads; at
    scale 100 most columns sum below ``DEGENERATE_EPS`` or near it."""
    logits = np.random.default_rng(3).normal(0.0, scale, (8, 46)).astype(dtype)
    probs = stable_softmax(logits)
    for t in range(probs.shape[1]):
        got, flag = unit_mass(probs[:, t])
        want, want_flag = frozen_vector_unit_mass(probs[:, t])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert flag is want_flag


def test_sum_normalize_degenerate_is_uniform():
    normalized, degenerate = unit_mass(np.zeros(5))
    assert degenerate
    assert np.allclose(normalized, 0.2)


def cosines(a, b):
    return _clamped_cosines(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def test_cosine_clamps_to_unit_interval():
    # anti-parallel clamps to 0, parallel hits 1, a zero vector compares as 0
    assert cosines([[1.0, 0.0]], [[-1.0, 0.0]]) == [0.0]
    assert cosines([[2.0, 0.0]], [[5.0, 0.0]]) == [pytest.approx(1.0)]
    assert cosines([[0.0, 0.0]], [[1.0, 1.0]]) == [0.0]


@given(
    arrays(np.float64, 5, elements=finite_floats),
    arrays(np.float64, 5, elements=finite_floats),
)
@settings(max_examples=60)
def test_cosine_range_and_symmetry(a, b):
    [s] = cosines([a], [b])
    assert 0.0 <= s <= 1.0
    assert s == pytest.approx(cosines([b], [a])[0], abs=1e-12)


@settings(max_examples=60)
@given(st.integers(1, 20), st.integers(1, 30), st.data())
def test_cosine_sim_clamped_takes_each_rows_dots_from_np_dot(rows, n, data):
    """``_clamped_cosines`` of a matrix [rows, n] is bit for bit the clamped
    cosine of np.dot's a.a, a.b and b.b on each row, and a one-row matrix
    is its first row."""
    a = data.draw(arrays(np.float64, (rows, n), elements=finite_floats))
    b = data.draw(arrays(np.float64, (rows, n), elements=finite_floats))
    got = _clamped_cosines(a, b)
    assert len(got) == rows
    assert _clamped_cosines(a[:1], b[:1]) == got[:1]
    for x, y, sim in zip(a, b, got):
        xx, xy, yy = float(np.dot(x, x)), float(np.dot(x, y)), float(np.dot(y, y))
        na, nb = math.sqrt(xx), math.sqrt(yy)
        if na == 0.0 or nb == 0.0:
            want = 0.0
        elif na * nb == 0.0:
            want = 1.0 if xy > 0.0 else 0.0
        else:
            want = min(1.0, max(0.0, xy / (na * nb)))
        assert sim == want


@st.composite
def head_stacks(draw):
    """k rows of [H, dh] pairs and a coefficient per row. A row is free, has
    zero and anti-aligned heads, or has every cosine zero (its mass is
    degenerate); from 8 heads on numpy sums a row's cosines pairwise."""
    k, n_heads, d_head = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    elements = st.floats(-1e3, 1e3, allow_nan=False)
    z = draw(arrays(np.float64, (k, n_heads, d_head), elements=elements)).copy()
    dz = draw(arrays(np.float64, (k, n_heads, d_head), elements=elements)).copy()
    for j in range(k):
        kind = draw(st.sampled_from(["free", "mixed", "zero_cosines"]))
        if kind == "zero_cosines":
            dz[j] = -z[j]
        elif kind == "mixed":
            for h in range(n_heads):
                head = draw(st.sampled_from(["free", "zero_z", "zero_dz", "anti"]))
                if head == "zero_z":
                    z[j, h] = 0.0
                elif head == "zero_dz":
                    dz[j, h] = 0.0
                elif head == "anti":
                    dz[j, h] = -draw(st.floats(0.1, 10.0)) * z[j, h]
    coef = draw(st.lists(st.floats(0.0, 4.0), min_size=k, max_size=k))
    return z, dz, coef


@given(head_stacks())
@settings(max_examples=200)
def test_head_scales_is_the_composition_of_the_cores_byte_for_byte(stack):
    """The one-call core equals cosine -> unit mass -> ReLU(2 - H gamma') ->
    coef * gamma composed from the array cores, for one row and for stacks."""
    z, dz, coef = stack
    k, n_heads, d_head = z.shape
    sims = np.array(_clamped_cosines(z.reshape(-1, d_head), dz.reshape(-1, d_head)))
    gamma_prime, _ = unit_mass(sims.reshape(k, n_heads))
    want = np.array(coef)[:, None] * np.maximum(0.0, 2.0 - n_heads * gamma_prime)
    got = head_scales(z, dz, coef)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
