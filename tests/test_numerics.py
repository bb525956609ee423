"""Numeric kernels: softmax, mass normalization, clamped cosine."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vgalab.errors import InvalidInput, ShapeError
from vgalab.grounding import Grounding, vsc_vector, vss_values
from vgalab.numerics import (
    DEGENERATE_EPS,
    cosine_sim_clamped,
    head_scales,
    stable_softmax,
    sum_normalize,
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


def test_sum_normalize_rejects_nonfinite_and_empty():
    with pytest.raises(InvalidInput):
        sum_normalize([1.0, np.nan])
    with pytest.raises(InvalidInput):
        sum_normalize([np.inf, 0.0])
    with pytest.raises(ShapeError):
        sum_normalize(np.zeros(0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: vsc_vector(np.array([["a", "b"]]), 0),
        lambda: vss_values(np.array([[1 + 1j, 2, 0.5]]), k=2),
        lambda: sum_normalize(np.array(["1", "2"])),
        lambda: cosine_sim_clamped(np.array([True, False]), np.array([1.0, 2.0])),
        lambda: sum_normalize(np.array([0.5, None])),
        lambda: sum_normalize([[1.0, 2.0], [3.0]]),
        lambda: Grounding.from_values(["1", "2"]),
        lambda: Grounding.from_values([True, False]),
        lambda: Grounding.from_values(np.array([1 + 1j, 2])),
    ],
    ids=[
        "vsc-str",
        "vss-complex",
        "sum_normalize-str",
        "cosine-bool",
        "object",
        "ragged",
        "from_values-str",
        "from_values-bool",
        "from_values-complex",
    ],
)
def test_checked_entry_points_reject_arrays_that_do_not_hold_reals(call):
    """The kinds the attention kernels reject: no complex value loses its
    imaginary part, no string is parsed and no bool is read as 0 or 1."""
    with pytest.raises(InvalidInput):
        call()


@given(arrays(np.float64, st.integers(1, 20), elements=st.floats(0, 1e6)))
def test_sum_normalize_unit_mass_or_degenerate(values):
    normalized, degenerate = sum_normalize(values)
    assert abs(normalized.sum() - 1.0) < SUM_TOL
    assert np.all(normalized >= 0)
    if degenerate:
        assert np.allclose(normalized, 1.0 / values.size)
        assert values.sum() < DEGENERATE_EPS
    else:
        # atol floors at 1e-300: ratios of denormal components underflow,
        # far below any mass the package ever treats as meaningful
        assert np.allclose(normalized * values.sum(), values, rtol=1e-12, atol=1e-300)


@settings(max_examples=60)
@given(
    st.sampled_from([np.float64, np.float32]),
    st.integers(1, 5),
    st.integers(1, 12),
    st.data(),
)
def test_unit_mass_of_a_stack_is_the_vector_call_per_row(dtype, k, n, data):
    """Each row, degenerate ones among them, comes out byte for byte, a
    stack of one row (every guided generation) too."""
    rows = data.draw(arrays(dtype, (k, n), elements=st.floats(0, 1e6, width=32)))
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, k - 1))] = 0.0
    stacked, degenerate = unit_mass(rows)
    assert stacked.dtype == dtype and len(degenerate) == k
    for row, got, flag in zip(rows, stacked, degenerate):
        want, want_flag = unit_mass(row)
        assert got.tobytes() == want.tobytes()
        assert flag == want_flag


def test_sum_normalize_degenerate_is_uniform():
    normalized, degenerate = sum_normalize(np.zeros(5))
    assert degenerate
    assert np.allclose(normalized, 0.2)


def test_sum_normalize_rejects_negative():
    with pytest.raises(InvalidInput):
        sum_normalize([0.5, -0.1])


def test_cosine_clamps_to_unit_interval():
    # anti-parallel clamps to 0, parallel hits 1
    assert cosine_sim_clamped([1.0, 0.0], [-1.0, 0.0]) == 0.0
    assert cosine_sim_clamped([2.0, 0.0], [5.0, 0.0]) == pytest.approx(1.0)
    assert cosine_sim_clamped([0.0, 0.0], [1.0, 1.0]) == 0.0


@given(
    arrays(np.float64, 5, elements=finite_floats),
    arrays(np.float64, 5, elements=finite_floats),
)
@settings(max_examples=60)
def test_cosine_range_and_symmetry(a, b):
    s = cosine_sim_clamped(a, b)
    assert 0.0 <= s <= 1.0
    assert s == pytest.approx(cosine_sim_clamped(b, a), abs=1e-12)


@settings(max_examples=60)
@given(st.integers(1, 20), st.integers(1, 30), st.data())
def test_cosine_sim_clamped_takes_each_rows_dots_from_np_dot(rows, n, data):
    """A matrix [rows, n] is bit for bit the clamped cosine of np.dot's a.a,
    a.b and b.b on each row, and a vector is its one row."""
    a = data.draw(arrays(np.float64, (rows, n), elements=finite_floats))
    b = data.draw(arrays(np.float64, (rows, n), elements=finite_floats))
    got = cosine_sim_clamped(a, b)
    assert got.shape == (rows,)
    assert cosine_sim_clamped(a[0], b[0]) == got[0]
    for x, y, sim in zip(a, b, got.tolist()):
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
    cosines = cosine_sim_clamped(z.reshape(-1, d_head), dz.reshape(-1, d_head))
    gamma_prime, _ = unit_mass(cosines.reshape(k, n_heads))
    want = np.array(coef)[:, None] * np.maximum(0.0, 2.0 - n_heads * gamma_prime)
    got = head_scales(z, dz, coef)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cosine_shape_mismatch():
    with pytest.raises(ShapeError):
        cosine_sim_clamped([1.0, 2.0], [1.0, 2.0, 3.0])

