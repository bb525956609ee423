"""Grounding maps from visual logits: confidence, salience, overlap scores."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vgalab.errors import InvalidInput, ShapeError
from vgalab.grounding import (
    L0_EPS,
    Grounding,
    MaskAnnotation,
    dice,
    extract_objects,
    vsc_vector,
    vss_values,
)
from vgalab.mllm import SequenceLayout
from vgalab.numerics import DEGENERATE_EPS, unit_mass
from vgalab.vga import VgaConfig, new_session
from vgalab.vocab import make_vocab

ORACLE_TOL = 1e-10
MASS_TOL = 1e-9

logit_matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(3, 12).flatmap(
        lambda v: arrays(
            np.float64, (m, v), elements=st.floats(-30, 30, allow_nan=False)
        )
    )
)


def softmax_row(row):
    exps = [math.exp(x - max(row)) for x in row]
    total = sum(exps)
    return [e / total for e in exps]


@given(logit_matrices)
@settings(max_examples=60)
def test_vsc_vector_matches_per_patch_oracle(logits):
    word = logits.shape[1] // 2
    got = vsc_vector(logits, word)
    want = [softmax_row(list(row))[word] for row in logits]
    assert np.allclose(got, want, rtol=0, atol=ORACLE_TOL)


def test_vsc_bounds_checks():
    logits = np.zeros((2, 4))
    with pytest.raises(InvalidInput):
        vsc_vector(logits, 4)
    with pytest.raises(InvalidInput):
        vsc_vector(logits, -1)
    with pytest.raises(ShapeError):
        vsc_vector(np.zeros(4), 0)
    with pytest.raises(ShapeError):
        vsc_vector(np.zeros((2, 2, 2)), 0)
    with pytest.raises(InvalidInput):
        vsc_vector(np.full((2, 4), np.nan), 0)
    with pytest.raises(InvalidInput):
        vss_values(np.array([[np.inf, 0.0, 1.0]]), k=2)
    for empty in (np.zeros((0, 4)), np.zeros((2, 0))):
        with pytest.raises(ShapeError):
            vsc_vector(empty, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda logits: vsc_vector(logits, 2.5),
        lambda logits: vsc_vector(logits, True),  # not read as column 1
        lambda logits: vsc_vector(logits, "1"),
        lambda logits: vss_values(logits, k=2.5),
        lambda logits: vss_values(logits, k="3"),
        lambda logits: make_vocab(("dog", "cat")).word_of(2.5),
        lambda logits: make_vocab(("dog", "cat")).word_of("x"),
    ],
    ids=["vsc-float", "vsc-bool", "vsc-str", "vss-float-k", "vss-str-k",
         "word_of-float", "word_of-str"],
)
def test_non_integer_ids_and_k_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call(np.zeros((2, 4)))


@given(logit_matrices)
@settings(max_examples=40)
def test_object_grounding_is_normalized(logits):
    """One object word's grounding: its confidence column at unit mass."""
    g = Grounding(*unit_mass(vsc_vector(logits, 0)))
    assert abs(g.weights.sum() - 1.0) < MASS_TOL
    assert np.all(g.weights >= 0)
    assert 0.0 <= g.rho <= 1.0


def test_merge_takes_elementwise_max_then_normalizes(clean_model):
    """A question naming two objects is grounded on the elementwise max of
    their normalized confidence columns, normalized again, against a plain
    softmax, max and divide."""
    vocab, m = clean_model.vocab, clean_model.config.n_patches
    logits = np.random.default_rng(4).normal(scale=3.0, size=(m, vocab.size))
    layout = SequenceLayout(tuple(range(m + 2)), 1, 1 + m)
    question = "is there a dog or a cat ?"
    session = new_session(clean_model, VgaConfig(guidance_source="vsc"), question)
    session.on_visual(logits, [layout])
    probs = np.array([softmax_row(list(row)) for row in logits])
    columns = [probs[:, vocab.id_of(w)] / probs[:, vocab.id_of(w)].sum() for w in ("dog", "cat")]
    merged = np.maximum(*columns)
    np.testing.assert_allclose(
        session.groundings[0].weights, merged / merged.sum(), rtol=0, atol=ORACLE_TOL
    )
    assert not session.groundings[0].degenerate


def vss_oracle(logits, k):
    out = []
    for row in logits:
        probs = softmax_row(list(row))
        logp = sorted((math.log(p) for p in probs), reverse=True)[:k]
        out.append(-sum(logp) / math.log(k))
    return out


@given(logit_matrices, st.integers(2, 5))
@settings(max_examples=60)
def test_vss_values_match_topk_oracle(logits, k):
    k = min(k, logits.shape[1])
    got = vss_values(logits, k=k)
    want = vss_oracle(logits, k)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)
    assert np.all(got >= 0)
    flipped = vss_values(logits, k=k, sign="flipped")
    assert np.allclose(flipped, got.max() - got, atol=1e-12)


def test_vss_normalizes_and_validates():
    logits = np.random.default_rng(0).normal(size=(5, 8))
    weights, degenerate = unit_mass(vss_values(logits, k=3))
    assert abs(weights.sum() - 1.0) < MASS_TOL and not degenerate
    with pytest.raises(InvalidInput):
        vss_values(logits, k=1)
    with pytest.raises(InvalidInput):
        vss_values(logits, k=9)
    with pytest.raises(InvalidInput):
        vss_values(logits, sign="sideways")
    # finite logits whose spread overflows float64: no infinite salience
    wide = np.array([[1e308, -1e308, 0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
    for sign in ("raw", "flipped"):
        with pytest.raises(InvalidInput):
            vss_values(wide, k=3, sign=sign)


def grounding_of(values):
    """The Grounding the session makes of per-patch values: their unit mass."""
    return Grounding(*unit_mass(np.array(values, dtype=np.float64)))


def test_grounding_from_values_and_degeneracy():
    g = grounding_of([0.0, 3.0, 1.0, 0.0])
    assert not g.degenerate
    assert g.rho == 0.5
    assert g.weights.tolist() == [0.0, 0.75, 0.25, 0.0]
    flat = grounding_of(np.zeros(4))
    assert flat.degenerate
    assert flat.rho == 0.0
    assert np.allclose(flat.weights, 0.25)
    with pytest.raises(ValueError):
        g.weights[0] = 1.0  # frozen buffer


def test_grounding_rho_counts_weights_strictly_above_eps():
    assert grounding_of([0.0, 0.0, 1.0, 2.0]).rho == 0.5
    assert grounding_of([0.0, 0.0]).rho == 0.0
    assert grounding_of([1e-13, 1.0]).rho == 0.5
    assert Grounding(np.array([L0_EPS, 1.0 - L0_EPS]), degenerate=False).rho == 0.5
    assert Grounding(np.array([0.5, 0.0, 0.5]), degenerate=False).rho == pytest.approx(2.0 / 3.0)
    assert Grounding(np.full(4, 0.25), degenerate=True).rho == 0.0


@st.composite
def nonnegative_vectors(draw):
    """Finite nonnegative vectors, some all-zero, some below the degenerate
    mass, some with entries at exactly ``L0_EPS``."""
    n = draw(st.integers(1, 16))
    values = draw(arrays(np.float64, n, elements=st.floats(0.0, 1e6))).copy()
    kind = draw(st.sampled_from(["free", "zero", "tiny", "at_eps"]))
    if kind == "zero":
        values[:] = 0.0
    elif kind == "tiny":
        values *= 0.5 * DEGENERATE_EPS / (values.sum() + 1.0)
    elif kind == "at_eps":
        at_eps = draw(arrays(np.bool_, n))
        values[at_eps] = L0_EPS
        values[0] = 1.0 - L0_EPS * np.count_nonzero(at_eps[1:])
    return values


@given(nonnegative_vectors())
@settings(max_examples=200)
def test_unit_mass_grounding_matches_a_plain_reference(values):
    """The core the guidance session grounds with, against a plain divide by
    the sum (uniform below ``DEGENERATE_EPS``) and a count of the weights
    above ``L0_EPS``."""
    got = Grounding(*unit_mass(values))
    total = sum(values.tolist())
    degenerate = total < DEGENERATE_EPS
    want = [1.0 / len(values)] * len(values) if degenerate else [x / total for x in values.tolist()]
    np.testing.assert_allclose(got.weights, want, rtol=1e-12, atol=0)
    assert got.degenerate == degenerate
    if not degenerate:
        assert got.rho == sum(w > L0_EPS for w in got.weights.tolist()) / len(values)


def test_mask_annotation_validation():
    m = MaskAnnotation(word="dog", overlaps=np.array([0.0, 1.0, 0.5]))
    assert m.patch_count == 2
    with pytest.raises(InvalidInput):
        MaskAnnotation(word="dog", overlaps=np.array([0.0, 1.5]))
    with pytest.raises(InvalidInput):
        MaskAnnotation(word="dog", overlaps=np.array([-0.1, 0.5]))
    with pytest.raises(ShapeError):
        MaskAnnotation(word="dog", overlaps=np.zeros((2, 2)))
    for overlaps in (
        ["x", "y"],
        [[0.0, 1.0], [1.0]],  # ragged
        [0.5, np.nan],
        [0.5, np.inf],
        [-np.inf, 0.5],
    ):
        with pytest.raises(InvalidInput):
            MaskAnnotation(word="dog", overlaps=overlaps)


def test_dice_hand_values():
    assert dice(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert dice(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    mask = MaskAnnotation(word="dog", overlaps=np.array([1.0, 1.0, 0.0, 0.0]))
    assert dice(mask.overlaps, mask) == 1.0
    # half the mass on target: 2*0.5 / (1 + 2)
    assert dice(np.array([0.5, 0.0, 0.5, 0.0]), mask) == pytest.approx(1.0 / 3.0)


def test_dice_validation():
    with pytest.raises(ShapeError):
        dice(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError):
        dice(np.zeros(0), np.zeros(0))
    with pytest.raises(InvalidInput):
        dice(np.array([-1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(InvalidInput):
        dice(np.zeros(3), np.zeros(3))
    with pytest.raises(InvalidInput):
        dice("ab", np.ones(2))
    with pytest.raises(InvalidInput):
        dice(np.ones(2), [None, 1.0])


def test_extract_objects_order_dedup_case():
    vocab = make_vocab(("dog", "cat", "car"), n_background=3)
    text = "Is there a CAT next to the dog, or another cat?"
    assert extract_objects(text, vocab) == ["cat", "dog"]
    assert extract_objects("nothing here", vocab) == []
    assert extract_objects("", vocab) == []
    for question in (None, 3, ["dog"]):
        with pytest.raises(InvalidInput):
            extract_objects(question, vocab)
