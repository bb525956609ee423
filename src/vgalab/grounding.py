"""Grounding maps computed from a model's own visual-token logits.

Each visual position's vocabulary logits are read as semantics: the
softmax probability a patch assigns to an object word measures how
confident the model is that the patch shows that object (``vsc_vector``),
and summed log-improbability of the top-k tokens gives an object-agnostic
salience (``vss_values``). Both return raw per-patch values. The guidance
session (``vga.VgaSession``) scales them to unit mass over the image with
``numerics.unit_mass`` and reads each entry's result back as a
``Grounding``. Visual logits from outside the program, masks and
grounding weights pass one check, ``errors.require_array``, before
anything reads them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, ShapeError, require_array, require_int
from .numerics import stable_softmax
from .vocab import Vocabulary

DEFAULT_TOP_K = 10
L0_EPS = 1e-12


def support_share(weights: np.ndarray) -> float:
    """rho of a nondegenerate grounding's weights [m]: the fraction of
    positions whose weight is strictly above ``L0_EPS``."""
    return float(np.count_nonzero(weights > L0_EPS)) / weights.size


@dataclass(frozen=True)
class Grounding:
    """A normalized distribution over visual positions.

    ``rho`` is derived, never passed: the fraction of positions whose
    weight is strictly above ``L0_EPS``. A degenerate source (all mass
    suppressed) yields uniform weights with ``rho = 0`` so that
    downstream guidance scales itself to a no-op.
    """

    weights: np.ndarray
    degenerate: bool
    rho: float = field(init=False)

    def __post_init__(self) -> None:
        w = require_array(self.weights, "grounding weights", 1)
        object.__setattr__(self, "weights", w)
        w.flags.writeable = False
        object.__setattr__(self, "rho", 0.0 if self.degenerate else support_share(w))


@dataclass(frozen=True)
class MaskAnnotation:
    """Ground-truth per-patch coverage fractions for one object word."""

    word: str
    overlaps: np.ndarray

    def __post_init__(self) -> None:
        g = require_array(self.overlaps, "overlaps", 1)
        if not ((g >= 0) & (g <= 1)).all():
            raise InvalidInput("overlap coefficients must lie in [0, 1]")
        object.__setattr__(self, "overlaps", g)
        g.flags.writeable = False

    @property
    def patch_count(self) -> int:
        return int(np.count_nonzero(self.overlaps))


def vsc_vector(visual_logits: np.ndarray, word: int) -> np.ndarray:
    """Per-patch softmax confidence assigned to one token id (length m)."""
    logits = require_array(visual_logits, "visual logits", 2)
    word = require_int(word, "token id", InvalidInput)
    m, v = logits.shape
    if not 0 <= word < v:
        raise InvalidInput(f"token id {word} out of range for vocab size {v}")
    return stable_softmax(logits)[:, word]


def vss_values(
    visual_logits: np.ndarray, k: int = DEFAULT_TOP_K, sign: str = "raw"
) -> np.ndarray:
    """Raw per-patch salience: top-k log-improbability, unnormalized.

    For each patch the k most probable tokens contribute
    -sum(log p) / log(k); ``sign="flipped"`` replaces values x by
    max(x) - x for models where low raw values mark the salient patches.
    Values are finite and nonnegative either way.
    """
    logits = require_array(visual_logits, "visual logits", 2)
    k = require_int(k, "top-k", InvalidInput)
    m, v = logits.shape
    if not 2 <= k <= v:
        raise InvalidInput(f"top-k must satisfy 2 <= k <= {v}, got {k}")
    if sign not in ("raw", "flipped"):
        raise InvalidInput(f"unknown vss sign {sign!r}")
    # finite logits whose spread passes float64's range overflow here, and
    # are refused below rather than handed on as an infinite salience
    with np.errstate(over="ignore"):
        # log-softmax keeps tiny probabilities finite where softmax underflows
        shifted = logits - np.max(logits, axis=1, keepdims=True)
        logprobs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
        # top-k per row; order within the k does not matter for the sum
        topk = np.partition(logprobs, v - k, axis=1)[:, v - k:]
        values = -np.sum(topk, axis=1) / np.log(k)
    if not np.isfinite(values).all():
        raise InvalidInput("visual logits spread too widely for a finite salience")
    if sign == "flipped":
        values = np.max(values) - values
    return values


def dice(c: np.ndarray, g: np.ndarray | MaskAnnotation) -> float:
    """Soft overlap score 2*sum(c*g) / (sum(c) + sum(g)) in [0, 1]."""
    a = require_array(c, "dice input", 1)
    b = require_array(g.overlaps if isinstance(g, MaskAnnotation) else g, "dice input", 1)
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if np.any(a < 0) or np.any(b < 0):
        raise InvalidInput("dice inputs must be nonnegative")
    denom = float(np.sum(a) + np.sum(b))
    if denom == 0.0:
        raise InvalidInput("dice undefined when both vectors are all-zero")
    return float(2.0 * np.sum(a * b) / denom)


_WORD_RE = re.compile(r"[a-z0-9']+")


def extract_objects(question: str, vocab: Vocabulary) -> list[str]:
    """Vocabulary object words mentioned in the question, in order, deduped."""
    if not isinstance(question, str):
        raise InvalidInput(f"question must be a str, got {type(question).__name__}")
    seen: list[str] = []
    known = vocab.lower_objects
    for token in _WORD_RE.findall(question.lower()):
        word = known.get(token)
        if word is not None and word not in seen:
            seen.append(word)
    return seen
