"""Grounding maps computed from a model's own visual-token logits.

Each visual position's vocabulary logits are read as semantics: the
softmax probability a patch assigns to an object word measures how
confident the model is that the patch shows that object. Normalizing
those per-patch confidences over the image yields a grounding vector;
summed log-improbability of the top-k tokens yields an object-agnostic
salience map. Both are plain length-m distributions suitable for
steering attention.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, ShapeError, require_int, require_real
from .numerics import _as_float_array, _real_array, stable_softmax, sum_normalize
from .vocab import Vocabulary

EXIST_LOG_THRESHOLD = -2.5
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
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        w.flags.writeable = False
        object.__setattr__(self, "rho", 0.0 if self.degenerate else support_share(w))

    @property
    def size(self) -> int:
        return int(self.weights.shape[0])

    @staticmethod
    def from_values(values: np.ndarray) -> "Grounding":
        """Sum-normalize nonnegative per-patch values into a Grounding,
        computed in float64; values that are not real numbers (strings,
        bools, complex) raise ``InvalidInput``."""
        values = _real_array(values, "values").astype(np.float64, copy=False)
        return Grounding(*sum_normalize(values))


@dataclass(frozen=True)
class MaskAnnotation:
    """Ground-truth per-patch coverage fractions for one object word."""

    word: str
    overlaps: np.ndarray

    def __post_init__(self) -> None:
        try:
            g = np.asarray(self.overlaps, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"overlaps must be an array of reals: {exc}") from None
        if g.ndim != 1:
            raise ShapeError(f"overlaps must be 1-d, got shape {g.shape}")
        # NaN fails both comparisons and +-inf fails one: this is the finiteness check too
        if not ((g >= 0) & (g <= 1)).all():
            raise InvalidInput("overlap coefficients must be finite and lie in [0, 1]")
        object.__setattr__(self, "overlaps", g)
        g.flags.writeable = False

    @property
    def patch_count(self) -> int:
        return int(np.count_nonzero(self.overlaps))


def _check_visual_logits(visual_logits) -> np.ndarray:
    """Outside visual logits [m, V] as a finite float64 array."""
    return _as_float_array(visual_logits, "visual logits", 2).astype(np.float64, copy=False)


def vsc_vector(visual_logits: np.ndarray, word: int) -> np.ndarray:
    """Per-patch softmax confidence assigned to one token id (length m)."""
    logits = _check_visual_logits(visual_logits)
    word = require_int(word, "token id", InvalidInput)
    m, v = logits.shape
    if not 0 <= word < v:
        raise InvalidInput(f"token id {word} out of range for vocab size {v}")
    return stable_softmax(logits)[:, word]


def image_confidence(visual_logits: np.ndarray, word: int) -> float:
    """Image-level confidence: the best patch's confidence for the word."""
    return float(np.max(vsc_vector(visual_logits, word)))


def exists(conf: float, threshold: float = EXIST_LOG_THRESHOLD) -> bool:
    """Existence decision: ln(conf) strictly above the log-threshold.
    Both must be finite real numbers, and ``conf`` positive."""
    conf = require_real(conf, "confidence", InvalidInput)
    threshold = require_real(threshold, "threshold", InvalidInput)
    if not np.isfinite(conf):
        raise InvalidInput("confidence must be finite")
    if not np.isfinite(threshold):
        raise InvalidInput("threshold must be finite")
    if conf <= 0.0:
        raise InvalidInput("confidence must be positive")
    return bool(np.log(conf) > threshold)


def object_grounding(visual_logits: np.ndarray, word: int) -> Grounding:
    """Normalized per-patch confidence map for one object word."""
    return Grounding.from_values(vsc_vector(visual_logits, word))


def merge_groundings(groundings: list[Grounding]) -> Grounding:
    """Elementwise max across groundings, renormalized to sum 1."""
    if not groundings:
        raise InvalidInput("merge_groundings requires at least one grounding")
    if not all(isinstance(gr, Grounding) for gr in groundings):
        raise InvalidInput("merge_groundings takes Grounding values")
    size = groundings[0].size
    for gr in groundings[1:]:
        if gr.size != size:
            raise ShapeError(f"grounding lengths differ: {gr.size} vs {size}")
    stacked = np.stack([gr.weights for gr in groundings])
    return Grounding.from_values(np.max(stacked, axis=0))


def vss_values(
    visual_logits: np.ndarray, k: int = DEFAULT_TOP_K, sign: str = "raw"
) -> np.ndarray:
    """Raw per-patch salience: top-k log-improbability, unnormalized.

    For each patch the k most probable tokens contribute
    -sum(log p) / log(k); ``sign="flipped"`` replaces values x by
    max(x) - x for models where low raw values mark the salient patches.
    Values are nonnegative either way.
    """
    logits = _check_visual_logits(visual_logits)
    k = require_int(k, "top-k", InvalidInput)
    m, v = logits.shape
    if not 2 <= k <= v:
        raise InvalidInput(f"top-k must satisfy 2 <= k <= {v}, got {k}")
    if sign not in ("raw", "flipped"):
        raise InvalidInput(f"unknown vss sign {sign!r}")
    # log-softmax keeps tiny probabilities finite where softmax underflows
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    logprobs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    # top-k per row; order within the k does not matter for the sum
    topk = np.partition(logprobs, v - k, axis=1)[:, v - k:]
    values = -np.sum(topk, axis=1) / np.log(k)
    if sign == "flipped":
        values = np.max(values) - values
    return values


def vss(visual_logits: np.ndarray, k: int = DEFAULT_TOP_K, sign: str = "raw") -> Grounding:
    """Object-agnostic salience grounding: ``vss_values`` sum-normalized."""
    return Grounding.from_values(vss_values(visual_logits, k=k, sign=sign))


def dice(c: np.ndarray, g: np.ndarray | MaskAnnotation) -> float:
    """Soft overlap score 2*sum(c*g) / (sum(c) + sum(g)) in [0, 1]."""
    try:
        a = np.asarray(c, dtype=np.float64)
        b = np.asarray(g.overlaps if isinstance(g, MaskAnnotation) else g, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"dice inputs must be arrays of reals: {exc}") from None
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError("dice expects 1-d vectors")
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInput("dice inputs must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise InvalidInput("dice inputs must be nonnegative")
    denom = float(np.sum(a) + np.sum(b))
    if denom == 0.0:
        raise InvalidInput("dice undefined when both vectors are all-zero")
    return float(2.0 * np.sum(a * b) / denom)


_WORD_RE = re.compile(r"[a-z0-9']+")


def extract_objects(question: str, vocab: Vocabulary) -> list[str]:
    """Vocabulary object words mentioned in the question, in order, deduped."""
    seen: list[str] = []
    known = vocab.lower_objects
    for token in _WORD_RE.findall(question.lower()):
        word = known.get(token)
        if word is not None and word not in seen:
            seen.append(word)
    return seen
