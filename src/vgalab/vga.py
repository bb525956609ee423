"""Vision-guided attention: grounding-driven correction of decoder attention.

A ``VgaSession`` rides along a generation as the model's guidance hook.
At prefill it reads the visual-token logits and builds a grounding vector
(object-directed for question answering, salience-based for captions).
At each guided layer it corrects the current row's attention output in
value space:

    z_hat_h = z_h + beta * gamma_h * rho * sum_i G_i * V_h[s+i]

which is algebraically the same as adding ``beta * gamma_h * rho * G`` to
that row's attention weights over the visual span, but never requires the
weight matrix itself, so it composes with fused attention kernels. The
per-head factors gamma_h rebalance guidance toward heads whose output
already tracks the visual values; rho decays guidance as programmed
suppression drains the grounding during captioning.

The hook runs on every guided row, so its fixed cost is kept low. It works
on arrays the forward pass computed from checked inputs (token ids, the
model's finite weights, the visual logits, masks and the config), so it
calls unchecked cores and checks only shapes: ``_value_mix`` for the
grounding-weighted value rows (the core of the checked ``delta_z``),
``clamped_row_cosine`` and ``unit_mass`` for head balancing, and
``unit_mass`` for the softmax column of a PVG update. The mix is computed
afresh on each guided layer of each row; nothing is cached, since each
layer has its own value rows and PVG replaces the grounding after every
caption token.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput, ShapeError, require_bool, require_int, require_real
from .grounding import (
    DEFAULT_TOP_K,
    Grounding,
    MaskAnnotation,
    extract_objects,
    merge_groundings,
    vss,
)
from .mllm import GuidanceRow, Model, SequenceLayout, prefill
from .numerics import clamped_row_cosine, row_softmax, unit_mass
from .vocab import Vocabulary

MODES = ("vqa", "caption")
SOURCES = ("auto", "none", "even", "vsc", "vss", "reversed_vss", "ground_truth")


@dataclass(frozen=True)
class VgaConfig:
    """Knobs for one guidance session.

    ``end_layer=None`` resolves to half the model's depth when the session
    binds to a model; ``end_layer=n_layers`` guides through the last layer.
    ``guidance_source="auto"`` picks the object-directed source in vqa mode
    and the salience source in caption mode. Numeric fields are stored as
    Python floats (``beta``, ``lambda_``) and ints, the two flags as Python
    bools; other types raise ``ConfigError``.
    """

    beta: float = 0.2
    lambda_: float = 0.02
    start_layer: int = 0
    end_layer: int | None = None
    top_k: int = DEFAULT_TOP_K
    mode: str = "vqa"
    guidance_source: str = "auto"
    head_balancing: bool = True
    pvg_enabled: bool = True

    def __post_init__(self) -> None:
        for name, check in (
            ("beta", require_real),
            ("lambda_", require_real),
            ("start_layer", require_int),
            ("top_k", require_int),
            ("head_balancing", require_bool),
            ("pvg_enabled", require_bool),
        ):
            object.__setattr__(self, name, check(getattr(self, name), name, ConfigError))
        if self.end_layer is not None:
            object.__setattr__(self, "end_layer", require_int(self.end_layer, "end_layer", ConfigError))
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ConfigError("beta must be finite and >= 0")
        if not np.isfinite(self.lambda_) or not 0.0 <= self.lambda_ <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        if self.start_layer < 0:
            raise ConfigError("start_layer must be >= 0")
        if self.end_layer is not None and self.end_layer < self.start_layer:
            raise ConfigError("end_layer must be >= start_layer")
        if self.top_k < 2:
            raise ConfigError("top_k must be >= 2")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.guidance_source not in SOURCES:
            raise ConfigError(
                f"guidance_source must be one of {SOURCES}, got {self.guidance_source!r}"
            )

    def resolved_source(self) -> str:
        if self.guidance_source != "auto":
            return self.guidance_source
        return "vsc" if self.mode == "vqa" else "vss"


def _value_mix(weights: np.ndarray, v_visual: np.ndarray) -> np.ndarray:
    """Unchecked core of ``delta_z``: ``weights`` is a float64 [m] vector and
    ``v_visual`` float64 [m, heads, d_head]."""
    m, n_heads, d_head = v_visual.shape
    return (weights @ v_visual.reshape(m, n_heads * d_head)).reshape(n_heads, d_head)


def delta_z(grounding: Grounding | np.ndarray, v_visual: np.ndarray) -> np.ndarray:
    """Grounding-weighted sum of visual value rows, per head.

    ``v_visual`` is the visual slice of the value cache, shaped
    [m, heads, d_head]; the result is [heads, d_head]. No attention
    weights are involved, which is what makes the correction compatible
    with kernels that never materialize them.
    """
    g = grounding.weights if isinstance(grounding, Grounding) else grounding
    g = np.asarray(g, dtype=np.float64)
    v = np.asarray(v_visual, dtype=np.float64)
    if g.ndim != 1 or v.ndim != 3:
        raise ShapeError("expected grounding [m] and values [m, heads, d_head]")
    if g.shape[0] != v.shape[0]:
        raise ShapeError(f"grounding length {g.shape[0]} != visual rows {v.shape[0]}")
    return _value_mix(g, v)


def head_balance(z_row: np.ndarray, dz_row: np.ndarray) -> np.ndarray:
    """gamma = ReLU(2 - H * gamma'), gamma' = Norm(clamped cos(z_h, dz_h)).

    Heads whose output already points along the visual correction get
    gamma below 1 (they need less help), the rest get more; the mean stays
    1 whenever the ReLU clips nothing. Degenerate similarities (all zero)
    fall back to uniform, i.e. gamma = 1 everywhere. ``z_row`` and
    ``dz_row`` are finite float arrays; only their shapes are checked.
    """
    if z_row.shape != dz_row.shape or z_row.ndim != 2:
        raise ShapeError("z_row and dz_row must both be [heads, d_head]")
    gamma_prime, _ = unit_mass(clamped_row_cosine(z_row, dz_row))
    return np.maximum(0.0, 2.0 - z_row.shape[0] * gamma_prime)


class VgaSession:
    """Guidance state for one generation; plugs into the decoder as a hook.

    Construct unbound (via ``new_session``) and hand it to prefill or the
    greedy loop; it grounds itself when the visual logits arrive. The
    session is single-owner and single-use: programmed suppression mutates
    the grounding across decode steps in caption mode, so binding it to a
    second visual context raises ``ConfigError`` instead of handing the
    next generation a decayed grounding.
    """

    def __init__(
        self,
        model: Model,
        config: VgaConfig,
        question: str = "",
        gt_mask: MaskAnnotation | None = None,
    ) -> None:
        n_layers = model.config.n_layers
        start = config.start_layer
        end = config.end_layer if config.end_layer is not None else n_layers // 2
        if not 0 <= start <= end <= n_layers:
            raise ConfigError(
                f"guidance range [{start}, {end}) invalid for {n_layers} layers"
            )
        self.config = config
        self.question = question
        self.gt_mask = gt_mask
        self.start_layer = start
        self.end_layer = end
        self.source = config.resolved_source()
        self.grounding: Grounding | None = None
        self.layout: SequenceLayout | None = None
        self.visual_probs: np.ndarray | None = None
        self.fallback_uniform = False
        if self.source == "ground_truth" and gt_mask is None:
            raise ConfigError("ground_truth guidance requires a mask annotation")

    # -- hook protocol ------------------------------------------------------

    def on_visual(self, visual_logits: np.ndarray, layout: SequenceLayout, vocab: Vocabulary) -> None:
        if self.layout is not None:
            raise ConfigError("session is already bound; start a new session per generation")
        logits = np.asarray(visual_logits, dtype=np.float64)
        if logits.ndim != 2 or logits.shape[0] != layout.n_visual:
            raise ShapeError("visual logits must be [n_visual, V] for the layout")
        # softmax rows computed once: vsc grounding and programmed
        # suppression both read its columns
        self.visual_probs = row_softmax(logits)
        self.layout = layout
        self.grounding = self._build_grounding(logits, layout, vocab)

    def correction(self, layer: int, z_row: np.ndarray, v_cache: np.ndarray) -> GuidanceRow | None:
        self._require_bound()
        cfg = self.config
        g = self.grounding
        if g is None or cfg.beta == 0.0 or g.degenerate:
            return None
        if not self.start_layer <= layer < self.end_layer:
            return None
        rho = 1.0 if cfg.mode == "vqa" else g.rho
        if rho == 0.0:
            return None
        s, e = self.layout.visual_start, self.layout.visual_end
        delta = _value_mix(g.weights, v_cache[s:e])
        if cfg.head_balancing:
            gamma = head_balance(z_row, delta)
        else:
            gamma = np.ones(z_row.shape[0], dtype=np.float64)
        return GuidanceRow(g.weights, cfg.beta * rho * gamma, (s, e), delta)

    def on_token(self, token_id: int) -> None:
        """Programmed visual guidance: decay the grounding where the token was seen.

        In caption mode with PVG on and lambda > 0, G_w is the token's
        per-patch probability column, sum-normalized, and the update
        G <- Norm(ReLU((1+lambda) G - lambda G_w)) lifts everything
        slightly and subtracts where the token was seen, so the next
        word's guidance looks away from what is already described.
        """
        token_id = require_int(token_id, "token_id", InvalidInput)
        cfg = self.config
        if cfg.mode != "caption" or not cfg.pvg_enabled or cfg.lambda_ == 0.0:
            return
        if self.grounding is None:
            return
        self._require_bound()
        n_vocab = self.visual_probs.shape[1]
        if not 0 <= token_id < n_vocab:
            raise InvalidInput(f"token id {token_id} out of range for vocab size {n_vocab}")
        # a softmax column: finite and nonnegative by construction
        g_w, _ = unit_mass(self.visual_probs[:, token_id])
        lam = cfg.lambda_
        self.grounding = Grounding.from_nonnegative(
            np.maximum(0.0, (1.0 + lam) * self.grounding.weights - lam * g_w)
        )

    # -- internals ----------------------------------------------------------

    def _require_bound(self) -> None:
        if self.layout is None or self.visual_probs is None:
            raise ConfigError("session is not bound to a visual context yet")

    def _uniform(self, m: int) -> Grounding:
        return Grounding.from_values(np.ones(m))

    def _build_grounding(
        self, logits: np.ndarray, layout: SequenceLayout, vocab: Vocabulary
    ) -> Grounding | None:
        m = layout.n_visual
        source = self.source
        if source == "none":
            return None
        if source == "even":
            return self._uniform(m)
        if source == "vsc":
            words = extract_objects(self.question, vocab)
            if not words:
                warnings.warn(
                    "no vocabulary objects in question; falling back to even guidance",
                    stacklevel=2,
                )
                self.fallback_uniform = True
                return self._uniform(m)
            # object_grounding per word, read from the cached softmax; one
            # grounding is already normalized, so only several are merged
            groundings = [
                Grounding.from_values(self.visual_probs[:, vocab.id_of(w)]) for w in words
            ]
            return groundings[0] if len(groundings) == 1 else merge_groundings(groundings)
        if source == "vss":
            return vss(logits, k=self.config.top_k)
        if source == "reversed_vss":
            return vss(logits, k=self.config.top_k, sign="flipped")
        if source == "ground_truth":
            return Grounding.from_values(self.gt_mask.overlaps)
        raise ConfigError(f"unresolvable guidance source {source!r}")


def new_session(
    model: Model,
    config: VgaConfig,
    question: str = "",
    gt_mask: MaskAnnotation | None = None,
) -> VgaSession:
    """Unbound session, ready to be passed as the generation hook."""
    return VgaSession(model, config, question=question, gt_mask=gt_mask)


def bos_profile(model: Model, layout: SequenceLayout) -> list[float]:
    """Per-layer attention of the last prompt row to position 0 (BOS).

    Uses the reference attention kernel and max-pools over heads; the
    rising profile across layers locates where the model starts parking
    attention on its sink token.
    """
    result = prefill(model, layout, record_attention=True)
    return list(result.bos_attention)


def suggest_start_layer(profile: list[float], theta: float = 0.2) -> tuple[int, bool]:
    """First layer whose BOS attention reaches theta.

    Returns (layer, fallback); fallback is True when no layer crosses the
    threshold, in which case layer 0 is suggested and a warning is issued.
    """
    if len(profile) == 0:
        raise InvalidInput("profile must be nonempty")
    for idx, value in enumerate(profile):
        if value >= theta:
            return idx, False
    warnings.warn("no layer reaches the BOS-attention threshold; suggesting 0", stacklevel=2)
    return 0, True
