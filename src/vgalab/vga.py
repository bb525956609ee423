"""Vision-guided attention: grounding-driven correction of decoder attention.

A ``VgaSession`` is the forward pass's guidance hook (the protocol is in
``mllm.core``) for one generation, or for the prompts of one scene
answered as one batch, with one entry per prompt. It grounds every entry
on the shared visual-token logits when it binds, and on each guided layer
corrects the last row of each guided entry in value space:

    z_hat_h = z_h + beta * gamma_h * rho * sum_i G_i * V_h[s+i]

which is algebraically the same as adding ``beta * gamma_h * rho * G`` to
that row's attention weights over the visual span, but never requires the
weight matrix, so it composes with fused attention kernels. The per-head
factors gamma_h (``numerics.head_scales``) rebalance guidance toward heads
whose output does not yet track the visual values; rho decays guidance as
programmed suppression drains the grounding during captioning. The value
mix is one GEMV per entry, never one GEMM over the entries, whose sums may
round otherwise (see ``VgaSession.correction``).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidInput,
    ShapeError,
    require_array,
    require_bool,
    require_fraction,
    require_int,
    require_real,
)
from .grounding import (
    DEFAULT_TOP_K,
    Grounding,
    MaskAnnotation,
    extract_objects,
    support_share,
    vss_values,
)
from .mllm import GuidanceRow, Model, SequenceLayout, reference_forward
from .mllm.core import _check_model
from .numerics import head_scales, stable_softmax, unit_mass

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
            ("lambda_", require_fraction),
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


class VgaSession:
    """Guidance state for one generation, or for the prompts of one scene
    answered in one batch; plugs into the decoder as its hook.

    A session holds one entry per prompt, all under one config: entry b has
    question ``questions[b]`` (and ``gt_masks[b]`` for ground-truth
    guidance) and guides batch entry b of the forward pass. Construct it
    unbound (``new_session`` makes a one-entry session) and hand it to
    prefill, ``prefill_shared`` or the greedy loop; it grounds its entries
    when the visual logits arrive, and keeps their visual span as ``span``. The session is single-owner and
    single-use: programmed suppression mutates the groundings across decode
    steps in caption mode, so binding it to a second visual context raises
    ``ConfigError`` instead of handing the next generation a decayed
    grounding.
    """

    def __init__(
        self,
        model: Model,
        config: VgaConfig,
        questions: Sequence[str] = ("",),
        gt_masks: Sequence[MaskAnnotation | None] | None = None,
    ) -> None:
        _check_model(model)
        n_layers = model.config.n_layers
        start = config.start_layer
        end = config.end_layer if config.end_layer is not None else n_layers // 2
        if not 0 <= start <= end <= n_layers:
            raise ConfigError(
                f"guidance range [{start}, {end}) invalid for {n_layers} layers"
            )
        wrong = "questions must be a nonempty sequence, one string per entry"
        questions = _entries_of(questions, wrong)
        if len(questions) == 0:
            raise ConfigError(wrong)
        if not all(isinstance(question, str) for question in questions):
            raise ConfigError("every question must be a str")
        n = len(questions)
        if gt_masks is None:
            gt_masks = (None,) * n
        gt_masks = _entries_of(gt_masks, "gt_masks must be a sequence, one mask or None per entry")
        if len(gt_masks) != n:
            raise ConfigError(f"{len(gt_masks)} masks for {n} questions")
        if not all(mask is None or isinstance(mask, MaskAnnotation) for mask in gt_masks):
            raise ConfigError("every ground-truth mask must be a MaskAnnotation or None")
        self.config = config
        self.vocab = model.vocab
        self.questions = questions
        self.gt_masks = gt_masks
        self.start_layer = start
        self.end_layer = end
        self.source = config.resolved_source()
        # the layers the forward pass hands to correction: none when no
        # entry can ever be guided
        guides = config.beta != 0.0 and self.source != "none"
        self.guided_layers = range(start, end) if guides else range(0)
        self.fallback_uniform = [False] * n
        # the visual span [start, end) the session is bound to, None until then
        self.span: tuple[int, int] | None = None
        self.visual_probs: np.ndarray | None = None
        # programmed suppression: decays the groundings after each token
        self._decays = (
            config.mode == "caption"
            and config.pvg_enabled
            and config.lambda_ != 0.0
            and self.source != "none"
        )
        # every entry's grounding weights [n, m] and degenerate flags, None
        # until bound (and for source none); _groundings caches them as
        # Grounding objects for readers
        self._weights: np.ndarray | None = None
        self._degenerate: list[bool] = []
        self._groundings: list[Grounding | None] | None = None
        # what each guided layer reads besides the span, set at bind and
        # after each PVG update: every entry's weights as [n, 1, m] for the
        # mix, and beta * rho, one Python float per entry, 0.0 for an
        # unguided one (None when no entry is guided)
        self._guided: tuple | None = None
        if self.source == "ground_truth" and any(mask is None for mask in gt_masks):
            raise ConfigError("ground_truth guidance requires a mask annotation per entry")

    # -- hook protocol ------------------------------------------------------

    def on_visual(self, visual_logits: np.ndarray, layouts: Sequence[SequenceLayout]) -> None:
        """Bind to the visual logits [n_visual, V] that ``layouts``, one per
        entry, share, and ground every entry on them; V is the size of the
        model's vocabulary."""
        if self.span is not None:
            raise ConfigError("session is already bound; start a new session per generation")
        if len(layouts) != len(self.questions):
            raise ShapeError(f"{len(layouts)} prompts for {len(self.questions)} questions")
        layout = layouts[0]
        logits = require_array(visual_logits, "visual logits", 2)
        want = (layout.n_visual, self.vocab.size)
        if logits.shape != want:
            raise ShapeError(f"visual logits must be [n_visual, V] = {want}, got {logits.shape}")
        # one softmax for every entry, taken only when something reads its
        # columns: vsc grounding, or programmed suppression of a grounding;
        # the logits are checked finite, so the unchecked core serves
        if self.source == "vsc" or self._decays:
            self.visual_probs = stable_softmax(logits)
        if self.source != "none":
            self._restack(*self._ground(logits, layout.n_visual))
        # bound only now: a grounding that refuses the logits leaves it unbound
        self.span = (layout.visual_start, layout.visual_end)

    def correction(self, layer: int, z_last: np.ndarray, v_cache: np.ndarray) -> GuidanceRow | None:
        """Every entry's row for this layer, or None when no entry is guided.

        ``z_last`` [B, H, dh] is every entry's last-row attention output and
        ``v_cache`` the cached value rows every entry reads, the visual span
        among them. The forward pass calls it on ``guided_layers`` only.
        Only the work that depends on ``z_last`` and the values runs here:
        the value mix, one GEMV per entry ([B, 1, m] @ [m, H*dh], bit-equal
        to ``g @ V`` of each, where the GEMM [B, m] @ [m, H*dh] may round
        otherwise), and the head scales of ``head_scales``, 0.0 on every
        head of an unguided entry.
        """
        if self.span is None:
            raise ConfigError("session is not bound to a visual context yet")
        if len(z_last) != len(self.questions):
            raise ShapeError(f"{len(z_last)} batch entries for {len(self.questions)} questions")
        guided = self._guided
        if guided is None or layer not in self.guided_layers:
            return None
        mix, coef = guided
        s, e = self.span
        _, n_heads, d_head = z_last.shape
        width = n_heads * d_head
        delta = (mix @ v_cache[s:e].reshape(e - s, width)).reshape(len(coef), n_heads, d_head)
        if self.config.head_balancing:
            scales = head_scales(z_last, delta, coef)
        else:
            scales = np.array([[c] * n_heads for c in coef])
        return GuidanceRow(mix[:, 0], scales, self.span, delta)

    def on_token(self, token_id: int) -> None:
        """Programmed visual guidance: decay the groundings where the token was seen.

        In caption mode with PVG on and lambda > 0, G_w is the token's
        per-patch probability column, sum-normalized, and the update
        G <- Norm(ReLU((1+lambda) G - lambda G_w)) lifts everything
        slightly and subtracts where the token was seen, so the next
        word's guidance looks away from what is already described. Every
        entry's grounding decays alike, as one [B, m] array, each row bit
        for bit the update of that entry alone.
        """
        token_id = require_int(token_id, "token_id", InvalidInput)
        if not self._decays:
            return
        probs = self.visual_probs
        if self.span is None:
            raise ConfigError("session is not bound to a visual context yet")
        if not 0 <= token_id < probs.shape[1]:
            raise InvalidInput(f"token id {token_id} out of range for vocab size {probs.shape[1]}")
        # a softmax column: finite and nonnegative by construction; the
        # unit mass is a new array, so it is scaled in place
        g_w, _ = unit_mass(probs[:, token_id])
        lam = self.config.lambda_
        g_w *= lam
        decayed = self._weights * (1.0 + lam)
        decayed -= g_w
        np.maximum(0.0, decayed, out=decayed)
        # each row is the unit mass of that entry's decayed grounding alone
        self._restack(*unit_mass(decayed))

    @property
    def groundings(self) -> list[Grounding | None]:
        """Each entry's grounding; None before binding and for source none."""
        if self._groundings is None:
            if self._weights is None:
                self._groundings = [None] * len(self.questions)
            else:
                self._groundings = [
                    Grounding(w, d) for w, d in zip(self._weights, self._degenerate)
                ]
        return self._groundings

    # -- internals ----------------------------------------------------------

    def _restack(self, weights: np.ndarray, degenerate: list[bool]) -> None:
        """Take every entry's grounding weights [n, m] and degenerate flags,
        and keep what every guided layer reads: the weights as the [n, 1, m]
        mix, and each entry's beta * rho. An entry with a degenerate
        grounding or rho = 0 gets 0.0 and is not guided; nothing is kept
        when no entry is guided, or no layer. rho is 1 in vqa mode and
        ``Grounding.rho`` of the entry in caption mode."""
        self._weights, self._degenerate, self._groundings = weights, degenerate, None
        if not self.guided_layers:
            self._guided = None
            return
        beta, vqa = self.config.beta, self.config.mode == "vqa"
        coef = [
            0.0 if d else beta * (1.0 if vqa else support_share(w))
            for w, d in zip(weights, degenerate)
        ]
        self._guided = (weights[:, None, :], coef) if any(coef) else None

    def _ground(self, logits: np.ndarray, m: int) -> tuple[np.ndarray, list[bool]]:
        """Every entry's grounding weights [n, m] and degenerate flags, each
        row what the ``Grounding`` of that entry's source holds."""
        n = len(self.questions)
        source = self.source
        if source == "even":
            return unit_mass(np.ones((n, m)))
        if source == "vsc":
            return self._vsc_weights(m)
        if source in ("vss", "reversed_vss"):
            sign = "raw" if source == "vss" else "flipped"
            # vss_values is nonnegative and refuses a non-finite salience, so the
            # unchecked core serves
            weights, degenerate = unit_mass(vss_values(logits, k=self.config.top_k, sign=sign))
            return np.tile(weights, (n, 1)), [degenerate] * n
        if source == "ground_truth":
            if any(mask.overlaps.shape != (m,) for mask in self.gt_masks):
                raise ShapeError(f"ground-truth masks must each cover the {m} visual rows")
            return unit_mass(np.array([mask.overlaps for mask in self.gt_masks]))
        raise ConfigError(f"unresolvable guidance source {source!r}")

    def _vsc_weights(self, m: int) -> tuple[np.ndarray, list[bool]]:
        """vsc weights: each object word's softmax column at unit mass.

        Every named word's column is picked off the shared softmax into one
        C-ordered stack [w, m] by one ``take`` and scaled by one
        ``unit_mass`` call, each row bit for bit the vector call on that
        column. An entry naming one word takes its row; one naming several
        merges theirs (elementwise max, then unit mass), and one naming none
        falls back to even guidance.
        """
        vocab = self.vocab
        words = [extract_objects(question, vocab) for question in self.questions]
        ids = [vocab.id_of(word) for named in words for word in named]
        columns, degenerate = unit_mass(self.visual_probs.T.take(ids, 0)) if ids else (None, [])
        rows, flags, at = [], [], 0
        for entry, named in enumerate(words):
            if not named:
                warnings.warn(
                    "no vocabulary objects in question; falling back to even guidance",
                    stacklevel=2,
                )
                self.fallback_uniform[entry] = True
                row, flag = unit_mass(np.ones(m))
            elif len(named) == 1:
                row, flag = columns[at], degenerate[at]
            else:
                row, flag = unit_mass(np.max(columns[at : at + len(named)], axis=0))
            rows.append(row)
            flags.append(flag)
            at += len(named)
        return np.array(rows), flags


def _entries_of(values, message: str) -> tuple:
    """``values``, one item per entry, as a tuple; a str or a value that is
    not a sequence raises ``ConfigError`` with ``message``."""
    if isinstance(values, str):
        raise ConfigError(message)
    try:
        return tuple(values)
    except TypeError:
        raise ConfigError(message) from None


def new_session(
    model: Model,
    config: VgaConfig,
    question: str = "",
    gt_mask: MaskAnnotation | None = None,
) -> VgaSession:
    """Unbound one-entry session, ready to be passed as the generation hook."""
    return VgaSession(model, config, (question,), (gt_mask,))


def bos_profile(model: Model, layout: SequenceLayout) -> list[float]:
    """Per-layer attention of the last prompt row to position 0 (BOS).

    Reads ``mllm.reference_forward``, which runs the explicit kernel, and
    max-pools over heads; the rising profile across layers locates where
    the model starts parking attention on its sink token.
    """
    return reference_forward(model, layout)[1]


def check_theta(theta: float) -> float:
    """``theta`` as a Python float; a value that is not a finite real number
    raises ``InvalidInput``."""
    theta = require_real(theta, "theta", InvalidInput)
    if not np.isfinite(theta):
        raise InvalidInput(f"theta must be finite, got {theta}")
    return theta


def suggest_start_layer(profile: list[float], theta: float = 0.2) -> tuple[int, bool]:
    """First layer whose BOS attention reaches theta.

    Returns (layer, fallback); fallback is True when no layer crosses the
    threshold, in which case layer 0 is suggested and a warning is issued.
    ``theta`` must be a finite real number, and so must every profile value.
    """
    theta = check_theta(theta)
    if not isinstance(profile, (Sequence, np.ndarray)):
        raise InvalidInput(f"profile must be a sequence of reals, got {type(profile).__name__}")
    profile = [require_real(value, "profile value", InvalidInput) for value in profile]
    if len(profile) == 0:
        raise InvalidInput("profile must be nonempty")
    if not np.isfinite(profile).all():
        raise InvalidInput("profile values must be finite")
    for idx, value in enumerate(profile):
        if value >= theta:
            return idx, False
    warnings.warn("no layer reaches the BOS-attention threshold; suggesting 0", stacklevel=2)
    return 0, True
