"""Synthetic scenes with exact annotations.

A scene is a patch grid where each cell holds either an object's patch
token or a background texture token. Because assignment is explicit, every
downstream quantity (masks, existence labels, caption references,
hallucination targets) is known rather than estimated, which is what lets
evaluation claims be checked against ground truth instead of other models.

Negative question words come in three flavors mirroring the usual
discriminative-benchmark splits: uniformly random absent words, the most
popular absent words (popularity follows a Zipf law over the word list),
and adversarial absent words drawn from a fixed co-occurrence partner
table (the word most often seen together with a present one).
"""
from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..errors import (
    FormatError,
    InvalidParams,
    open_path,
    require_grid,
    require_int,
    require_seed,
)
from ..grounding import MaskAnnotation
from ..mllm import Model, SequenceLayout
from ..mllm.core import _check_model
from ..vocab import DEFAULT_OBJECT_WORDS, make_vocab

NEGATIVE_MODES = ("random", "popular", "adversarial")

# Object-size buckets as fractions of the patch count.
SMALL_FRACTION = 0.05
LARGE_FRACTION = 0.25


@dataclass(frozen=True)
class SceneParams:
    """Scene-sampling knobs; all sampling is deterministic in the seed.

    Scenes draw from ``make_vocab()``'s default table, the vocabulary the
    planted model embeds.
    """

    n_scenes: int = 10
    grid: tuple[int, int] = (8, 8)
    min_objects: int = 1
    max_objects: int = 3
    questions_per_scene: int = 4
    negative_mode: str = "random"

    def __post_init__(self) -> None:
        for name in ("n_scenes", "min_objects", "max_objects", "questions_per_scene"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, InvalidParams))
        object.__setattr__(self, "grid", require_grid(self.grid, "grid", InvalidParams))
        rows, cols = self.grid
        if self.n_scenes < 1:
            raise InvalidParams("n_scenes must be >= 1")
        if rows < 1 or cols < 1:
            raise InvalidParams("grid dims must be positive")
        if not 1 <= self.min_objects <= self.max_objects:
            raise InvalidParams("need 1 <= min_objects <= max_objects")
        if self.max_objects >= len(DEFAULT_OBJECT_WORDS):
            # every word could be present at once, leaving nothing absent
            raise InvalidParams("need at least one object word that can stay absent")
        if self.max_objects > rows * cols - 1:
            raise InvalidParams("need max_objects <= rows * cols - 1: one cell stays background")
        if self.questions_per_scene < 2 or self.questions_per_scene % 2 != 0:
            raise InvalidParams("questions_per_scene must be even and >= 2")
        if self.negative_mode not in NEGATIVE_MODES:
            raise InvalidParams(
                f"negative_mode must be one of {NEGATIVE_MODES}, got {self.negative_mode!r}"
            )


@dataclass(frozen=True)
class Question:
    word: str
    present: bool


@dataclass(frozen=True)
class Scene:
    """One annotated grid: patch assignment plus everything derived from it.

    ``patches`` holds vocabulary token ids (patch tokens for covered
    cells, background ids elsewhere). ``annotated`` is the reference
    object set; ``hallu_targets`` collects the absent words a model is
    most likely to be baited into mentioning (the scene's negatives).
    """

    grid: tuple[int, int]
    patches: tuple[int, ...]
    objects: tuple[MaskAnnotation, ...]
    questions: tuple[Question, ...]
    annotated: tuple[str, ...]
    hallu_targets: tuple[str, ...]

    def __post_init__(self) -> None:
        rows, cols = self.grid
        if len(self.patches) != rows * cols:
            raise InvalidParams("patch list does not match grid size")
        present = {m.word for m in self.objects if m.patch_count > 0}
        if set(self.annotated) != present:
            raise InvalidParams("annotated set disagrees with object masks")
        for q in self.questions:
            if q.present and q.word not in present:
                raise InvalidParams(f"present-labeled word {q.word!r} has no patches")
            if not q.present and q.word in present:
                raise InvalidParams(f"absent-labeled word {q.word!r} appears in the scene")

    @property
    def n_patches(self) -> int:
        return len(self.patches)


def zipf_weights(n: int) -> np.ndarray:
    """Normalized popularity weights: rank r gets mass proportional to 1/(r+1)."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return w / w.sum()


def partner_table(words: tuple[str, ...]) -> dict[str, str]:
    """Fixed co-occurrence partners: adjacent popularity ranks pair up.

    Even-ranked words pair with the next word, odd-ranked with the
    previous one; a trailing unpaired word partners with the top word.
    """
    table: dict[str, str] = {}
    for i, w in enumerate(words):
        j = i + 1 if i % 2 == 0 else i - 1
        table[w] = words[j] if j < len(words) else words[0]
    return table


def size_class(patch_count: int, n_patches: int) -> str:
    patch_count = require_int(patch_count, "patch count", InvalidParams)
    n_patches = require_int(n_patches, "n_patches", InvalidParams)
    if not 0 <= patch_count <= n_patches or n_patches == 0:
        raise InvalidParams(f"patch count {patch_count} does not fit {n_patches} patches")
    frac = patch_count / n_patches
    if frac <= SMALL_FRACTION:
        return "small"
    if frac >= LARGE_FRACTION:
        return "large"
    return "medium"


def _sample_patch_count(rng: np.random.Generator, n_patches: int) -> int:
    """Mixed size distribution so all three buckets appear in a corpus."""
    roll = rng.random()
    small_hi = max(1, int(SMALL_FRACTION * n_patches))
    large_lo = max(small_hi + 2, int(LARGE_FRACTION * n_patches))
    large_hi = max(large_lo + 1, n_patches // 3)
    if roll < 0.45:
        return int(rng.integers(1, small_hi + 1))
    if roll < 0.8:
        return int(rng.integers(small_hi + 1, large_lo))
    return int(rng.integers(large_lo, large_hi + 1))


def _draw_distinct(rng: np.random.Generator, p: list[float], size: int) -> list[int]:
    """``rng.choice(len(p), size, replace=False, p=p)`` on Python floats.

    numpy's algorithm step for step, so the indices and the ``rng`` state
    after the draw are the same. ``size`` must not exceed the nonzero weights.
    """
    p = list(p)
    found: list[int] = []
    while len(found) < size:
        xs = rng.random(size - len(found)).tolist()
        for i in found:
            p[i] = 0.0
        cdf = list(accumulate(p))
        total = cdf[-1]
        cdf = [c / total for c in cdf]
        for x in xs:
            i = bisect_right(cdf, x)
            if i not in found:  # zeroed weights are never drawn, so this only drops repeats
                found.append(i)
    return found


def _sample_negatives(
    rng: np.random.Generator,
    present: list[str],
    words: tuple[str, ...],
    mode: str,
    popularity: dict[str, float],
    partners: dict[str, str],
    count: int,
) -> list[str]:
    absent = [w for w in words if w not in present]
    ranked = absent  # words are already popularity-ordered
    chosen: list[str] = []
    if mode == "adversarial":
        for w in present:
            p = partners[w]
            if p in absent and p not in chosen:
                chosen.append(p)
            if len(chosen) == count:
                return chosen
    if mode in ("popular", "adversarial"):
        # popular fill; adversarial falls back here when partners run out
        for w in ranked:
            if w not in chosen:
                chosen.append(w)
            if len(chosen) == count:
                return chosen
        return chosen
    weights = np.asarray([popularity[w] for w in absent])
    # numpy's pairwise sum: a sequential Python sum can differ in the last bit and move a draw
    weights = (weights / weights.sum()).tolist()
    return [absent[i] for i in _draw_distinct(rng, weights, min(count, len(absent)))]


def make_scenes(params: SceneParams, seed: int) -> list[Scene]:
    """Sample ``params.n_scenes`` scenes, deterministic in ``seed`` (an
    int >= 0)."""
    if not isinstance(params, SceneParams):
        raise InvalidParams(f"expected a SceneParams, got {type(params).__name__}")
    rng = np.random.default_rng(require_seed(seed, InvalidParams))
    vocab = make_vocab()
    words = vocab.object_words
    rows, cols = params.grid
    n_patches = rows * cols
    popularity = zipf_weights(len(words)).tolist()
    popularity_of = dict(zip(words, popularity))
    partners = partner_table(words)
    background = np.asarray(vocab.background_ids)
    scenes: list[Scene] = []

    for _ in range(params.n_scenes):
        k = int(rng.integers(params.min_objects, params.max_objects + 1))
        present = [words[i] for i in _draw_distinct(rng, popularity, k)]

        counts = [_sample_patch_count(rng, n_patches) for _ in present]
        while sum(counts) > n_patches - 1:  # keep at least one background cell
            counts[counts.index(max(counts))] //= 2
            counts = [max(1, c) for c in counts]

        order = rng.permutation(n_patches)
        patches = rng.choice(background, size=n_patches, replace=True)
        objects = []
        cursor = 0
        for word, count in zip(present, counts):
            cells = order[cursor : cursor + count]
            cursor += count
            overlaps = np.zeros(n_patches)
            overlaps[cells] = 1.0
            patches[cells] = vocab.patch_token_of(word)
            objects.append(MaskAnnotation(word=word, overlaps=overlaps))

        half = params.questions_per_scene // 2
        pres_order = rng.permutation(len(present))
        pos_words = [present[int(pres_order[i % k])] for i in range(half)]
        neg_words = _sample_negatives(
            rng, present, words, params.negative_mode, popularity_of, partners, half
        )
        base = list(neg_words)
        while len(neg_words) < half:  # more questions than absent words: reuse negatives
            neg_words.append(base[len(neg_words) % len(base)])
        questions = tuple(
            [Question(w, True) for w in pos_words]
            + [Question(w, False) for w in neg_words]
        )

        scenes.append(
            Scene(
                grid=params.grid,
                patches=tuple(patches.tolist()),
                objects=tuple(objects),
                questions=questions,
                annotated=tuple(sorted(present)),
                hallu_targets=tuple(sorted(set(neg_words))),
            )
        )
    return scenes


# ---- prompts ----------------------------------------------------------------

def question_text(word: str) -> str:
    return f"is there a {word} in the image ?"


def _visual_prefix(model: Model, scene: Scene) -> tuple[int, ...]:
    """BOS + the scene's patch tokens, the prefix of every prompt on it."""
    _check_model(model)
    if not isinstance(scene, Scene):
        raise InvalidParams(f"expected a Scene, got {type(scene).__name__}")
    return (model.vocab.bos_id,) + scene.patches


def build_vqa_layout(model: Model, scene: Scene, word: str) -> SequenceLayout:
    """BOS + patch tokens + question word + question mark."""
    tokens = _visual_prefix(model, scene) + (model.vocab.id_of(word), model.vocab.qmark_id)
    return SequenceLayout(
        token_ids=tokens, visual_start=1, visual_end=1 + scene.n_patches
    )


def build_caption_layout(model: Model, scene: Scene) -> SequenceLayout:
    """BOS + patch tokens + caption marker."""
    tokens = _visual_prefix(model, scene) + (model.vocab.caption_id,)
    return SequenceLayout(
        token_ids=tokens, visual_start=1, visual_end=1 + scene.n_patches
    )


# ---- persistence --------------------------------------------------------------

def scenes_to_payload(scenes: list[Scene]) -> dict:
    if not scenes:
        raise InvalidParams("cannot serialize an empty scene list")
    grid = scenes[0].grid
    return {
        "grid": list(grid),
        "scenes": [
            {
                "patches": list(s.patches),
                "objects": [
                    {"word": m.word, "mask_overlaps": m.overlaps.tolist()}
                    for m in s.objects
                ],
                "questions": [
                    {"word": q.word, "label": "present" if q.present else "absent"}
                    for q in s.questions
                ],
                "annotated": list(s.annotated),
                "hallu_targets": list(s.hallu_targets),
            }
            for s in scenes
        ],
    }


def save_scenes(scenes: list[Scene], path: str) -> None:
    payload = scenes_to_payload(scenes)
    with open_path(path, "w", "scene file") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scenes(path: str) -> list[Scene]:
    try:
        with open_path(path, "r", "scene file") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"scene file {path!r} is not valid JSON: {exc}") from exc
    try:
        grid = require_grid(payload["grid"], "scene grid", FormatError)
        scenes = []
        for raw in payload["scenes"]:
            scenes.append(
                Scene(
                    grid=grid,
                    patches=tuple(require_int(p, "patch id", FormatError) for p in raw["patches"]),
                    objects=tuple(
                        MaskAnnotation(word=o["word"], overlaps=o["mask_overlaps"])
                        for o in raw["objects"]
                    ),
                    # an unknown label is a KeyError, a FormatError below
                    questions=tuple(
                        Question(q["word"], {"present": True, "absent": False}[q["label"]])
                        for q in raw["questions"]
                    ),
                    annotated=tuple(raw["annotated"]),
                    hallu_targets=tuple(raw["hallu_targets"]),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"scene file {path!r} has malformed fields: {exc}") from exc
    return scenes
