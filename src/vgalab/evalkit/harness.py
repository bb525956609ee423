"""Evaluation loops: existence questions, captions, grounding quality, latency.

Every loop is deterministic given (model, scenes, config): generation is
greedy, scenes are immutable, and each loop is one pass over the scenes
in order. Paired comparisons (guided vs vanilla, one guidance source vs
another) should therefore be run on the same scene list and will see
identical prompts.

The existence loop answers all of a scene's questions with one
``prefill_shared`` call under one guidance session: the scene's visual
prefix runs once, the questions' text tails run as one batched forward
over it, and the session, one entry per question, grounds every question
from one softmax of the shared visual logits and guides all their rows
at once on each layer. The model keeps the last prefix it ran, so
questions asked right after another prompt on their scene skip the
prefix: the caption loop answers each scene's questions after its
caption, and the prefix runs once per scene. A loop over many scenes
runs each one's prefix, since the memo holds one.
"""
from __future__ import annotations

import logging
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..errors import ConfigError, InvalidParams, require_int
from ..grounding import MaskAnnotation, dice, vsc_vector, vss_values
from ..mllm import (
    Model,
    SequenceLayout,
    forward_rows_count,
    generated_words,
    greedy_generate,
    prefill,
    prefill_shared,
)
from ..mllm.core import _check_model
from ..vga import VgaConfig, VgaSession, new_session
from .heatmap import minmax_scale
from .metrics import EvalReport, amber_metrics, chair_metrics, f1_score
from .scenes import Question, Scene, build_caption_layout, build_vqa_layout, question_text, size_class

log = logging.getLogger(__name__)


def _gt_mask_for(scene: Scene, word: str) -> MaskAnnotation:
    """Mask for guidance; an absent word gets an all-zero mask.

    All-zero overlaps normalize to a degenerate grounding, which the
    session treats as "do not guide": exactly what perfect knowledge of
    absence should do.
    """
    for m in scene.objects:
        if m.word == word:
            return m
    return MaskAnnotation(word=word, overlaps=np.zeros(scene.n_patches))


def _answer_session(
    model: Model, scene: Scene, questions: list[Question], config: VgaConfig
) -> VgaSession:
    """One session for ``questions`` of ``scene``, one entry per question."""
    gt_masks = None
    if config.resolved_source() == "ground_truth":
        gt_masks = [_gt_mask_for(scene, q.word) for q in questions]
    return VgaSession(model, config, [question_text(q.word) for q in questions], gt_masks)


def _positive_int(value, name: str) -> int:
    value = require_int(value, name, InvalidParams)
    if value < 1:
        raise InvalidParams(f"{name} must be >= 1")
    return value


def model_answer_fn(
    model: Model,
    scene: Scene,
    question: Question,
    layout: SequenceLayout,
    config: VgaConfig,
) -> int:
    """One question's answer: the greedy first token of a guided prefill.

    ``run_existence_eval`` answers a whole scene at once, bit for bit the
    same tokens.
    """
    session = _answer_session(model, scene, [question], config)
    return int(np.argmax(prefill(model, layout, hook=session).last_logits))


def _score_answer(model: Model, token_id: int, present: bool) -> tuple[bool, bool, bool]:
    """(correct, predicted_yes, mapped)."""
    word = model.vocab.word_of(token_id).strip().casefold()
    if word == "yes":
        return present, True, True
    if word == "no":
        return not present, False, True
    return False, False, False


def _check_loop(model: Model, scenes: Sequence[Scene], *configs: VgaConfig, jobs: int = 1) -> None:
    """Typed errors for a loop's inputs: a ``model`` that is not a
    ``Model`` (``InvalidInput``), ``scenes`` that are not a nonempty
    sequence of ``Scene``, a ``jobs`` other than 1 (``InvalidParams``),
    and any of ``configs`` that is not a ``VgaConfig`` (``ConfigError``)."""
    _check_model(model)
    if not (isinstance(scenes, Sequence) and scenes and all(isinstance(s, Scene) for s in scenes)):
        raise InvalidParams("scenes must be a nonempty sequence of Scene")
    for config in configs:
        if not isinstance(config, VgaConfig):
            raise ConfigError(f"expected a VgaConfig, got {type(config).__name__}")
    if require_int(jobs, "jobs", InvalidParams) != 1:
        raise InvalidParams(f"jobs must be 1, got {jobs!r}")


def _require_questions(scenes: list[Scene]) -> None:
    if not any(scene.questions for scene in scenes):
        raise InvalidParams("no scene has a question to ask")


def _existence_rows(model: Model, scene: Scene, config: VgaConfig) -> list[tuple[bool, bool, bool, bool]]:
    """(present, correct, predicted_yes, mapped) for each of ``scene``'s
    questions, answered in one batched forward over its visual prefix."""
    if not scene.questions:
        return []
    layouts = [build_vqa_layout(model, scene, q.word) for q in scene.questions]
    session = _answer_session(model, scene, scene.questions, config)
    tokens = np.argmax(prefill_shared(model, layouts, session), axis=-1).tolist()
    out = []
    for q, token in zip(scene.questions, tokens):
        correct, said_yes, mapped = _score_answer(model, token, q.present)
        if not mapped:
            log.warning(
                "unmapped answer token %d (%r) for question %r",
                token, model.vocab.word_of(token), q,
            )
        out.append((q.present, correct, said_yes, mapped))
    return out


def _existence_report(rows: list[tuple[bool, bool, bool, bool]], config: VgaConfig) -> EvalReport:
    n = len(rows)
    correct = sum(1 for _, c, _, _ in rows if c)
    tp = sum(1 for p, _, y, _ in rows if p and y)
    fp = sum(1 for p, _, y, _ in rows if not p and y)
    n_present = sum(1 for p, _, _, _ in rows if p)
    unmapped = sum(1 for _, _, _, m in rows if not m)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / n_present if n_present else 0.0
    return EvalReport(
        task="existence",
        n_items=n,
        accuracy=correct / n,
        precision=precision,
        recall=recall,
        f1=f1_score(precision, recall),
        unmapped=unmapped,
        config=asdict(config),
    )


def run_existence_eval(
    model: Model,
    scenes: list[Scene],
    config: VgaConfig,
    jobs: int = 1,
) -> EvalReport:
    """Ask every scene question, map the first token to yes/no, aggregate.

    A scene's visual prefix runs once and all its questions are answered
    in one batched forward over it, guided by one session for the scene:
    the tokens ``model_answer_fn`` gives one question at a time.
    Unmappable answers count as incorrect and are logged. ``jobs`` must
    be 1: the scenes run one at a time, in order, and the keyword goes
    when the benchmark stops passing it.
    """
    _check_loop(model, scenes, config, jobs=jobs)
    _require_questions(scenes)
    return _existence_report([r for s in scenes for r in _existence_rows(model, s, config)], config)


def run_caption_eval(
    model: Model,
    scenes: list[Scene],
    config: VgaConfig,
    f1: float | None = None,
    max_len: int = 64,
    jobs: int = 1,
) -> EvalReport:
    """Caption every scene and score the mentioned-object sets.

    The config is coerced to caption mode. When ``f1`` is not supplied,
    the discriminative half runs on the same scenes with the same config
    (in vqa mode) and contributes its F1 to the combined score: each
    scene's questions are answered right after its caption, whose visual
    prefix they share, so the model's prefix memo serves them and the
    prefix runs once per scene. ``jobs`` must be 1: the scenes run one at
    a time, in order, and the keyword goes when the benchmark stops
    passing it.
    """
    _check_loop(model, scenes, config, jobs=jobs)
    cap_config = replace(config, mode="caption")
    vqa_config = replace(config, mode="vqa")
    if f1 is None:
        _require_questions(scenes)

    generated: list[set[str]] = []
    lengths: list[int] = []
    answers: list[tuple[bool, bool, bool, bool]] = []
    for scene in scenes:
        layout = build_caption_layout(model, scene)
        session = new_session(model, cap_config)
        tokens = greedy_generate(model, layout, vga=session, max_len=max_len)
        words = generated_words(model, tokens)
        generated.append({w for w in words if model.vocab.is_object_word(w)})
        lengths.append(len(tokens))
        if f1 is None:
            answers.extend(_existence_rows(model, scene, vqa_config))

    annotated = [set(s.annotated) for s in scenes]
    targets = [set(s.hallu_targets) for s in scenes]

    discriminative = None
    if f1 is None:
        discriminative = _existence_report(answers, vqa_config)
        f1 = discriminative.f1

    chair_s, chair_i = chair_metrics(generated, annotated)
    amber = amber_metrics(generated, annotated, targets, f1=f1)
    return EvalReport(
        task="caption",
        n_items=len(scenes),
        accuracy=discriminative.accuracy if discriminative else None,
        precision=discriminative.precision if discriminative else None,
        recall=discriminative.recall if discriminative else None,
        f1=f1,
        chair_s=chair_s,
        chair_i=chair_i,
        chair=amber.chair,
        cover=amber.cover,
        hal=amber.hal,
        cog=amber.cog,
        amber=amber.amber,
        mean_caption_len=float(np.mean(lengths)),
        config=asdict(cap_config),
    )


def grounding_quality_eval(model: Model, scenes: list[Scene], source: str = "vsc") -> EvalReport:
    """Mean soft Dice between per-patch scores and planted masks.

    ``vsc`` scores each (scene, object) pair with that object's per-patch
    confidence vector; ``vss`` scores every pair with the scene's
    min-max-scaled salience over the top ``DEFAULT_TOP_K`` logits
    (object-agnostic, so the same vector serves all objects in the scene).
    """
    _check_loop(model, scenes)
    if source not in ("vsc", "vss"):
        raise InvalidParams(f"source must be vsc or vss, got {source!r}")
    scores: list[float] = []
    buckets: dict[str, list[float]] = {"small": [], "medium": [], "large": []}
    for scene in scenes:
        layout = build_caption_layout(model, scene)
        logits = prefill(model, layout).visual_logits
        salience = None
        if source == "vss":
            salience = minmax_scale(vss_values(logits))
        for mask in scene.objects:
            if source == "vsc":
                vec = vsc_vector(logits, model.vocab.id_of(mask.word))
            else:
                vec = salience
            d = dice(vec, mask)
            scores.append(d)
            buckets[size_class(mask.patch_count, scene.n_patches)].append(d)
    by_size = {
        name: {"mean_dice": float(np.mean(vals)), "n": len(vals)}
        for name, vals in buckets.items()
        if vals
    }
    return EvalReport(
        task="grounding",
        n_items=len(scores),
        mean_dice=float(np.mean(scores)),
        dice_by_size=by_size,
    )


@dataclass(frozen=True)
class TtftStats:
    """Wall-clock time to the first generated token, vanilla vs guided."""

    vanilla_median_s: float
    guided_median_s: float
    overhead_fraction: float
    n_prompts: int
    runs: int
    rows_vanilla: int
    rows_guided: int

    def to_dict(self) -> dict:
        return asdict(self)


def bench_ttft(
    model: Model, scenes: list[Scene], config: VgaConfig, runs: int = 3
) -> TtftStats:
    """Median prompt-to-first-token latency over ``runs`` repetitions.

    Strictly serial, like every loop here. Every timed request is cold:
    its visual prefix runs, as for a user's first question on an image,
    and is never served from the model's prefix memo. So no two
    consecutive requests share a scene. Each run makes two passes over the
    scenes, alternating the arms from one scene to the next, the second
    pass with the arms swapped, so that every scene is timed in both arms
    and a burst of load on the machine lands on both arms alike; medians
    keep a few slow samples from setting the overhead. The warm-up runs
    the vanilla arm on the next-to-last scene and the guided arm on the
    last, so the first timed request, on the first scene, misses the memo
    too. The forward-row counts establish that guidance adds no extra
    forward passes; unequal counts would make the timing comparison
    meaningless. Fewer than two scenes, or two consecutive scenes (the
    last and the first among them) with the same visual prefix, raise
    ``InvalidParams`` before anything runs.
    """
    _check_loop(model, scenes, config)
    runs = _positive_int(runs, "runs")
    if len(scenes) < 2:
        raise InvalidParams("need at least two scenes, so that no request follows one on its scene")
    if not all(scene.questions for scene in scenes):
        raise InvalidParams("every scene needs a question to time")
    layouts = [build_vqa_layout(model, scene, scene.questions[0].word) for scene in scenes]
    prefixes = [layout.token_ids[: layout.visual_end] for layout in layouts]
    for i, (prefix, after) in enumerate(zip(prefixes, prefixes[1:] + prefixes[:1])):
        if prefix == after:
            raise InvalidParams(
                f"scenes {i} and {(i + 1) % len(scenes)} share a visual prefix, "
                "so the second would be timed from the model's prefix memo"
            )

    def first_token_latency(i: int, guided: bool) -> tuple[float, int]:
        """(seconds, forward rows) of one prefill and argmax on scene ``i``."""
        layout = layouts[i]
        rows_before = forward_rows_count()
        start = time.perf_counter()
        if guided:
            question = question_text(scenes[i].questions[0].word)
            result = prefill(model, layout, hook=new_session(model, config, question=question))
        else:
            result = prefill(model, layout)
        int(np.argmax(result.last_logits))
        seconds = time.perf_counter() - start
        n_rows = forward_rows_count() - rows_before
        assert n_rows == layout.length, f"{n_rows} rows pushed for a {layout.length}-token prompt"
        return seconds, n_rows

    # Warm caches before timing, each arm on a prefix of its own; the last
    # scene's entry is replaced before the timed request on that scene.
    first_token_latency(len(scenes) - 2, guided=False)
    first_token_latency(len(scenes) - 1, guided=True)

    times: dict[bool, list[float]] = {False: [], True: []}
    rows = {False: 0, True: 0}
    for swapped in (False, True) * runs:
        for i in range(len(scenes)):
            guided = (i % 2 == 1) != swapped
            seconds, n_rows = first_token_latency(i, guided)
            times[guided].append(seconds)
            rows[guided] += n_rows

    vanilla_s = float(np.median(times[False]))
    guided_s = float(np.median(times[True]))
    overhead = (guided_s - vanilla_s) / vanilla_s if vanilla_s > 0 else 0.0
    return TtftStats(
        vanilla_median_s=vanilla_s,
        guided_median_s=guided_s,
        overhead_fraction=overhead,
        n_prompts=len(scenes),
        runs=runs,
        rows_vanilla=rows[False],
        rows_guided=rows[True],
    )
