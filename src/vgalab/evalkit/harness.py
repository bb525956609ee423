"""Evaluation loops: existence questions, captions, grounding quality, latency.

Every loop is deterministic given (model, scenes, config): generation is
greedy, scenes are immutable, and worker pools only parallelize across
scenes with a single-threaded reduce in scene order. Paired comparisons
(guided vs vanilla, one guidance source vs another) should therefore be
run on the same scene list and will see identical prompts.

The existence loop answers all of a scene's questions with one
``prefill_shared`` call under one guidance session: the scene's visual
prefix runs once, the questions' text tails run as one batched forward
over it, and the session, one entry per question, grounds every question
from one softmax of the shared visual logits and guides all their rows
at once on each layer. Nothing of it outlives the call, so worker threads
share no model state.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..errors import InvalidParams, require_int
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
    Unmappable answers count as incorrect and are logged. ``jobs`` (an int
    >= 1) worker threads split the scenes.
    """
    jobs = _positive_int(jobs, "jobs")
    if not scenes:
        raise InvalidParams("need at least one scene")
    if not any(scene.questions for scene in scenes):
        raise InvalidParams("no scene has a question to ask")

    def eval_scene(scene: Scene) -> list[tuple[bool, bool, bool, bool]]:
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

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_scene = list(pool.map(eval_scene, scenes))
    else:
        per_scene = [eval_scene(s) for s in scenes]

    rows = [r for chunk in per_scene for r in chunk]
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
    (in vqa mode) and contributes its F1 to the combined score. ``jobs``
    (an int >= 1) worker threads split the scenes.
    """
    jobs = _positive_int(jobs, "jobs")
    if not scenes:
        raise InvalidParams("need at least one scene")
    cap_config = replace(config, mode="caption")

    def caption_scene(scene: Scene) -> tuple[set[str], int]:
        layout = build_caption_layout(model, scene)
        session = new_session(model, cap_config)
        tokens = greedy_generate(model, layout, vga=session, max_len=max_len)
        words = generated_words(model, tokens)
        mentioned = {w for w in words if model.vocab.is_object_word(w)}
        return mentioned, len(tokens)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(caption_scene, scenes))
    else:
        outputs = [caption_scene(s) for s in scenes]

    generated = [mentioned for mentioned, _ in outputs]
    lengths = [length for _, length in outputs]
    annotated = [set(s.annotated) for s in scenes]
    targets = [set(s.hallu_targets) for s in scenes]

    discriminative = None
    if f1 is None:
        discriminative = run_existence_eval(
            model, scenes, replace(config, mode="vqa"), jobs=jobs
        )
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
    if source not in ("vsc", "vss"):
        raise InvalidParams(f"source must be vsc or vss, got {source!r}")
    if not scenes:
        raise InvalidParams("need at least one scene")
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

    Strictly serial: timing runs share no pools. Each prompt is timed
    vanilla and guided back to back, in alternating order, so a burst of
    load on the machine lands on both arms alike; medians keep a few slow
    samples from setting the overhead. The forward-row counts establish
    that guidance adds no extra forward passes; unequal counts would make
    the timing comparison meaningless.
    """
    runs = _positive_int(runs, "runs")
    if not scenes:
        raise InvalidParams("need at least one scene")
    if not all(scene.questions for scene in scenes):
        raise InvalidParams("every scene needs a question to time")

    def first_token_latency(scene: Scene, guided: bool) -> tuple[float, int]:
        """(seconds, forward rows) of one prefill and argmax."""
        q = scene.questions[0]
        layout = build_vqa_layout(model, scene, q.word)
        rows_before = forward_rows_count()
        start = time.perf_counter()
        if guided:
            session = new_session(model, config, question=question_text(q.word))
            result = prefill(model, layout, hook=session)
        else:
            result = prefill(model, layout)
        int(np.argmax(result.last_logits))
        return time.perf_counter() - start, forward_rows_count() - rows_before

    first_token_latency(scenes[0], guided=False)  # warm caches before timing
    first_token_latency(scenes[0], guided=True)

    times: dict[bool, list[float]] = {False: [], True: []}
    rows = {False: 0, True: 0}
    for i in range(runs * len(scenes)):
        scene = scenes[i % len(scenes)]
        for guided in (False, True) if i % 2 == 0 else (True, False):
            seconds, n_rows = first_token_latency(scene, guided)
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
