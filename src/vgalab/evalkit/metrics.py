"""Hallucination and grounding metrics over generated object sets.

Caption-level metrics treat a caption as the set of vocabulary object
words it mentions; the reference is the scene's annotated object set.
Two naming conventions float around for the caption-level pair: here the
"s" metric is the fraction of captions containing at least one
hallucinated object and the "i" metric is the instance rate, hallucinated
mentions over all mentions, pooled across the corpus.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import (
    InvalidInput,
    InvalidParams,
    ShapeError,
    open_path,
    require_fraction,
    require_int,
    require_real,
)

log = logging.getLogger(__name__)

_RATE_FIELDS = (
    "accuracy",
    "precision",
    "recall",
    "f1",
    "chair_s",
    "chair_i",
    "chair",
    "cover",
    "hal",
    "cog",
    "amber",
    "mean_dice",
)


def _as_sets(items: Sequence[Iterable[str]]) -> list[set[str]]:
    try:
        return [set(x) for x in items]
    except TypeError:  # an item that is not an iterable of hashable words
        raise InvalidInput("each caption and annotation must be an iterable of words") from None


def chair_metrics(
    generated: Sequence[Iterable[str]], annotated: Sequence[Iterable[str]]
) -> tuple[float, float]:
    """Corpus hallucination rates: (caption rate, object-instance rate).

    The first element is the fraction of captions mentioning at least one
    object absent from their annotation; the second pools object mentions
    over the whole corpus and reports the hallucinated fraction.
    """
    gen = _as_sets(generated)
    ann = _as_sets(annotated)
    if len(gen) == 0:
        raise InvalidInput("need at least one caption")
    if len(gen) != len(ann):
        raise ShapeError(f"{len(gen)} captions vs {len(ann)} annotations")
    mentions = 0
    hallucinated = 0
    dirty_captions = 0
    for r, a in zip(gen, ann):
        extra = r - a
        mentions += len(r)
        hallucinated += len(extra)
        dirty_captions += 1 if extra else 0
    chair_s = dirty_captions / len(gen)
    chair_i = hallucinated / mentions if mentions else 0.0
    return chair_s, chair_i


@dataclass(frozen=True)
class AmberScores:
    chair: float
    cover: float
    hal: float
    cog: float
    amber: float


def amber_metrics(
    generated: Sequence[Iterable[str]],
    annotated: Sequence[Iterable[str]],
    hallu_targets: Sequence[Iterable[str]],
    f1: float,
) -> AmberScores:
    """Per-caption set scores, averaged, plus the combined score.

    Per caption with generated set R', annotation A and target set H:
    chair = 1 - |R' n A| / |R'|, cover = |R' n A| / |A|,
    cog = |R' n H| / |R'|; hal is the fraction of captions with
    chair > 0, and the combined score is (1 - chair + f1) / 2.
    A caption with an empty generated set scores 0 for chair and cog
    (logged); an empty annotation scores 0 for cover (logged).
    """
    gen = _as_sets(generated)
    ann = _as_sets(annotated)
    tgt = _as_sets(hallu_targets)
    if len(gen) == 0:
        raise InvalidInput("need at least one caption")
    if not (len(gen) == len(ann) == len(tgt)):
        raise ShapeError("generated/annotated/hallu_targets lengths disagree")
    f1 = require_fraction(f1, "f1", InvalidParams)

    chairs, covers, cogs, hals = [], [], [], []
    for i, (r, a, h) in enumerate(zip(gen, ann, tgt)):
        if not r:
            log.warning("caption %d generated no objects; chair/cog scored 0", i)
            chairs.append(0.0)
            cogs.append(0.0)
        else:
            chairs.append(1.0 - len(r & a) / len(r))
            cogs.append(len(r & h) / len(r))
        if not a:
            log.warning("caption %d has an empty annotation; cover scored 0", i)
            covers.append(0.0)
        else:
            covers.append(len(r & a) / len(a))
        hals.append(1.0 if chairs[-1] > 0 else 0.0)

    chair = float(np.mean(chairs))
    return AmberScores(
        chair=chair,
        cover=float(np.mean(covers)),
        hal=float(np.mean(hals)),
        cog=float(np.mean(cogs)),
        amber=(1.0 - chair + f1) / 2.0,
    )


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean with the 0/0 convention mapped to 0. Both arguments
    must be real numbers in [0, 1]; anything else raises ``InvalidParams``."""
    for name, value in (("precision", precision), ("recall", recall)):
        require_fraction(value, name, InvalidParams)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class EvalReport:
    """One evaluation run's scores plus enough metadata to reproduce it.

    Fields that a given task does not produce stay None; every rate that
    is present must land in [0, 1].
    """

    task: str
    n_items: int
    accuracy: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    chair_s: float | None = None
    chair_i: float | None = None
    chair: float | None = None
    cover: float | None = None
    hal: float | None = None
    cog: float | None = None
    amber: float | None = None
    mean_dice: float | None = None
    dice_by_size: dict | None = None
    unmapped: int = 0
    mean_caption_len: float | None = None
    config: dict | None = None

    def __post_init__(self) -> None:
        n_items = require_int(self.n_items, "n_items", InvalidParams)
        if n_items < 0:
            raise InvalidParams("n_items must be >= 0")
        if not 0 <= require_int(self.unmapped, "unmapped", InvalidParams) <= n_items:
            raise InvalidParams(f"unmapped must lie in [0, n_items], got {self.unmapped}")
        if self.mean_caption_len is not None:
            length = require_real(self.mean_caption_len, "mean_caption_len", InvalidParams)
            if not np.isfinite(length) or length < 0.0:
                raise InvalidParams(f"mean_caption_len must be finite and >= 0, got {length}")
        for name in _RATE_FIELDS:
            if getattr(self, name) is not None:
                require_fraction(getattr(self, name), name, InvalidParams)

    def to_dict(self) -> dict:
        return asdict(self)


def save_report(report: EvalReport, path: str) -> None:
    with open_path(path, "w", "report") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
