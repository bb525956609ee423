"""Malformed calls that once escaped as raw Python or numpy errors, or were
quietly accepted: one row per call, each raising a ``VgalabError``
subclass. A row is (id, call, error); ``call`` takes the ``ctx`` fixture,
so a fuzzer over the exported callables can append what it finds."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vgalab import errors
from vgalab.cli import _write_json
from vgalab.errors import FormatError, InvalidInput, InvalidParams, InvalidSpec, IoError, ShapeError
from vgalab.evalkit import (
    amber_metrics,
    build_caption_layout,
    build_vqa_layout,
    chair_metrics,
    export_heatmap,
    load_scenes,
    save_report,
    save_scenes,
    scenes_to_payload,
)
from vgalab.evalkit.metrics import EvalReport
from vgalab.grounding import Grounding, MaskAnnotation, dice
from vgalab.mllm import load_model, save_model
from vgalab.vocab import make_vocab

SRC = Path(__file__).resolve().parent.parent / "src"

BOOLS = np.array([True, False, True, False])
STRS = np.array(["1", "0", "0.5", "0"])
COMPLEX = np.array([1 + 1j, 0, 0.5, 0])


@pytest.fixture
def ctx(clean_model, scenes12, tmp_path):
    return SimpleNamespace(model=clean_model, scene=scenes12[0], dir=tmp_path)


def in_child(statement: str):
    """A call run in a child process whose stdout is a pipe it owns: an int
    path names a file descriptor, and fd 1 of this run must stay open. The
    child names the class of what it raised, which is raised again here."""
    script = (
        "import sys\n"
        "from vgalab.mllm import build_random_model, save_model\n"
        "try:\n"
        f"    {statement}\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, file=sys.stderr)\n"
    )

    def call(ctx):
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert child.stdout == b"", "the call wrote to the child's stdout"
        name = child.stderr.decode().strip() or "nothing raised"
        error = getattr(errors, name, None)
        assert isinstance(error, type), f"the child raised {name}"
        raise error(f"{statement} in a child process")

    return call


def scene_file(ctx, edit) -> str:
    """A scene file of ``ctx.scene`` after ``edit(payload, scene)``."""
    payload = scenes_to_payload([ctx.scene])
    edit(payload, payload["scenes"][0])
    path = ctx.dir / "edited.json"
    path.write_text(json.dumps(payload))
    return str(path)


def raw_file(ctx, data: bytes) -> str:
    path = ctx.dir / "raw.json"
    path.write_bytes(data)
    return str(path)


ESCAPES = [
    # paths that are not a str, bytes or os.PathLike
    ("save_model-none", lambda c: save_model(c.model, None), IoError),
    ("save_model-fd", in_child("save_model(build_random_model(3), 1)"), IoError),
    ("load_model-none", lambda c: load_model(None), IoError),
    ("save_scenes-none", lambda c: save_scenes([c.scene], None), IoError),
    ("load_scenes-none", lambda c: load_scenes(None), IoError),
    ("save_report-none", lambda c: save_report(EvalReport("exist", 0), None), IoError),
    ("heatmap-none", lambda c: export_heatmap(np.ones(4), (2, 2), None), IoError),
    ("write_json-float", lambda c: _write_json({}, 2.5), IoError),
    # arrays that do not hold integers or floats, or hold NaN, or nothing
    ("dice-bool", lambda c: dice(BOOLS, np.ones(4)), InvalidInput),
    ("dice-str", lambda c: dice(STRS, np.ones(4)), InvalidInput),
    ("dice-complex", lambda c: dice(np.ones(4), COMPLEX), InvalidInput),
    ("mask-bool", lambda c: MaskAnnotation("dog", BOOLS), InvalidInput),
    ("mask-str", lambda c: MaskAnnotation("dog", STRS), InvalidInput),
    ("mask-complex", lambda c: MaskAnnotation("dog", COMPLEX), InvalidInput),
    ("mask-empty", lambda c: MaskAnnotation("dog", np.zeros(0)), ShapeError),
    ("grounding-bool", lambda c: Grounding(BOOLS, False), InvalidInput),
    ("grounding-str", lambda c: Grounding(STRS, False), InvalidInput),
    ("grounding-complex", lambda c: Grounding(COMPLEX, False), InvalidInput),
    ("grounding-nan", lambda c: Grounding(np.array([0.5, np.nan]), False), InvalidInput),
    ("heatmap-bool", lambda c: export_heatmap(BOOLS, (2, 2), str(c.dir / "h.pgm")), InvalidInput),
    ("heatmap-str", lambda c: export_heatmap(STRS, (2, 2), str(c.dir / "h.pgm")), InvalidInput),
    ("heatmap-complex", lambda c: export_heatmap(COMPLEX, (2, 2), str(c.dir / "h.pgm")), InvalidInput),
    # scene files whose scalars the scene rules refuse
    ("scenes-grid", lambda c: load_scenes(scene_file(c, lambda p, s: p.update(grid=[8.5, "8"]))),
     FormatError),
    ("scenes-patch", lambda c: load_scenes(scene_file(c, lambda p, s: s["patches"].__setitem__(0, 37.9))),
     FormatError),
    ("scenes-label", lambda c: load_scenes(scene_file(c, lambda p, s: s["questions"][-1].update(label="Absent?"))),
     FormatError),
    ("scenes-utf8", lambda c: load_scenes(raw_file(c, b'{"grid": "\xff"}')), FormatError),
    ("scenes-nested", lambda c: load_scenes(raw_file(c, b"[" * 100_000)), FormatError),
    # values that are not the objects a call takes
    ("vqa_layout-scene", lambda c: build_vqa_layout(c.model, None, "dog"), InvalidParams),
    ("caption_layout-scene", lambda c: build_caption_layout(c.model, None), InvalidParams),
    ("caption_layout-model", lambda c: build_caption_layout(None, c.scene), InvalidInput),
    ("make_vocab-none", lambda c: make_vocab(None), InvalidSpec),
    ("make_vocab-int-word", lambda c: make_vocab(["dog", 1]), InvalidSpec),
    ("chair-none", lambda c: chair_metrics(None, None), InvalidInput),
    ("amber-none", lambda c: amber_metrics(None, None, None, 0.5), InvalidInput),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in ESCAPES], ids=[row[0] for row in ESCAPES])
def test_malformed_call_raises_a_typed_error(ctx, call, error):
    with pytest.raises(error):
        call(ctx)

