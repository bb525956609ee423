"""Record the seed values that the benchmark's output checks compare against.

Usage, from the repository root:

    python3 perfbench/record.py 0-63 > perfbench/expected.json

For each seed, and for the scene prefix every run covers, this writes

- ``exist-sweep``: each question's answer ('y', 'n' or '?') under the
  vanilla (``none``) and guided (``vsc``) arms, from
  ``evalkit.model_answer_fn``, the answerer ``run_existence_eval`` uses;
- ``caption-decode``: each scene's (cover, chair, caption length) under the
  vanilla and guided arms, from ``run_caption_eval``.

A later commit must reproduce these exactly: tokens may not change.
"""
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import logging  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
import vgalab.evalkit as evalkit  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv):
    logging.getLogger("vgalab").setLevel(logging.ERROR)
    seeds = parse_seeds(argv[0])
    out = {"exist-sweep": {}, "caption-decode": {}}
    for seed in seeds:
        _, _, models, scenes = run.setup_once(workloads.ExistSweep.pool_scenes, seed)
        exist = workloads.ExistSweep(models, scenes, seed, {})
        answers = {}
        for arm, config in exist.configs.items():
            letters = []
            for scene in scenes[: exist.recorded_scenes]:
                for q in scene.questions:
                    layout = evalkit.build_vqa_layout(exist.model, scene, q.word)
                    token = evalkit.model_answer_fn(exist.model, scene, q, layout, config)
                    letters.append(workloads.answer_letter(exist.model, int(token)))
            answers[arm] = "".join(letters)
        out["exist-sweep"][str(seed)] = answers

        _, _, models, scenes = run.setup_once(workloads.CaptionDecode.pool_scenes, seed)
        caption = workloads.CaptionDecode(models, scenes, seed, {})
        scores = {"vanilla": [], "guided": []}
        for k in range(2 * caption.recorded_scenes):
            op = caption.run(k)
            scores[op.arm].append(list(op.data["report"]))
        out["caption-decode"][str(seed)] = scores
        print(f"recorded seed {seed}", file=sys.stderr)
    json.dump(out, sys.stdout, indent=None, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
