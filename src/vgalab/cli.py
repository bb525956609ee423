"""Command-line frontend: models, scenes, generation, grounding, evals.

Every subcommand is runnable from a fresh checkout using only artifacts
the other subcommands produce; reports echo their resolved configuration
so a run can be reproduced from its output alone. Exit codes: 0 success,
1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import VgalabError, open_path
from .evalkit import (
    NEGATIVE_MODES,
    SceneParams,
    bench_ttft,
    build_caption_layout,
    build_vqa_layout,
    export_heatmap,
    grounding_quality_eval,
    load_scenes,
    make_scenes,
    question_text,
    run_caption_eval,
    run_existence_eval,
    save_report,
    save_scenes,
)
from .grounding import vsc_vector, vss_values
from .mllm import generated_words, greedy_generate, load_model, prefill, save_model
from .mllm.planted import PlantedSpec, build_planted_model, build_random_model
from .vga import (
    MODES,
    SOURCES,
    VgaConfig,
    bos_profile,
    check_theta,
    new_session,
    suggest_start_layer,
)

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2.

    Flags must be spelled out: with abbreviations, ``--mode`` would be read
    as ``--model`` by the subcommands that take no ``--mode``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_vga_flags(
    p: argparse.ArgumentParser, default_beta: float = 0.2, decay: bool = False
) -> None:
    """Guidance flags; ``--lambda`` only where captions are decoded (``decay``)."""
    p.add_argument("--beta", type=float, default=default_beta,
                   help="guidance strength (0 disables)")
    if decay:
        p.add_argument("--lambda", dest="lambda_", type=float, default=VgaConfig.lambda_,
                       help="per-token suppression rate in caption mode")
    p.add_argument("--start-layer", type=int, default=0)
    p.add_argument("--end-layer", type=int, default=None)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--guidance", choices=SOURCES, default="auto",
                   help="grounding source; auto picks by mode")
    p.add_argument("--no-head-balance", action="store_true")


def _config_from(args: argparse.Namespace, mode: str) -> VgaConfig:
    return VgaConfig(
        beta=args.beta,
        lambda_=getattr(args, "lambda_", VgaConfig.lambda_),
        start_layer=args.start_layer,
        end_layer=args.end_layer,
        top_k=args.top_k,
        mode=mode,
        guidance_source=args.guidance,
        head_balancing=not args.no_head_balance,
    )


def _load_scene(args: argparse.Namespace):
    scenes = load_scenes(args.scenes)
    if not 0 <= args.scene < len(scenes):
        raise VgalabError(
            f"scene index {args.scene} out of range (file has {len(scenes)})"
        )
    return scenes[args.scene]


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if out:
        with open_path(out, "w", "JSON output") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(report, out: str | None) -> int:
    """Save ``report`` to ``out``, or print it when no path is given."""
    if out:
        save_report(report, out)
        print(f"wrote report to {out}")
    else:
        _write_json(report.to_dict(), None)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="vgalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-model", help="construct a model and save its weights")
    p.add_argument("--kind", choices=("planted", "random"), default="planted")
    p.add_argument("--sigma", type=float, default=0.0, help="key-noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("make-scenes", help="sample annotated scenes to JSON")
    p.add_argument("--n-scenes", type=int, default=25)
    p.add_argument("--grid", type=int, nargs=2, default=(8, 8), metavar=("ROWS", "COLS"))
    p.add_argument("--min-objects", type=int, default=1)
    p.add_argument("--max-objects", type=int, default=3)
    p.add_argument("--questions", type=int, default=4, help="questions per scene (even)")
    p.add_argument("--negatives", choices=NEGATIVE_MODES, default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="greedy generation for one scene prompt")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--scene", type=int, default=0, help="scene index")
    p.add_argument("--word", default=None, help="question word (vqa mode)")
    p.add_argument("--max-len", type=int, default=512)
    p.add_argument("--mode", choices=MODES, default="vqa")
    _add_vga_flags(p, decay=True)

    p = sub.add_parser("ground", help="emit a grounding JSON and PGM heatmap")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--scene", type=int, default=0)
    p.add_argument("--source", choices=("vsc", "vss"), default="vsc")
    p.add_argument("--word", default=None, help="object word (vsc source)")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--out", required=True, help="output prefix: writes .json and .pgm")

    p = sub.add_parser("profile-bos", help="per-layer BOS attention of a prompt")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--scene", type=int, default=0)
    p.add_argument("--word", default=None, help="question word; omit for caption prompt")
    p.add_argument("--theta", type=float, default=0.2)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("eval-exist", help="existence-question evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", default=None)
    _add_vga_flags(p, default_beta=0.25)

    p = sub.add_parser("eval-caption", help="caption evaluation with set metrics")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--max-len", type=int, default=64)
    _add_vga_flags(p, decay=True)

    p = sub.add_parser("eval-ground", help="grounding-quality Dice evaluation")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--source", choices=("vsc", "vss"), default="vsc")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bench-ttft", help="time-to-first-token, vanilla vs guided")
    p.add_argument("--model", required=True)
    p.add_argument("--scenes", required=True)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--out", default=None)
    _add_vga_flags(p)

    return parser


def _cmd_make_model(args) -> int:
    if args.kind == "planted":
        model = build_planted_model(PlantedSpec(sigma=args.sigma), seed=args.seed)
    else:
        model = build_random_model(args.seed)
    save_model(model, args.out)
    dims = model.config
    print(f"wrote {args.kind} model to {args.out} "
          f"(layers={dims.n_layers} heads={dims.n_heads} d={dims.d_model})")
    return 0


def _cmd_make_scenes(args) -> int:
    params = SceneParams(
        n_scenes=args.n_scenes,
        grid=tuple(args.grid),
        min_objects=args.min_objects,
        max_objects=args.max_objects,
        questions_per_scene=args.questions,
        negative_mode=args.negatives,
    )
    scenes = make_scenes(params, seed=args.seed)
    save_scenes(scenes, args.out)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    model = load_model(args.model)
    scene = _load_scene(args)
    config = _config_from(args, mode=args.mode)
    if config.mode == "vqa":
        if not args.word:
            raise VgalabError("vqa generation needs --word")
        layout = build_vqa_layout(model, scene, args.word)
        question = question_text(args.word)
    else:
        layout = build_caption_layout(model, scene)
        question = ""
    session = new_session(model, config, question=question)
    tokens = greedy_generate(model, layout, vga=session, max_len=args.max_len)
    print(" ".join(generated_words(model, tokens)))
    return 0


def _cmd_ground(args) -> int:
    model = load_model(args.model)
    scene = _load_scene(args)
    layout = build_caption_layout(model, scene)
    logits = prefill(model, layout).visual_logits
    if args.source == "vsc":
        if not args.word:
            raise VgalabError("vsc grounding needs --word")
        values = vsc_vector(logits, model.vocab.id_of(args.word))
    else:
        values = vss_values(logits, k=args.top_k)
    payload = {
        "source": args.source,
        "word": args.word,
        "top_k": args.top_k,
        "scene": args.scene,
        "grid": list(scene.grid),
        "values": [float(x) for x in values],
    }
    _write_json(payload, args.out + ".json")
    export_heatmap(values, scene.grid, args.out + ".pgm")
    print(f"wrote {args.out}.json and {args.out}.pgm")
    return 0


def _cmd_profile_bos(args) -> int:
    check_theta(args.theta)  # before the model loads and the reference runs
    model = load_model(args.model)
    scene = _load_scene(args)
    if args.word:
        layout = build_vqa_layout(model, scene, args.word)
    else:
        layout = build_caption_layout(model, scene)
    profile = bos_profile(model, layout)
    layer, fallback = suggest_start_layer(profile, theta=args.theta)
    payload = {
        "profile": [float(x) for x in profile],
        "suggested_start_layer": layer,
        "fallback": fallback,
        "theta": args.theta,
    }
    _write_json(payload, args.out)
    return 0


def _cmd_eval_exist(args) -> int:
    model = load_model(args.model)
    scenes = load_scenes(args.scenes)
    config = _config_from(args, mode="vqa")
    return _emit_report(run_existence_eval(model, scenes, config), args.out)


def _cmd_eval_caption(args) -> int:
    model = load_model(args.model)
    scenes = load_scenes(args.scenes)
    config = _config_from(args, mode="caption")
    report = run_caption_eval(model, scenes, config, max_len=args.max_len)
    return _emit_report(report, args.out)


def _cmd_eval_ground(args) -> int:
    model = load_model(args.model)
    scenes = load_scenes(args.scenes)
    return _emit_report(grounding_quality_eval(model, scenes, source=args.source), args.out)


def _cmd_bench_ttft(args) -> int:
    model = load_model(args.model)
    scenes = load_scenes(args.scenes)
    config = _config_from(args, mode="vqa")
    stats = bench_ttft(model, scenes, config, runs=args.runs)
    payload = stats.to_dict()
    payload["config"] = asdict(config)
    _write_json(payload, args.out)
    if args.out:
        print(f"wrote timings to {args.out}")
    return 0


_COMMANDS = {
    "make-model": _cmd_make_model,
    "make-scenes": _cmd_make_scenes,
    "generate": _cmd_generate,
    "ground": _cmd_ground,
    "profile-bos": _cmd_profile_bos,
    "eval-exist": _cmd_eval_exist,
    "eval-caption": _cmd_eval_caption,
    "eval-ground": _cmd_eval_ground,
    "bench-ttft": _cmd_bench_ttft,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except VgalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
