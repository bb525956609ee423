"""End-to-end command-line coverage, run in-process via run(argv)."""
import json

import pytest

from vgalab.cli import RUNTIME_ERROR, run
from vgalab.evalkit import load_scenes
from vgalab.mllm import load_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A model file and a small scene file produced by the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    model = root / "model.vgm"
    scenes = root / "scenes.json"
    assert run(["make-model", "--kind", "planted", "--out", str(model)]) == 0
    assert run([
        "make-scenes", "--n-scenes", "3", "--seed", "3", "--out", str(scenes),
    ]) == 0
    return root


def model_path(workdir):
    return str(workdir / "model.vgm")


def scenes_path(workdir):
    return str(workdir / "scenes.json")


def test_make_model_planted_loads(workdir):
    model = load_model(model_path(workdir))
    assert model.config.n_layers == 6


def test_make_model_rejects_nan_sigma(tmp_path, capsys):
    out = tmp_path / "nan.vgm"
    assert run(["make-model", "--sigma", "nan", "--out", str(out)]) == 2
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


def test_make_model_random_loads(tmp_path):
    out = tmp_path / "rand.vgm"
    assert run(["make-model", "--kind", "random", "--seed", "1", "--out", str(out)]) == 0
    model = load_model(str(out))
    assert model.config.n_layers >= 1


def test_make_scenes_output_is_loadable(workdir):
    scenes = load_scenes(scenes_path(workdir))
    assert len(scenes) == 3
    assert all(len(s.questions) == 4 for s in scenes)


def test_make_scenes_rejects_grid_without_background_cell(tmp_path, capsys):
    out = tmp_path / "full.json"
    rc = run([
        "make-scenes", "--grid", "1", "2", "--min-objects", "2", "--max-objects", "2",
        "--out", str(out),
    ])
    assert rc == RUNTIME_ERROR
    assert "max_objects" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["make-scenes", "--seed", "-1"],
        ["make-model", "--kind", "planted", "--seed", "-1"],
        ["make-model", "--kind", "random", "--seed", "-1"],
    ],
    ids=["scenes", "planted", "random"],
)
def test_negative_seed_exits_two_without_a_traceback(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == RUNTIME_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be >= 0")
    assert "Traceback" not in err
    assert not out.exists()


def test_generate_vqa_answers_yes_or_no(workdir, capsys):
    scenes = load_scenes(scenes_path(workdir))
    word = scenes[0].questions[0].word
    rc = run([
        "generate",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--scene", "0",
        "--word", word,
    ])
    assert rc == 0
    out = capsys.readouterr().out.split()
    assert out[0] in ("yes", "no")


def test_generate_vqa_without_word_fails(workdir, capsys):
    rc = run([
        "generate",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_generate_caption_mentions_objects(workdir, capsys):
    rc = run([
        "generate",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--mode", "caption",
        "--max-len", "24",
    ])
    assert rc == 0
    words = set(capsys.readouterr().out.split())
    scenes = load_scenes(scenes_path(workdir))
    assert words & set(scenes[0].annotated)


def test_ground_writes_json_and_pgm(workdir, tmp_path, capsys):
    scenes = load_scenes(scenes_path(workdir))
    word = scenes[0].objects[0].word
    prefix = tmp_path / "dogmap"
    rc = run([
        "ground",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--word", word,
        "--out", str(prefix),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "dogmap.json").read_text())
    assert payload["source"] == "vsc"
    assert payload["word"] == word
    assert payload["grid"] == [8, 8]
    assert len(payload["values"]) == 64
    assert (tmp_path / "dogmap.pgm").read_bytes().startswith(b"P5")


def test_ground_vss_needs_no_word(workdir, tmp_path):
    prefix = tmp_path / "salience"
    rc = run([
        "ground",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--source", "vss",
        "--out", str(prefix),
    ])
    assert rc == 0
    assert json.loads((tmp_path / "salience.json").read_text())["word"] is None


def test_ground_vsc_without_word_fails(workdir, tmp_path):
    rc = run([
        "ground",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2


def test_profile_bos_reports_suggestion(workdir, capsys):
    scenes = load_scenes(scenes_path(workdir))
    rc = run([
        "profile-bos",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--word", scenes[0].questions[0].word,
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["profile"]) == 6
    assert isinstance(payload["suggested_start_layer"], int)
    assert payload["fallback"] in (False, True)
    assert payload["theta"] == 0.2


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_profile_bos_rejects_non_finite_theta(workdir, tmp_path, capsys, theta):
    """A NaN or infinite threshold fails; no file is written, since JSON has
    no NaN. The threshold is checked before anything loads, so a missing
    model file still reports the threshold."""
    out = tmp_path / "profile.json"
    for model in (model_path(workdir), str(tmp_path / "missing.vgm")):
        rc = run([
            "profile-bos",
            "--model", model,
            "--scenes", scenes_path(workdir),
            "--theta", theta,
            "--out", str(out),
        ])
        assert rc == RUNTIME_ERROR
        assert "theta" in capsys.readouterr().err
        assert not out.exists()


def test_eval_exist_writes_report(workdir, tmp_path, capsys):
    out = tmp_path / "exist.json"
    rc = run([
        "eval-exist",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["task"] == "existence"
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["config"]["beta"] == 0.25  # guided default for this subcommand
    assert report["config"]["mode"] == "vqa"


def test_eval_exist_stdout_when_no_out(workdir, capsys):
    rc = run([
        "eval-exist",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--guidance", "none",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_items"] == 12


def test_eval_caption_reports_set_metrics(workdir, capsys):
    rc = run([
        "eval-caption",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--max-len", "24",
        "--lambda", "0.05",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["task"] == "caption"
    assert report["config"]["mode"] == "caption"
    assert report["config"]["lambda_"] == 0.05
    assert 0.0 <= report["amber"] <= 1.0


def test_eval_ground_reports_dice(workdir, capsys):
    rc = run([
        "eval-ground",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--source", "vsc",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["task"] == "grounding"
    assert 0.0 <= report["mean_dice"] <= 1.0


def test_bench_ttft_reports_timings(workdir, tmp_path, capsys):
    out = tmp_path / "ttft.json"
    rc = run([
        "bench-ttft",
        "--model", model_path(workdir),
        "--scenes", scenes_path(workdir),
        "--runs", "1",
        "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["rows_vanilla"] == payload["rows_guided"]
    assert payload["config"]["beta"] == 0.2
    assert payload["vanilla_median_s"] > 0


@pytest.mark.parametrize("command", ["eval-exist", "bench-ttft"])
def test_scenes_without_questions_exit_two(workdir, tmp_path, capsys, command):
    payload = json.loads((workdir / "scenes.json").read_text())
    for scene in payload["scenes"]:
        scene["questions"] = []
    scenes = tmp_path / "no-questions.json"
    scenes.write_text(json.dumps(payload))
    rc = run([command, "--model", model_path(workdir), "--scenes", str(scenes)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("eval-exist", "--mode", "caption"),
        ("eval-exist", "--lambda", "0.7"),
        ("bench-ttft", "--mode", "caption"),
        ("bench-ttft", "--lambda", "0.7"),
        ("eval-caption", "--mode", "vqa"),
    ],
)
def test_subcommands_reject_flags_they_do_not_read(workdir, capsys, command, flag, value):
    rc = run([
        command, "--model", model_path(workdir), "--scenes", scenes_path(workdir), flag, value,
    ])
    assert rc == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("eval-exist", []),
        ("generate", ["--mode", "caption"]),
        ("ground", ["--source", "vss", "--out"]),
    ],
)
def test_scenes_of_another_grid_exit_two(workdir, tmp_path, capsys, command, flags):
    """4x4 scenes on the 8x8 planted model: the prompt's visual span does
    not hold the model's patch grid, which every route rejects."""
    scenes = tmp_path / "grid4.json"
    assert run(["make-scenes", "--n-scenes", "2", "--grid", "4", "4", "--out", str(scenes)]) == 0
    if flags[-1:] == ["--out"]:
        flags = flags + [str(tmp_path / "map")]
    rc = run([command, "--model", model_path(workdir), "--scenes", str(scenes), *flags])
    assert rc == RUNTIME_ERROR
    assert "64-patch grid" in capsys.readouterr().err
    assert not (tmp_path / "map.json").exists()


def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["make-model"]) == 1  # missing required --out
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval-exist", "eval-caption"])
def test_eval_commands_take_no_jobs_flag(workdir, capsys, command):
    rc = run([
        command, "--model", model_path(workdir), "--scenes", scenes_path(workdir), "--jobs", "2",
    ])
    assert rc == 1
    assert "--jobs" in capsys.readouterr().err


def test_missing_model_file_exits_two(workdir, capsys):
    rc = run([
        "eval-exist",
        "--model", "/nonexistent/model.vgm",
        "--scenes", scenes_path(workdir),
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err
