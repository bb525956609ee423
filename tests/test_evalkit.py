"""Scene sampling, hallucination metrics, evaluation loops, heatmap export."""
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vgalab.errors import (
    ConfigError,
    FormatError,
    InvalidInput,
    InvalidParams,
    IoError,
    ShapeError,
)
from vgalab.evalkit import (
    SceneParams,
    amber_metrics,
    bench_ttft,
    build_caption_layout,
    build_vqa_layout,
    chair_metrics,
    export_heatmap,
    f1_score,
    grounding_quality_eval,
    load_scenes,
    make_scenes,
    model_answer_fn,
    partner_table,
    run_caption_eval,
    run_existence_eval,
    save_report,
    save_scenes,
    scenes_to_payload,
    size_class,
    zipf_weights,
)
from vgalab.evalkit import harness
from vgalab.evalkit.metrics import EvalReport
from vgalab.evalkit.scenes import _draw_distinct
from vgalab.grounding import vsc_vector
from vgalab.mllm import forward_rows_count, prefill
from vgalab.vga import VgaConfig
from vgalab.vocab import DEFAULT_OBJECT_WORDS, make_vocab

MODULE_DICE_FLOOR = 0.75


# -- scene sampling ------------------------------------------------------------

def test_scenes_are_deterministic_and_balanced():
    params = SceneParams(n_scenes=6, questions_per_scene=4)
    a = make_scenes(params, seed=5)
    b = make_scenes(params, seed=5)
    assert scenes_to_payload(a) == scenes_to_payload(b)
    for scene in a:
        pres = sum(q.present for q in scene.questions)
        assert pres == len(scene.questions) // 2
        assert scene.objects  # at least one planted object
    c = make_scenes(params, seed=6)
    assert scenes_to_payload(a) != scenes_to_payload(c)


def test_scene_masks_agree_with_patch_tokens(clean_model, scenes12):
    vocab = clean_model.vocab
    assert vocab == make_vocab()  # scenes sample from make_vocab()'s table
    for scene in scenes12:
        covered = set()
        for mask in scene.objects:
            tok = vocab.patch_token_of(mask.word)
            cells = np.flatnonzero(mask.overlaps)
            covered.update(int(c) for c in cells)
            assert all(scene.patches[c] == tok for c in cells)
        background = set(range(scene.n_patches)) - covered
        assert background, "every scene keeps at least one background cell"
        assert all(scene.patches[c] in vocab.background_ids for c in background)
        assert set(scene.annotated) == {m.word for m in scene.objects}


def test_negative_modes():
    popular = make_scenes(
        SceneParams(n_scenes=8, negative_mode="popular"), seed=2
    )
    for scene in popular:
        half = len(scene.questions) // 2
        absent_ranked = [
            w for w in DEFAULT_OBJECT_WORDS if w not in scene.annotated
        ]
        negatives = [q.word for q in scene.questions if not q.present]
        assert negatives == absent_ranked[:half]

    partners = partner_table(DEFAULT_OBJECT_WORDS)
    adversarial = make_scenes(
        SceneParams(n_scenes=8, negative_mode="adversarial"), seed=2
    )
    paired = 0
    for scene in adversarial:
        negatives = {q.word for q in scene.questions if not q.present}
        if negatives & {partners[w] for w in scene.annotated}:
            paired += 1
    assert paired >= len(adversarial) // 2


def test_partner_table_pairs_adjacent_ranks():
    words = ("a", "b", "c", "d", "e")
    table = partner_table(words)
    assert table == {"a": "b", "b": "a", "c": "d", "d": "c", "e": "a"}


def test_zipf_weights_decreasing_unit_mass():
    w = zipf_weights(6)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(np.diff(w) < 0)
    assert w[0] == pytest.approx(2 * w[1], rel=1e-12)


def test_size_class_boundaries():
    assert size_class(3, 64) == "small"  # 4.7% <= 5%
    assert size_class(4, 64) == "medium"
    assert size_class(15, 64) == "medium"
    assert size_class(16, 64) == "large"  # 25% >= 25%
    for patch_count, n_patches in ((0, 0), (5, 4), (-1, 64), (2.0, 64), (2, "64"), (True, 64)):
        with pytest.raises(InvalidParams):
            size_class(patch_count, n_patches)


def test_scene_params_validation():
    for kwargs in (
        {"n_scenes": 0},
        {"min_objects": 0},
        {"min_objects": 3, "max_objects": 2},
        {"questions_per_scene": 3},
        {"questions_per_scene": 0},
        {"max_objects": len(DEFAULT_OBJECT_WORDS)},
        {"negative_mode": "sneaky"},
        {"grid": (0, 8)},
        {"n_scenes": 2.5},
        {"max_objects": 2.0},
        {"questions_per_scene": "4"},
        {"grid": (8.0, 8)},
        {"grid": (8, 8, 8)},
        {"grid": (1, 2), "min_objects": 2, "max_objects": 2},  # no cell left for background
        {"grid": (1, 1), "max_objects": 1},
    ):
        with pytest.raises(InvalidParams):
            SceneParams(**kwargs)


def test_make_scenes_rejects_a_malformed_seed_or_params():
    params = SceneParams(n_scenes=2)
    for seed in (-1, "x", 1.5, True, None):
        with pytest.raises(InvalidParams, match="seed"):
            make_scenes(params, seed)
    for bad in (None, {"n_scenes": 2}):
        with pytest.raises(InvalidParams, match="SceneParams"):
            make_scenes(bad, 1)
    assert scenes_to_payload(make_scenes(params, np.int64(3))) == scenes_to_payload(
        make_scenes(params, 3)
    )


# sha256 of json.dumps(scenes_to_payload(...), sort_keys=True); any change to
# the sampler's draws, their order or the stream they consume moves these
SCENE_DIGESTS = {
    (0, "random", 125): "0e912c3b22558fa8091c164be82d2b5cbb572c1ac579b00b546f70efdd43dba5",
    (0, "popular", 125): "9700a3f191bf6406363972d86695f36f67037c4dce3dc6a64bc30c6bd740fafd",
    (0, "adversarial", 125): "52185cf08d63a10d203c8d8833d52670bb37b2156eee1f4ce6a476857ddc1745",
    (11, "random", 125): "4781bf378ef47f05d73270f429480f9766c44b5e5c6438edb0131b796375a762",
    (11, "popular", 125): "c2656e1f14f47da29aba2ea7f6d9fb8deca343a2f19e0396ef240aa4135129ad",
    (11, "adversarial", 125): "185a95339db88a5143bc0b6f344f7de86c2a40e9d8e3ad167cdbcbd251dce826",
    (11, "random", 1600): "9a3932a754d51c3a8c7b4770f11e49b40ddf6c2c6c39ddb8c24181d16f892088",
}


@pytest.mark.parametrize("seed, mode, n_scenes", sorted(SCENE_DIGESTS))
def test_scene_corpus_matches_golden_digest(seed, mode, n_scenes):
    scenes = make_scenes(SceneParams(n_scenes=n_scenes, negative_mode=mode), seed=seed)
    payload = json.dumps(scenes_to_payload(scenes), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == SCENE_DIGESTS[seed, mode, n_scenes]


@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=25)
    .filter(any),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_draw_distinct_matches_numpy_choice(weights, seed, data):
    p = np.asarray(weights) / sum(weights)
    size = data.draw(st.integers(0, int(np.count_nonzero(p))), label="size")
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_distinct(ours, p.tolist(), size)
    want = numpys.choice(len(p), size, replace=False, p=p)
    assert got == want.tolist()
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_scene_save_load_round_trip(tmp_path, scenes12):
    path = tmp_path / "scenes.json"
    save_scenes(scenes12, str(path))
    loaded = load_scenes(str(path))
    assert scenes_to_payload(loaded) == scenes_to_payload(scenes12)


def test_scene_load_errors(tmp_path):
    with pytest.raises(IoError):
        load_scenes(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_scenes(str(bad))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"grid": [2, 2], "scenes": [{"patches": [1]}]}))
    with pytest.raises(FormatError):
        load_scenes(str(wrong))


# -- metrics ---------------------------------------------------------------------

def test_chair_hand_examples():
    assert chair_metrics([{"dog", "car"}], [{"dog"}]) == (1.0, 0.5)
    assert chair_metrics([{"dog"}, {"cat"}], [{"dog"}, {"cat"}]) == (0.0, 0.0)
    s, i = chair_metrics([{"dog"}, {"car"}], [{"dog"}, {"dog"}])
    assert (s, i) == (0.5, 0.5)
    assert chair_metrics([set()], [{"dog"}]) == (0.0, 0.0)


def test_chair_validation():
    with pytest.raises(InvalidInput):
        chair_metrics([], [])
    with pytest.raises(ShapeError):
        chair_metrics([{"dog"}], [])


@pytest.mark.parametrize("bad", [[None], [3], [[["dog"]]]], ids=["none", "int", "unhashable"])
def test_set_metrics_reject_an_item_that_is_not_a_set_of_words(bad):
    with pytest.raises(InvalidInput):
        chair_metrics(bad, [set()])
    with pytest.raises(InvalidInput):
        chair_metrics([set()], bad)
    with pytest.raises(InvalidInput):
        amber_metrics(bad, [set()], [set()], f1=0.5)


def test_amber_hand_examples():
    scores = amber_metrics([{"dog", "car"}], [{"dog", "tree"}], [set()], f1=0.8)
    assert scores.chair == pytest.approx(0.5)
    assert scores.cover == pytest.approx(0.5)
    assert scores.hal == 1.0
    assert scores.cog == 0.0
    assert scores.amber == pytest.approx((1 - 0.5 + 0.8) / 2)

    clean = amber_metrics([{"dog"}], [{"dog", "cat"}], [set()], f1=1.0)
    assert clean.chair == 0.0
    assert clean.hal == 0.0

    cog = amber_metrics([{"kite"}], [{"dog"}], [{"kite"}], f1=0.0)
    assert cog.cog == 1.0
    assert cog.chair == 1.0

    empty = amber_metrics([set()], [{"dog"}], [{"cat"}], f1=0.5)
    assert empty.chair == 0.0 and empty.cog == 0.0 and empty.cover == 0.0

    no_annotation = amber_metrics([{"dog"}], [set()], [set()], f1=0.5)
    assert no_annotation.cover == 0.0


def test_amber_validation():
    for f1 in (1.2, "x", True, None):
        with pytest.raises(InvalidParams):
            amber_metrics([{"dog"}], [{"dog"}], [set()], f1=f1)
    with pytest.raises(ShapeError):
        amber_metrics([{"dog"}], [{"dog"}], [], f1=0.5)
    with pytest.raises(InvalidInput):
        amber_metrics([], [], [], f1=0.5)


def test_f1_score_values():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)
    for bad in (float("nan"), float("inf"), -0.1, 1.5, "a", None, True):
        with pytest.raises(InvalidParams):
            f1_score(bad, 0.5)
        with pytest.raises(InvalidParams):
            f1_score(0.5, bad)


def test_eval_report_validation_and_save(tmp_path):
    with pytest.raises(InvalidParams):
        EvalReport(task="existence", n_items=4, accuracy=1.2)
    with pytest.raises(InvalidParams):
        EvalReport(task="existence", n_items=-1)
    with pytest.raises(InvalidParams):
        EvalReport(task="x", n_items="3")
    with pytest.raises(InvalidParams):
        EvalReport(task="x", n_items=3, accuracy="0.5")
    for bad in ({"unmapped": "a"}, {"unmapped": -3}, {"unmapped": 2}, {"unmapped": 1.0}):
        with pytest.raises(InvalidParams):
            EvalReport(task="x", n_items=1, **bad)
    for bad in ("a", -1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidParams):
            EvalReport(task="x", n_items=1, mean_caption_len=bad)
    assert EvalReport(task="x", n_items=1, unmapped=1, mean_caption_len=0.0).unmapped == 1
    report = EvalReport(task="existence", n_items=4, accuracy=0.75, config={"beta": 0.2})
    path = tmp_path / "report.json"
    save_report(report, str(path))
    assert json.loads(path.read_text()) == report.to_dict()


# -- harness ----------------------------------------------------------------------

def answer_each(monkeypatch, scenes, answer):
    """Make the existence loop answer every question of ``scenes`` by
    ``answer(model, scene, question, layout, config) -> token id``, in place
    of its batched forward: the harness's scoring under a known answerer."""
    pending = iter([scene for scene in scenes if scene.questions])

    def forward(model, layouts, session):
        scene = next(pending)
        logits = np.zeros((len(layouts), model.vocab.size))
        for row, question, layout in zip(logits, scene.questions, layouts):
            row[answer(model, scene, question, layout, session.config)] = 1.0
        return logits

    monkeypatch.setattr(harness, "prefill_shared", forward)


def oracle_answer(model, scene, question, layout, config):
    return model.vocab.yes_id if question.present else model.vocab.no_id


def test_existence_eval_with_perfect_oracle(clean_model, scenes12, monkeypatch):
    answer_each(monkeypatch, scenes12, oracle_answer)
    report = run_existence_eval(clean_model, scenes12, VgaConfig(guidance_source="none"))
    assert report.accuracy == 1.0
    assert report.f1 == 1.0
    assert report.unmapped == 0
    assert report.n_items == sum(len(s.questions) for s in scenes12)
    assert report.config["guidance_source"] == "none"


def test_existence_eval_all_yes_responder(clean_model, scenes12, monkeypatch):
    def all_yes(model, scene, question, layout, config):
        return model.vocab.yes_id

    answer_each(monkeypatch, scenes12, all_yes)
    report = run_existence_eval(clean_model, scenes12, VgaConfig(guidance_source="none"))
    assert report.accuracy == 0.5
    assert report.recall == 1.0
    assert report.precision == 0.5


def test_existence_eval_counts_unmapped_as_incorrect(clean_model, scenes12, monkeypatch):
    def mute(model, scene, question, layout, config):
        return model.vocab.bos_id

    answer_each(monkeypatch, scenes12[:2], mute)
    report = run_existence_eval(clean_model, scenes12[:2], VgaConfig(guidance_source="none"))
    assert report.accuracy == 0.0
    assert report.unmapped == report.n_items


def test_existence_eval_batches_each_scenes_questions(clean_model, scenes12, monkeypatch):
    """Each scene's prefix runs once and its questions' tails run as one
    batch over it, with the same report as the one-question answerer."""
    cfg = VgaConfig(guidance_source="none")
    run_existence_eval(clean_model, scenes12[:4], cfg)  # leaves scene 3 in the memo
    guided = VgaConfig(guidance_source="vsc")
    rows_before = forward_rows_count()
    shared = run_existence_eval(clean_model, scenes12, guided)
    layout = build_vqa_layout(clean_model, scenes12[0], scenes12[0].questions[0].word)
    tail = layout.length - layout.visual_end
    assert forward_rows_count() - rows_before == sum(
        layout.visual_end + tail * len(s.questions) for s in scenes12
    )
    for scenes in ([], ["x"], "ab", None, (scenes12[0], None)):
        with pytest.raises(InvalidParams):
            run_existence_eval(clean_model, scenes, cfg)
    with pytest.raises(ConfigError):
        run_existence_eval(clean_model, scenes12[:1], None)
    with pytest.raises(InvalidInput):
        run_existence_eval(None, scenes12[:1], cfg)
    for jobs in ("2", 0, 2, 3, 2.5, True, None):
        with pytest.raises(InvalidParams):
            run_existence_eval(clean_model, scenes12[:1], cfg, jobs=jobs)
    assert run_existence_eval(clean_model, scenes12[:1], cfg, jobs=1).n_items == 4
    answer_each(monkeypatch, scenes12, model_answer_fn)
    assert shared == run_existence_eval(clean_model, scenes12, guided)


def test_caption_eval_reports_set_metrics(clean_model, scenes12):
    report = run_caption_eval(
        clean_model, scenes12[:4], VgaConfig(mode="caption"), f1=0.9, max_len=32
    )
    assert report.task == "caption"
    assert report.f1 == 0.9
    assert report.accuracy is None  # discriminative half skipped when f1 given
    for name in ("chair_s", "chair_i", "chair", "cover", "hal", "cog", "amber"):
        assert 0.0 <= getattr(report, name) <= 1.0
    assert report.amber == pytest.approx((1 - report.chair + 0.9) / 2)
    assert report.mean_caption_len > 0
    assert report.config["mode"] == "caption"


def test_caption_eval_runs_paired_discriminative_half(clean_model, scenes12):
    """Each scene's questions follow its caption and reuse its visual prefix
    from the model's memo: beyond the captions, only the questions' text
    tails run, and the answers are those of ``run_existence_eval``."""
    scenes = scenes12[:3]
    config = VgaConfig(beta=0.25)  # salience-guided captions, vsc-guided answers

    def rows_of(**kwargs):
        prefill(clean_model, build_caption_layout(clean_model, scenes12[-1]))  # a cold memo
        before = forward_rows_count()
        report = run_caption_eval(clean_model, scenes, config, max_len=24, **kwargs)
        return report, forward_rows_count() - before

    report, rows = rows_of()
    assert report.config["mode"] == "caption"  # coerced for the captioning half
    exist = run_existence_eval(clean_model, scenes, replace(config, mode="vqa"))
    assert (report.accuracy, report.precision, report.recall, report.f1) == (
        exist.accuracy, exist.precision, exist.recall, exist.f1
    )
    captions_only, caption_rows = rows_of(f1=report.f1)
    layout = build_vqa_layout(clean_model, scenes[0], scenes[0].questions[0].word)
    tail = layout.length - layout.visual_end
    assert rows - caption_rows == tail * sum(len(s.questions) for s in scenes)
    assert replace(captions_only, accuracy=report.accuracy, precision=report.precision,
                   recall=report.recall) == report
    for bad in ([], ["x"]):
        with pytest.raises(InvalidParams):
            run_caption_eval(clean_model, bad, VgaConfig())
    with pytest.raises(ConfigError):
        run_caption_eval(clean_model, scenes, None, f1=0.5)
    asked_nothing = replace(scenes[0], questions=())
    with pytest.raises(InvalidParams):
        run_caption_eval(clean_model, [asked_nothing], VgaConfig())
    run_caption_eval(clean_model, [asked_nothing], VgaConfig(), f1=0.5, max_len=4)
    for jobs in ("2", 0, 2, 3, 2.5, True, None):
        with pytest.raises(InvalidParams):
            run_caption_eval(clean_model, scenes12[:1], VgaConfig(), f1=0.5, jobs=jobs)
    one = run_caption_eval(clean_model, scenes12[:1], VgaConfig(), f1=0.5, max_len=4, jobs=1)
    assert one.n_items == 1


@pytest.mark.parametrize("f1", [1.5, float("nan"), "x", True], ids=["above", "nan", "str", "bool"])
def test_caption_eval_checks_f1_before_any_caption(clean_model, scenes12, f1):
    """A supplied ``f1`` outside the reals in [0, 1] raises before the first
    caption pushes a forward row."""
    before = forward_rows_count()
    with pytest.raises(InvalidParams):
        run_caption_eval(clean_model, scenes12[:5], VgaConfig(), f1=f1, max_len=8)
    assert forward_rows_count() == before


def test_grounding_quality_eval_buckets(clean_model, scenes12):
    report = grounding_quality_eval(clean_model, scenes12, source="vsc")
    assert report.mean_dice >= MODULE_DICE_FLOOR
    assert report.n_items == sum(len(s.objects) for s in scenes12)
    assert set(report.dice_by_size) <= {"small", "medium", "large"}
    for bucket in report.dice_by_size.values():
        assert 0.0 <= bucket["mean_dice"] <= 1.0

    salience = grounding_quality_eval(clean_model, scenes12, source="vss")
    assert 0.0 <= salience.mean_dice <= 1.0
    with pytest.raises(InvalidParams):
        grounding_quality_eval(clean_model, scenes12, source="gaze")
    for scenes in ([], ["x"], "ab"):
        with pytest.raises(InvalidParams):
            grounding_quality_eval(clean_model, scenes, source="vsc")
    with pytest.raises(InvalidInput):
        grounding_quality_eval(None, scenes12)


def test_image_confidence_ranks_every_present_object_first(clean_model, scenes12):
    """Ranking AUC 1.0 over every scene question: each present object's
    image confidence exceeds each absent one's."""
    present, absent = [], []
    for scene in scenes12:
        logits = prefill(clean_model, build_caption_layout(clean_model, scene)).visual_logits
        for q in scene.questions:
            conf = float(vsc_vector(logits, clean_model.vocab.id_of(q.word)).max())
            (present if q.present else absent).append(conf)
    assert present and absent
    assert min(absent) > 0
    assert min(present) > max(absent)


def test_bench_ttft_counts_rows(clean_model, scenes12):
    """Every timed request is cold: each scene is timed once per arm and
    run, and pushes its whole prompt."""
    layout = build_vqa_layout(clean_model, scenes12[0], scenes12[0].questions[0].word)
    for n_scenes, runs in ((3, 1), (2, 2)):
        stats = bench_ttft(clean_model, scenes12[:n_scenes], VgaConfig(), runs=runs)
        assert stats.vanilla_median_s > 0
        assert stats.guided_median_s > 0
        assert stats.rows_vanilla == stats.rows_guided
        assert stats.rows_vanilla == runs * n_scenes * layout.length
        assert (stats.n_prompts, stats.runs) == (n_scenes, runs)
    for runs in (0, 2.5, True, "1", None):
        with pytest.raises(InvalidParams):
            bench_ttft(clean_model, scenes12[:3], VgaConfig(), runs=runs)
    before = forward_rows_count()
    for scenes in (
        [],
        scenes12[:1],
        [scenes12[0], scenes12[0], scenes12[1]],
        [scenes12[0], scenes12[1], scenes12[0]],  # the last pass's end meets the next's start
    ):
        with pytest.raises(InvalidParams):  # too few scenes, or a request served from the memo
            bench_ttft(clean_model, scenes, VgaConfig())
    with pytest.raises(ConfigError):
        bench_ttft(clean_model, scenes12[:3], None)
    with pytest.raises(InvalidInput):
        bench_ttft(None, scenes12[:3], VgaConfig())
    assert forward_rows_count() == before  # refused before anything ran


# -- heatmap ----------------------------------------------------------------------

def read_pgm(path):
    raw = path.read_bytes()
    header, rest = raw.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    maxval, pixels = rest.split(b"\n", 1)
    cols, rows = (int(x) for x in dims.split())
    return header, (rows, cols), int(maxval), np.frombuffer(pixels, dtype=np.uint8)


def test_heatmap_writes_scaled_pgm(tmp_path):
    values = np.array([0.0, 0.25, 0.5, 1.0, 0.0, 0.75])
    path = tmp_path / "map.pgm"
    export_heatmap(values, (2, 3), str(path))
    header, shape, maxval, pixels = read_pgm(path)
    assert header == b"P5"
    assert shape == (2, 3)
    assert maxval == 255
    assert pixels.size == 6
    assert pixels[3] == 255 and pixels[0] == 0


def test_heatmap_flat_input_renders_midgray(tmp_path):
    path = tmp_path / "flat.pgm"
    export_heatmap(np.full(4, 0.25), (2, 2), str(path))
    _, _, _, pixels = read_pgm(path)
    assert np.all(pixels == 128)


def test_heatmap_validation(tmp_path):
    with pytest.raises(ShapeError):
        export_heatmap(np.ones(5), (2, 3), str(tmp_path / "x.pgm"))
    with pytest.raises(InvalidInput):
        export_heatmap(np.full(4, np.nan), (2, 2), str(tmp_path / "x.pgm"))
    with pytest.raises(IoError):
        export_heatmap(np.ones(4), (2, 2), str(tmp_path / "no" / "dir" / "x.pgm"))
    for grid in (("a", 2), (2.0, 2), (2, True), 4, (0, 4)):
        with pytest.raises(InvalidInput):
            export_heatmap(np.ones(4), grid, str(tmp_path / "x.pgm"))
    assert not (tmp_path / "x.pgm").exists()
