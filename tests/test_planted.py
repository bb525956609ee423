"""Planted-model construction: vocabulary layout, oracle behavior, noise knob."""
import numpy as np
import pytest

from vgalab.errors import InvalidInput, InvalidSpec
from vgalab.grounding import Grounding, vsc_vector, vss_values
from vgalab.mllm import (
    PlantedSpec,
    SequenceLayout,
    build_planted_model,
    build_random_model,
    greedy_generate,
    prefill,
    reference_forward,
)
from vgalab.numerics import unit_mass
from vgalab.vocab import SPECIALS, make_vocab

PRESENT_CONF_FLOOR = 0.5
EXIST_LOG_THRESHOLD = -2.5  # a word exists when ln(best patch confidence) is above this
CLEAN_ACCURACY_FLOOR = 0.95


def test_vocab_role_ranges_are_disjoint():
    vocab = make_vocab(("dog", "cat", "car"), n_background=4)
    assert vocab.size == len(SPECIALS) + 3 + 3 + 4
    groups = [
        set(range(len(SPECIALS))),
        set(vocab.object_ids),
        set(vocab.patch_token_ids),
        set(vocab.background_ids),
    ]
    seen = set()
    for g in groups:
        assert not (seen & g)
        seen |= g
    assert seen == set(range(vocab.size))
    assert vocab.patch_token_of("cat") != vocab.id_of("cat")
    with pytest.raises(InvalidInput):
        vocab.id_of("unicorn")
    with pytest.raises(InvalidInput):
        vocab.patch_token_of("<bos>")


@pytest.mark.parametrize("n_background", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_make_vocab_rejects_non_integer_background(n_background):
    with pytest.raises(InvalidSpec, match="n_background"):
        make_vocab(("dog", "cat"), n_background=n_background)


def test_make_vocab_rejects_a_str_of_object_words():
    with pytest.raises(InvalidSpec, match="object words"):
        make_vocab("dog")


def test_make_vocab_stores_numpy_integer_background_as_int():
    vocab = make_vocab(("dog", "cat"), n_background=np.int64(3))
    assert type(vocab.n_background) is int and len(vocab.background_ids) == 3


def test_build_is_deterministic():
    a = build_planted_model(PlantedSpec(), seed=7)
    b = build_planted_model(PlantedSpec(), seed=7)
    for name, tensor in a.named_tensors().items():
        assert np.array_equal(tensor, b.named_tensors()[name]), name
    c = build_planted_model(PlantedSpec(), seed=8)
    assert not np.array_equal(a.embed_tok, c.embed_tok)


@pytest.mark.parametrize(
    "sigma",
    [-0.1, float("nan"), float("inf"), "1.0", None],
    ids=["negative", "nan", "inf", "str", "none"],
)
def test_planted_spec_validation(sigma):
    with pytest.raises(InvalidSpec, match="sigma"):
        build_planted_model(PlantedSpec(sigma=sigma), seed=0)


@pytest.mark.parametrize("seed", [-1, "x", 1.5, True, None])
@pytest.mark.parametrize("build", [lambda seed: build_planted_model(PlantedSpec(), seed),
                                   build_random_model], ids=["planted", "random"])
def test_builders_reject_a_seed_that_is_not_an_int_at_least_zero(build, seed):
    with pytest.raises(InvalidSpec, match="seed"):
        build(seed)


def test_builders_take_numpy_seeds_and_reject_a_spec_of_another_type():
    a, b = build_random_model(np.int64(2)), build_random_model(2)
    for name, tensor in a.named_tensors().items():
        assert tensor.tobytes() == b.named_tensors()[name].tobytes(), name
    for spec in (None, 0.0, {"sigma": 0.0}):
        with pytest.raises(InvalidSpec, match="PlantedSpec"):
            build_planted_model(spec, 1)


def scene_prefill(model, coverage):
    """Prefill of a hand-built caption prompt; coverage maps word -> cell list."""
    n = model.config.n_patches
    patches = [model.vocab.background_ids[i % 3] for i in range(n)]
    for word, cells in coverage.items():
        for cell in cells:
            patches[cell] = model.vocab.patch_token_of(word)
    ids = (model.vocab.bos_id,) + tuple(patches) + (model.vocab.caption_id,)
    layout = SequenceLayout(token_ids=ids, visual_start=1, visual_end=1 + n)
    return prefill(model, layout)


def scene_logits(model, coverage):
    """Visual logits for a hand-built scene; coverage maps word -> cell list."""
    return scene_prefill(model, coverage).visual_logits


def test_covered_patches_unembed_to_their_word(clean_model):
    logits = scene_logits(clean_model, {"dog": [0, 1, 2], "cat": [20, 21]})
    dog_id = clean_model.vocab.id_of("dog")
    cat_id = clean_model.vocab.id_of("cat")
    assert all(int(np.argmax(logits[i])) == dog_id for i in (0, 1, 2))
    assert all(int(np.argmax(logits[i])) == cat_id for i in (20, 21))
    # background rows must not elect any object word
    object_ids = set(clean_model.vocab.object_ids)
    for i in (5, 30, 63):
        assert int(np.argmax(logits[i])) not in object_ids


def test_existence_threshold_separates_present_from_absent(clean_model):
    logits = scene_logits(clean_model, {"dog": [0, 1], "tree": [10]})
    vocab = clean_model.vocab
    for word in ("dog", "tree"):
        conf = float(vsc_vector(logits, vocab.id_of(word)).max())
        assert conf > PRESENT_CONF_FLOOR
        assert np.log(conf) > EXIST_LOG_THRESHOLD
    for word in ("cat", "bus", "kite"):
        assert not np.log(float(vsc_vector(logits, vocab.id_of(word)).max())) > EXIST_LOG_THRESHOLD


def test_vsc_landscape_matches_coverage(clean_model):
    cells = [3, 17, 40]
    logits = scene_logits(clean_model, {"bird": cells})
    conf = vsc_vector(logits, clean_model.vocab.id_of("bird"))
    covered = conf[cells]
    uncovered = np.delete(conf, cells)
    assert covered.min() > 10 * uncovered.max()


def test_groundings_concentrate_on_planted_patches(clean_model):
    """A present word's map puts most of its mass on its own patches, an
    absent word's map spreads over the background, and salience favours
    object patches over background ones."""
    coverage = {"dog": list(range(6)), "cat": list(range(20, 24))}
    logits = scene_logits(clean_model, coverage)
    vocab = clean_model.vocab
    on_object = np.zeros(clean_model.config.n_patches, dtype=bool)
    on_object[coverage["dog"] + coverage["cat"]] = True
    dog = Grounding(*unit_mass(vsc_vector(logits, vocab.id_of("dog"))))
    assert dog.weights[coverage["dog"]].sum() > 0.5
    assert dog.rho == 1.0  # softmax confidence is positive on every patch
    tree, _ = unit_mass(vsc_vector(logits, vocab.id_of("tree")))
    assert tree[~on_object].sum() > 0.9
    salience, _ = unit_mass(vss_values(logits))
    assert salience[on_object].mean() > salience[~on_object].mean()


def test_caption_row_names_a_planted_object(clean_model):
    coverage = {"dog": list(range(6)), "cat": list(range(20, 24))}
    first = int(np.argmax(scene_prefill(clean_model, coverage).last_logits))
    assert clean_model.vocab.word_of(first) in coverage


def test_vqa_answers_track_presence(clean_model, scenes12):
    from vgalab.evalkit import build_vqa_layout

    vocab = clean_model.vocab
    hits = 0
    total = 0
    for scene in scenes12:
        for q in scene.questions:
            layout = build_vqa_layout(clean_model, scene, q.word)
            token = greedy_generate(clean_model, layout, max_len=1)[0]
            want = vocab.yes_id if q.present else vocab.no_id
            hits += int(token == want)
            total += 1
    assert hits / total >= CLEAN_ACCURACY_FLOOR


def test_vqa_generation_terminates_after_answer(clean_model, scenes12):
    from vgalab.evalkit import build_vqa_layout

    scene = scenes12[0]
    q = scene.questions[0]
    layout = build_vqa_layout(clean_model, scene, q.word)
    tokens = greedy_generate(clean_model, layout, max_len=16)
    assert len(tokens) == 2
    assert tokens[1] == clean_model.vocab.eos_id


def test_caption_prompt_mentions_planted_objects(clean_model, scenes12):
    from vgalab.evalkit import build_caption_layout

    scene = scenes12[0]
    layout = build_caption_layout(clean_model, scene)
    tokens = greedy_generate(clean_model, layout, max_len=24)
    words = {clean_model.vocab.word_of(t) for t in tokens}
    assert words & set(scene.annotated)


def test_noise_degrades_answers_not_recognition(clean_model, noisy_model):
    coverage = {"dog": [0, 1, 2, 3]}
    clean_logits = scene_logits(clean_model, coverage)
    noisy_logits = scene_logits(noisy_model, coverage)
    dog = clean_model.vocab.id_of("dog")
    # recognition (visual logits) stays essentially intact under key noise
    clean_conf = float(vsc_vector(clean_logits, dog).max())
    noisy_conf = float(vsc_vector(noisy_logits, dog).max())
    assert noisy_conf > 0.5 * clean_conf
    assert np.log(noisy_conf) > EXIST_LOG_THRESHOLD


def test_sigma_perturbs_only_key_projections():
    base = build_planted_model(PlantedSpec(), seed=7)
    noisy = build_planted_model(PlantedSpec(sigma=1.0), seed=7)
    for i, (lb, ln) in enumerate(zip(base.layers, noisy.layers)):
        assert not np.array_equal(lb.wk, ln.wk), f"layer {i} keys unchanged"
        assert np.array_equal(lb.wq, ln.wq)
        assert np.array_equal(lb.wv, ln.wv)
        assert np.array_equal(lb.wo, ln.wo)
        assert np.array_equal(lb.norm1, ln.norm1)
        assert np.array_equal(lb.mlp_w1, ln.mlp_w1)
    assert np.array_equal(base.embed_tok, noisy.embed_tok)
    assert np.array_equal(base.embed_pos, noisy.embed_pos)
    assert np.array_equal(base.unembed, noisy.unembed)


def test_yes_no_rows_do_not_push_their_own_logits(clean_model):
    """A generated answer token must not feed its own next-step logit."""
    vocab = clean_model.vocab
    n = clean_model.config.n_patches
    patches = tuple(vocab.background_ids[i % 3] for i in range(n))
    for answer in (vocab.yes_id, vocab.no_id):
        ids = (vocab.bos_id,) + patches + (vocab.id_of("dog"), vocab.qmark_id, answer)
        layout = SequenceLayout(token_ids=ids, visual_start=1, visual_end=1 + n)
        logits = reference_forward(clean_model, layout)[0][-1]
        assert int(np.argmax(logits)) == vocab.eos_id
