"""Guidance sessions: config rules, head balancing, corrections, decay, profiling."""
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vgalab.errors import ConfigError, InvalidInput, ShapeError
from vgalab.evalkit import build_caption_layout, build_vqa_layout, question_text
from vgalab.evalkit.harness import _gt_mask_for
from vgalab.grounding import Grounding, MaskAnnotation, extract_objects, vsc_vector, vss_values
from vgalab.mllm import SequenceLayout, decode_step, greedy_generate, prefill, prefill_shared
from vgalab.numerics import DEGENERATE_EPS, _clamped_cosines, head_scales, stable_softmax, unit_mass
from vgalab.vga import VgaConfig, VgaSession, bos_profile, new_session, suggest_start_layer

HAND_TOL = 1e-9
LOOP_TOL = 1e-12
GROUNDING_TOL = 1e-15


# -- configuration ------------------------------------------------------------

def test_config_validation():
    VgaConfig()  # defaults are legal
    for kwargs in (
        {"beta": -0.1},
        {"beta": float("nan")},
        {"lambda_": -0.01},
        {"lambda_": 1.5},
        {"start_layer": -1},
        {"start_layer": 3, "end_layer": 2},
        {"top_k": 1},
        {"top_k": 2.5, "mode": "caption", "guidance_source": "vss"},
        {"end_layer": 1.5},
        {"start_layer": True},
        {"beta": "0.2"},
        {"lambda_": "0.02"},
        {"mode": "chat"},
        {"guidance_source": "telepathy"},
        {"head_balancing": "no"},
        {"pvg_enabled": 0},
        {"head_balancing": None},
    ):
        with pytest.raises(ConfigError):
            VgaConfig(**kwargs)
    flags = VgaConfig(head_balancing=np.bool_(False), pvg_enabled=np.True_)
    assert (flags.head_balancing, flags.pvg_enabled) == (False, True)
    assert type(flags.head_balancing) is bool and type(flags.pvg_enabled) is bool


def test_auto_source_follows_mode():
    assert VgaConfig(mode="vqa").resolved_source() == "vsc"
    assert VgaConfig(mode="caption").resolved_source() == "vss"
    assert VgaConfig(mode="caption", guidance_source="even").resolved_source() == "even"


def test_session_layer_range_resolution(tiny_model):
    n = tiny_model.config.n_layers
    s = new_session(tiny_model, VgaConfig())
    assert (s.start_layer, s.end_layer) == (0, n // 2)
    s = new_session(tiny_model, VgaConfig(end_layer=n))
    assert (s.start_layer, s.end_layer) == (0, n)
    s = new_session(tiny_model, VgaConfig(start_layer=1, end_layer=1))
    assert (s.start_layer, s.end_layer) == (1, 1)
    with pytest.raises(ConfigError):
        new_session(tiny_model, VgaConfig(start_layer=n + 1, end_layer=n + 1))
    with pytest.raises(ConfigError):
        new_session(tiny_model, VgaConfig(guidance_source="ground_truth"))


def test_session_takes_one_question_and_mask_per_entry(tiny_model):
    mask = MaskAnnotation("dog", np.ones(tiny_model.config.n_patches))
    gt = VgaConfig(guidance_source="ground_truth")
    assert VgaSession(tiny_model, gt, ["", ""], [mask, mask]).groundings == [None, None]
    for questions, masks, config in (
        ("is there a dog ?", None, VgaConfig()),  # a string, not one per entry
        ([], None, VgaConfig()),
        (["", ""], [mask], gt),
        (["", ""], [mask, None], gt),
    ):
        with pytest.raises(ConfigError):
            VgaSession(tiny_model, config, questions, masks)


@pytest.mark.parametrize(
    "make",
    [
        lambda model: VgaSession(model, VgaConfig(), [3]),
        lambda model: VgaSession(model, VgaConfig(), ["is there a dog ?", b"a cat ?"]),
        lambda model: new_session(model, VgaConfig(), question=None),
        lambda model: new_session(
            model, VgaConfig(guidance_source="ground_truth"), gt_mask=np.ones(4)
        ),
        lambda model: VgaSession(
            model, VgaConfig(), ["", ""], [MaskAnnotation("dog", np.ones(4)), "dog"]
        ),
        lambda model: VgaSession(model, VgaConfig(), 3),
        lambda model: VgaSession(model, VgaConfig(), ["a"], 5),
    ],
    ids=[
        "int-question",
        "bytes-question",
        "none-question",
        "array-mask",
        "str-mask",
        "int-questions",
        "int-masks",
    ],
)
def test_session_rejects_malformed_questions_and_masks(tiny_model, make):
    """Checked when the session is made, before any forward pass runs."""
    with pytest.raises(ConfigError):
        make(tiny_model)


@pytest.mark.parametrize(
    "make",
    [lambda: new_session("m", VgaConfig()), lambda: VgaSession(None, VgaConfig())],
    ids=["new_session-str", "VgaSession-None"],
)
def test_session_rejects_a_model_that_is_not_a_model(make):
    with pytest.raises(InvalidInput):
        make()


# -- head balancing and the value-space correction ------------------------------

def gamma_of(z, dz):
    """gamma [H] of one row [H, dh], from the hook's core at coefficient 1."""
    return head_scales(z[None], dz[None], [1.0])[0]


def clamped_cosine(a, b):
    """Reference cosine of two vectors from np.dot and np.linalg.norm,
    clamped to [0, 1]; a zero vector compares as 0, and a norm product that
    underflows to 0 gives what the clamped IEEE division would."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = float(np.dot(a, b))
    if na * nb == 0.0:
        return 1.0 if dot > 0.0 else 0.0
    return float(np.clip(dot / (na * nb), 0.0, 1.0))


def reference_gamma_prime(z, dz):
    """gamma' [H] of one row: each head's reference cosine over their sum,
    uniform when the sum is below ``DEGENERATE_EPS``."""
    sims = np.array([clamped_cosine(x, y) for x, y in zip(z, dz)])
    total = sims.sum()
    return np.full(len(sims), 1.0 / len(sims)) if total < DEGENERATE_EPS else sims / total


def value_mix(g, v):
    """sum_i g[i] * v[i] over visual rows v [m, H, dh], as the hook's GEMV."""
    m, n_heads, d_head = v.shape
    return (g @ v.reshape(m, -1)).reshape(n_heads, d_head)


def test_value_mix_matches_loop_oracle():
    rng = np.random.default_rng(0)
    g = rng.random(5)
    g /= g.sum()
    v = rng.normal(size=(5, 3, 4))
    got = value_mix(g, v)
    want = np.zeros((3, 4))
    for i in range(5):
        want += g[i] * v[i]
    assert np.allclose(got, want, atol=1e-12)


def test_head_balance_hand_cases():
    dz = np.array([[1.0, 0.0], [1.0, 0.0]])
    # clamped sims [1, 0] -> gamma' [1, 0] -> gamma [0, 2]
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(gamma_of(z, dz), [0.0, 2.0], atol=HAND_TOL)
    # sims [0.6, 0.2] -> gamma' [0.75, 0.25] -> gamma [0.5, 1.5]
    z = np.array([[0.6, 0.8], [0.2, np.sqrt(0.96)]])
    assert np.allclose(reference_gamma_prime(z, dz), [0.75, 0.25], atol=HAND_TOL)
    assert np.allclose(gamma_of(z, dz), [0.5, 1.5], atol=HAND_TOL)


def test_head_balance_symmetric_and_degenerate_give_unit_gamma():
    z = np.tile(np.array([0.4, -0.3, 1.1]), (4, 1))
    dz = np.tile(np.array([0.9, 0.1, 0.5]), (4, 1))
    assert np.all(gamma_of(z, dz) == 1.0)
    assert np.all(gamma_of(z, np.zeros_like(z)) == 1.0)


@st.composite
def head_rows(draw):
    """[heads, d_head] pairs with some zero rows and some anti-aligned rows."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 24)))
    elements = st.floats(-1e3, 1e3, allow_nan=False)
    z = draw(arrays(np.float64, shape, elements=elements)).copy()
    dz = draw(arrays(np.float64, shape, elements=elements)).copy()
    for h in range(shape[0]):
        kind = draw(st.sampled_from(["free", "zero_z", "zero_dz", "anti"]))
        if kind == "zero_z":
            z[h] = 0.0
        elif kind == "zero_dz":
            dz[h] = 0.0
        elif kind == "anti":
            dz[h] = -draw(st.floats(0.1, 10.0)) * z[h]
    return z, dz


@given(head_rows())
@settings(max_examples=200)
def test_head_balance_matches_per_head_loop(pair):
    z, dz = pair
    n_heads = z.shape[0]
    gamma = gamma_of(z, dz)
    want = np.maximum(0.0, 2.0 - n_heads * reference_gamma_prime(z, dz))
    np.testing.assert_allclose(gamma, want, rtol=0, atol=LOOP_TOL)


# -- the hook against a per-head reference -----------------------------------------

class RecordingHook:
    """Delegates to a session and keeps a copy of every correction's inputs,
    the number of tokens seen so far, and the row the session returned."""

    def __init__(self, session):
        self.session = session
        self.guided_layers = session.guided_layers
        self.visual_logits = None
        self.tokens = []
        self.calls = []

    def on_visual(self, visual_logits, layouts):
        self.visual_logits = visual_logits
        self.session.on_visual(visual_logits, layouts)

    def on_token(self, token_id):
        self.tokens.append(token_id)
        self.session.on_token(token_id)

    def correction(self, layer, z_last, v_shared):
        row = self.session.correction(layer, z_last, v_shared)
        self.calls.append((layer, z_last.copy(), v_shared.copy(), len(self.tokens), row))
        return row


class StaleMixSession(VgaSession):
    """Mutant: caches each layer's value mix and never drops it, so after a
    PVG update it guides with the previous token's mix."""

    def __init__(self, model, config):
        super().__init__(model, config)
        self.stale = {}

    def correction(self, layer, z_last, v_shared):
        row = super().correction(layer, z_last, v_shared)
        if row is None:
            return None
        delta = self.stale.setdefault(layer, row.delta)
        rho = self.groundings[0].rho if self.config.mode == "caption" else 1.0
        scales = self.config.beta * rho * head_scales(z_last, delta, [1.0])
        return row._replace(delta=delta, scales=scales)


def pvg_reference(hook):
    """The one entry's grounding before each token, rebuilt from vector calls
    of the cores: salience at bind time, then
    G <- Norm(ReLU((1+lam) G - lam Norm(p_w)))."""
    cfg = hook.session.config
    probs = stable_softmax(hook.visual_logits)
    groundings = [Grounding(*unit_mass(vss_values(hook.visual_logits, k=cfg.top_k)))]
    for token in hook.tokens:
        g_w, _ = unit_mass(probs[:, token])
        g = groundings[-1].weights
        groundings.append(
            Grounding(*unit_mass(np.maximum(0.0, (1.0 + cfg.lambda_) * g - cfg.lambda_ * g_w)))
        )
    return [[g] for g in groundings]


def guided_entries(row):
    """The entries a row guides: those whose scales are not all zero."""
    return np.flatnonzero(row.scales.any(axis=1)).tolist()


def assert_rows_match_reference(hook, groundings, n_heads):
    """Each guided entry's scales and mix in every row, byte for byte,
    against a per-head loop of ``_clamped_cosines``, ``unit_mass`` and
    ``value_mix`` on that entry alone, the mix itself held to the explicit sum
    over visual rows; every other entry's scales are zero. Every entry's
    weights are its grounding's. ``groundings[t][b]`` is entry b's grounding
    after t tokens. Returns the entry rows applied."""
    session = hook.session
    cfg = session.config
    s, e = session.span
    applied = 0
    for layer, z, v, n_seen, row in hook.calls:
        entries = groundings[n_seen]
        guided = [b for b, g in enumerate(entries) if not g.degenerate]
        if not session.start_layer <= layer < session.end_layer or not guided:
            assert row is None
            continue
        assert guided_entries(row) == guided
        assert row.span == (s, e)
        for b, g in enumerate(entries):
            assert row.weights[b].tobytes() == g.weights.tobytes()
        for b in guided:
            g = entries[b]
            delta = value_mix(g.weights, v[s:e])
            loop = np.zeros_like(delta)
            for i in range(e - s):
                loop += g.weights[i] * v[s + i]
            np.testing.assert_allclose(delta, loop, rtol=0, atol=LOOP_TOL)
            sims = np.array([_clamped_cosines(z[b, h], delta[h])[0] for h in range(n_heads)])
            gamma_prime, _ = unit_mass(sims)
            rho = g.rho if cfg.mode == "caption" else 1.0
            scales = cfg.beta * rho * np.maximum(0.0, 2.0 - n_heads * gamma_prime)
            assert row.delta[b].tobytes() == delta.tobytes()
            assert row.scales[b].tobytes() == scales.tobytes()
            applied += 1
    return applied


def record_pvg_caption(model, scene, session, n_tokens):
    """Greedy caption steps with PVG; decoding runs on past EOS, which the
    hook does not look at."""
    hook = RecordingHook(session)
    result = prefill(model, build_caption_layout(model, scene), hook=hook)
    logits = result.last_logits
    for _ in range(n_tokens):
        token = int(np.argmax(logits))
        hook.on_token(token)
        logits = decode_step(model, result.cache, token, hook=hook)
    return hook


CAPTION_TOKENS = 48  # the benchmark's caption max_len


def test_pvg_caption_rows_match_per_head_reference(clean_model, scenes12):
    for scene in scenes12[:3]:
        session = new_session(clean_model, VgaConfig(mode="caption", pvg_enabled=True))
        hook = record_pvg_caption(clean_model, scene, session, CAPTION_TOKENS)
        groundings = pvg_reference(hook)
        assert len({g.weights.tobytes() for g, in groundings}) == CAPTION_TOKENS + 1  # PVG moved G
        applied = assert_rows_match_reference(hook, groundings, clean_model.config.n_heads)
        guided_layers = session.end_layer - session.start_layer
        assert applied == (CAPTION_TOKENS + 1) * guided_layers  # prefill row + every step


def test_two_entry_caption_session_matches_one_entry_sessions(clean_model, scenes12):
    """A two-entry PVG caption session and two one-entry sessions, bound
    alike and fed the same tokens, hold byte-equal groundings after every
    token and return byte-equal rows on every guided layer: the one-entry
    state is the batched state of one entry. Ground-truth masks of two
    present objects give the entries different groundings, and the second
    entry's attention rows are the first's with the heads reversed."""
    config = VgaConfig(mode="caption", pvg_enabled=True, guidance_source="ground_truth")
    scene = next(s for s in scenes12 if sum(q.present for q in s.questions) >= 2)
    masks = [_gt_mask_for(scene, q.word) for q in scene.questions if q.present][:2]
    layout = build_caption_layout(clean_model, scene)
    hook = record_pvg_caption(
        clean_model, scene, new_session(clean_model, config, gt_mask=masks[0]), CAPTION_TOKENS
    )
    batched = VgaSession(clean_model, config, ["", ""], masks)
    alone = [new_session(clean_model, config, gt_mask=mask) for mask in masks]
    for session in (batched, *alone):
        session.on_visual(hook.visual_logits, [layout] * len(session.questions))
    seen, compared = 0, 0
    for layer, z, v, n_seen, _ in hook.calls:
        while seen < n_seen:
            for session in (batched, *alone):
                session.on_token(hook.tokens[seen])
            seen += 1
            for b, session in enumerate(alone):
                got, want = batched.groundings[b], session.groundings[0]
                assert got.weights.tobytes() == want.weights.tobytes()
                assert (got.rho, got.degenerate) == (want.rho, want.degenerate)
        rows = np.concatenate((z, z[:, ::-1]))
        row = batched.correction(layer, rows, v)
        assert guided_entries(row) == [0, 1]
        applied = rows.copy()
        row.apply(applied)
        for b, session in enumerate(alone):
            want = session.correction(layer, rows[b : b + 1], v)
            for got_part, want_part in zip(row, want):
                if isinstance(got_part, tuple):
                    assert got_part == want_part
                else:
                    assert got_part[b].tobytes() == want_part[0].tobytes()
            alone_row = rows[b : b + 1].copy()
            want.apply(alone_row)
            assert applied[b].tobytes() == alone_row[0].tobytes()
            compared += 1
    assert seen == CAPTION_TOKENS
    guided_layers = batched.end_layer - batched.start_layer
    assert compared == 2 * (CAPTION_TOKENS + 1) * guided_layers


def test_stale_mix_after_pvg_update_fails_the_reference(clean_model, scenes12):
    session = StaleMixSession(clean_model, VgaConfig(mode="caption", pvg_enabled=True))
    hook = record_pvg_caption(clean_model, scenes12[0], session, CAPTION_TOKENS)
    with pytest.raises(AssertionError):
        assert_rows_match_reference(hook, pvg_reference(hook), clean_model.config.n_heads)


def test_shared_prefix_vsc_rows_match_per_head_reference(noisy_model, scenes12):
    config = VgaConfig(beta=0.25, guidance_source="vsc")
    vocab = noisy_model.vocab
    for scene in scenes12[:4]:
        layouts = [build_vqa_layout(noisy_model, scene, q.word) for q in scene.questions]
        questions = [question_text(q.word) for q in scene.questions]
        hook = RecordingHook(VgaSession(noisy_model, config, questions))
        prefill_shared(noisy_model, layouts, hook)
        references = []
        for question in questions:
            # each word's column at unit mass; several merge by max, then unit mass
            columns = [
                unit_mass(vsc_vector(hook.visual_logits, vocab.id_of(w)))
                for w in extract_objects(question, vocab)
            ]
            if len(columns) > 1:
                columns = [unit_mass(np.max([w for w, _ in columns], axis=0))]
            references.append(Grounding(*columns[0]))
        applied = assert_rows_match_reference(hook, [references], noisy_model.config.n_heads)
        session = hook.session
        assert applied == len(questions) * (session.end_layer - session.start_layer)


def scene_batch(model, scene):
    """A scene's layouts, question texts and ground-truth masks, in question order."""
    layouts = [build_vqa_layout(model, scene, q.word) for q in scene.questions]
    questions = [question_text(q.word) for q in scene.questions]
    masks = [_gt_mask_for(scene, q.word) for q in scene.questions]
    return layouts, questions, masks


@pytest.mark.parametrize(
    "source, absent_first",
    [("ground_truth", False), ("ground_truth", True), ("vsc", False)],
    ids=["ground_truth", "ground_truth-absent-first", "vsc"],
)
def test_shared_batch_of_guided_and_unguided_entries_matches_each_prompt_alone(
    noisy_model, scenes12, source, absent_first
):
    """Ground truth leaves the absent objects' entries unguided (their masks
    are all zero) and vsc guides a question with no object word evenly; in
    one ``prefill_shared`` with the other entries, each row is byte-equal to
    that prompt's own ``prefill``. ``absent_first`` orders the questions
    absent, present, absent, present, so the guided entries are no leading
    run. On every guided layer an unguided entry's last row keeps its
    values, and a guided one gains its scaled mix at a mass of
    1 + beta * gamma_h (rho is 1 in vqa mode)."""
    config = VgaConfig(beta=0.5, guidance_source=source)
    for scene in scenes12[:3]:
        layouts, questions, masks = scene_batch(noisy_model, scene)
        present = [q.present for q in scene.questions]
        if absent_first:
            absent = [i for i, p in enumerate(present) if not p]
            shown = [i for i, p in enumerate(present) if p]
            order = [absent[0], shown[0], absent[1], shown[1]]
            layouts, questions, masks, present = (
                [xs[i] for i in order] for xs in (layouts, questions, masks, present)
            )
            assert present == [False, True, False, True]
        if source == "vsc":
            questions[1] = "anything there ?"
        hook = RecordingHook(VgaSession(noisy_model, config, questions, masks))
        session = hook.session
        with pytest.warns(UserWarning) if source == "vsc" else nullcontext():
            rows = prefill_shared(noisy_model, layouts, hook)
        degenerate = [g.degenerate for g in session.groundings]
        if source == "vsc":
            assert session.fallback_uniform == [False, True, False, False]
            assert not any(degenerate)
        else:
            assert degenerate == [not p for p in present]
            assert any(degenerate) and not all(degenerate)
        for row, layout, question, mask in zip(rows, layouts, questions, masks):
            alone = new_session(noisy_model, config, question=question, gt_mask=mask)
            with pytest.warns(UserWarning) if question == "anything there ?" else nullcontext():
                want = prefill(noisy_model, layout, hook=alone).last_logits
            assert row.tobytes() == want.tobytes()
        assert len(hook.calls) == len(session.guided_layers) > 0
        for _, z, _, _, row in hook.calls:
            assert guided_entries(row) == [b for b, d in enumerate(degenerate) if not d]
            applied = z.copy()
            row.apply(applied)
            for b, unguided in enumerate(degenerate):
                if unguided:
                    # z + 0.0 * delta: the values stay, a -0.0 would turn +0.0
                    assert not row.scales[b].any()
                    assert np.array_equal(applied[b], z[b])
                    continue
                gamma = head_scales(z[b : b + 1], row.delta[b : b + 1], [1.0])[0]
                assert row.scales[b].tobytes() == (config.beta * gamma).tobytes()
                mass = 1.0 + row.scales[b] * row.weights[b].sum()
                np.testing.assert_allclose(mass, 1.0 + config.beta * gamma, rtol=0, atol=HAND_TOL)
                boosted = z[b] + row.scales[b][:, None] * row.delta[b]
                assert applied[b].tobytes() == boosted.tobytes()


@pytest.mark.parametrize(
    "config, layers",
    [
        (VgaConfig(guidance_source="vsc"), range(0, 3)),
        (VgaConfig(guidance_source="ground_truth", start_layer=2, end_layer=6), range(2, 6)),
        (VgaConfig(guidance_source="vsc", start_layer=4, end_layer=4), range(0)),
        (VgaConfig(guidance_source="none"), range(0)),
        (VgaConfig(guidance_source="vsc", beta=0.0), range(0)),
    ],
    ids=["vsc", "ground_truth-2-6", "empty-range", "none", "beta-0"],
)
def test_forward_calls_correction_only_on_guided_layers(noisy_model, scenes12, config, layers):
    """The forward pass hands the hook its guided layers' rows and no
    others: none for source none or beta = 0. A wrong prompt count raises
    ShapeError at bind, also for sessions that are never called."""
    layouts, questions, masks = scene_batch(noisy_model, scenes12[0])
    session = VgaSession(noisy_model, config, questions, masks)
    assert session.guided_layers == layers
    hook = RecordingHook(session)
    prefill_shared(noisy_model, layouts, hook)
    assert [call[0] for call in hook.calls] == list(layers)

    hook = RecordingHook(new_session(noisy_model, config, questions[0], masks[0]))
    result = prefill(noisy_model, layouts[0], hook=hook)
    decode_step(noisy_model, result.cache, int(np.argmax(result.last_logits)), hook=hook)
    assert [call[0] for call in hook.calls] == list(layers) * 2

    for n_prompts in (1, len(layouts) - 1, len(layouts) + 1):
        unbound = VgaSession(noisy_model, config, questions, masks)
        with pytest.raises(ShapeError):
            if n_prompts == 1:
                prefill(noisy_model, layouts[0], hook=unbound)
            else:
                prefill_shared(noisy_model, layouts[:1] * n_prompts, unbound)


def test_disabled_guidance_leaves_shared_prefill_untouched(noisy_model, scenes12):
    """beta = 0 and an empty layer range are byte-exact no-ops for a batch."""
    for scene in scenes12[:3]:
        layouts, questions, masks = scene_batch(noisy_model, scene)
        plain = prefill_shared(noisy_model, layouts)
        for source in ("vsc", "even", "ground_truth"):
            for config in (
                VgaConfig(beta=0.0, guidance_source=source),
                VgaConfig(beta=0.5, start_layer=2, end_layer=2, guidance_source=source),
            ):
                session = VgaSession(noisy_model, config, questions, masks)
                rows = prefill_shared(noisy_model, layouts, session)
                assert rows.tobytes() == plain.tobytes()


# -- session grounding sources ---------------------------------------------------

def vqa_layout(model, word="dog"):
    vocab = model.vocab
    n = model.config.n_patches
    patches = [vocab.patch_token_of("dog")] * 2 + [
        vocab.background_ids[i % len(vocab.background_ids)] for i in range(n - 2)
    ]
    ids = (vocab.bos_id,) + tuple(patches) + (vocab.id_of(word), vocab.qmark_id)
    return SequenceLayout(token_ids=ids, visual_start=1, visual_end=1 + n)


def test_session_binds_on_prefill_and_grounds_on_question(clean_model):
    layout = vqa_layout(clean_model)
    session = new_session(
        clean_model, VgaConfig(guidance_source="vsc"), question="is there a dog ?"
    )
    prefill(clean_model, layout, hook=session)
    assert session.groundings[0] is not None
    top2 = set(np.argsort(session.groundings[0].weights)[-2:])
    assert top2 == {0, 1}  # dog patches are cells 0 and 1
    assert session.fallback_uniform == [False]


@pytest.mark.parametrize("words", [("dog",), ("dog", "cat")])
def test_vsc_grounding_matches_merged_object_groundings(clean_model, words):
    """The session reads vsc columns off its one softmax; one word skips the
    merge. The reference is a plain softmax, divide, elementwise max and
    divide."""
    layout = vqa_layout(clean_model)
    logits = prefill(clean_model, layout).visual_logits
    question = "is there a " + " or a ".join(words) + " ?"
    session = new_session(clean_model, VgaConfig(guidance_source="vsc"), question=question)
    session.on_visual(logits, [layout])
    exps = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exps / exps.sum(axis=1, keepdims=True)
    columns = [probs[:, clean_model.vocab.id_of(w)] for w in words]
    merged = np.max([c / c.sum() for c in columns], axis=0)
    want = merged / merged.sum()
    got = session.groundings[0]
    np.testing.assert_allclose(got.weights, want, rtol=0, atol=GROUNDING_TOL)
    assert not got.degenerate
    assert got.rho == np.count_nonzero(want > 1e-12) / len(want)


def test_session_refuses_a_second_visual_context(clean_model):
    layout = vqa_layout(clean_model)
    session = new_session(clean_model, VgaConfig(mode="caption", guidance_source="vss"))
    prefill(clean_model, layout, hook=session)
    session.on_token(clean_model.vocab.id_of("dog"))  # PVG decays the grounding
    decayed = session.groundings[0].weights.copy()
    with pytest.raises(ConfigError):
        prefill(clean_model, layout, hook=session)
    with pytest.raises(ConfigError):
        session.on_visual(prefill(clean_model, layout).visual_logits, [layout])
    assert np.array_equal(session.groundings[0].weights, decayed)


def test_vsc_without_object_words_falls_back_to_even(clean_model):
    layout = vqa_layout(clean_model)
    session = new_session(
        clean_model, VgaConfig(guidance_source="vsc"), question="anything there ?"
    )
    with pytest.warns(UserWarning):
        prefill(clean_model, layout, hook=session)
    assert session.fallback_uniform == [True]
    m = layout.n_visual
    assert np.allclose(session.groundings[0].weights, 1.0 / m)


def test_source_none_and_degenerate_gt_never_correct(clean_model):
    layout = vqa_layout(clean_model)
    m = layout.n_visual
    session = new_session(clean_model, VgaConfig(guidance_source="none"))
    prefill(clean_model, layout, hook=session)
    z = np.zeros((1, clean_model.config.n_heads, clean_model.config.d_head))
    v = np.zeros((layout.length, clean_model.config.n_heads, clean_model.config.d_head))
    assert session.correction(0, z, v) is None

    gt = new_session(
        clean_model,
        VgaConfig(guidance_source="ground_truth"),
        gt_mask=MaskAnnotation(word="cat", overlaps=np.zeros(m)),
    )
    prefill(clean_model, layout, hook=gt)
    assert gt.groundings[0].degenerate
    assert gt.correction(0, z, v) is None


def test_correction_respects_layer_range_and_beta(clean_model):
    layout = vqa_layout(clean_model)
    cfg = VgaConfig(guidance_source="even", start_layer=1, end_layer=3, beta=0.3)
    session = new_session(clean_model, cfg)
    result = prefill(clean_model, layout, hook=session)
    z = np.ones((1, clean_model.config.n_heads, clean_model.config.d_head))
    v = result.cache.v[0][: layout.length]
    assert session.correction(0, z, v) is None
    assert session.correction(3, z, v) is None
    row = session.correction(2, z, v)
    assert row is not None
    assert row.span == (layout.visual_start, layout.visual_end)
    assert abs(row.weights.sum() - 1.0) < 1e-9
    gamma = head_scales(z, row.delta, [1.0])
    assert row.scales.tobytes() == (cfg.beta * gamma).tobytes()  # vqa mode pins rho to 1

    zero_beta = new_session(clean_model, VgaConfig(guidance_source="even", beta=0.0))
    prefill(clean_model, layout, hook=zero_beta)
    assert zero_beta.correction(2, z, v) is None


def test_unbound_session_refuses_to_correct(tiny_model):
    session = new_session(tiny_model, VgaConfig(guidance_source="even"))
    with pytest.raises(ConfigError):
        session.correction(0, np.zeros((2, 16)), np.zeros((4, 2, 16)))


def test_correction_apply_adds_scaled_value_mix(clean_model):
    layout = vqa_layout(clean_model)
    cfg = VgaConfig(guidance_source="even", beta=0.4, head_balancing=False)
    session = new_session(clean_model, cfg)
    result = prefill(clean_model, layout, hook=session)
    heads, d_head = clean_model.config.n_heads, clean_model.config.d_head
    rng = np.random.default_rng(1)
    z = rng.normal(size=(1, heads, d_head))
    v = result.cache.v[0][: layout.length]
    v_vis = v[layout.visual_start : layout.visual_end]
    got = z.copy()
    session.correction(0, z, v).apply(got)
    want = z + 0.4 * 1.0 * value_mix(session.groundings[0].weights, v_vis)
    assert np.allclose(got, want, atol=1e-12)
    assert session.correction(5, z, v) is None


# -- per-token decay -------------------------------------------------------------

def bound_caption_session(model, config, question=""):
    vocab = model.vocab
    n = model.config.n_patches
    patches = [vocab.patch_token_of("dog")] * 4 + [
        vocab.background_ids[i % len(vocab.background_ids)] for i in range(n - 4)
    ]
    ids = (vocab.bos_id,) + tuple(patches) + (vocab.caption_id,)
    layout = SequenceLayout(token_ids=ids, visual_start=1, visual_end=1 + n)
    session = new_session(model, config, question=question)
    prefill(model, layout, hook=session)
    return session


def test_pvg_suppresses_described_regions(clean_model):
    session = bound_caption_session(clean_model, VgaConfig(mode="caption"))
    dog_id = clean_model.vocab.id_of("dog")
    before = session.groundings[0].weights[:4].sum()
    session.on_token(dog_id)
    after = session.groundings[0].weights[:4].sum()
    assert after < before
    assert abs(session.groundings[0].weights.sum() - 1.0) < 1e-9


def test_caption_correction_scales_by_rho(clean_model):
    config = VgaConfig(
        mode="caption", guidance_source="reversed_vss", beta=0.4, head_balancing=False
    )
    session = bound_caption_session(clean_model, config)
    rho = session.groundings[0].rho
    assert 0.0 < rho < 1.0  # reversed salience drains a patch
    heads, d_head = clean_model.config.n_heads, clean_model.config.d_head
    rng = np.random.default_rng(2)
    v = rng.normal(size=(session.span[1] + 1, heads, d_head))
    row = session.correction(0, rng.normal(size=(1, heads, d_head)), v)
    assert row.scales.tobytes() == (0.4 * rho * np.ones(heads)).tobytes()


def test_pvg_ignores_vqa_mode_and_zero_lambda(clean_model):
    vqa = bound_caption_session(
        clean_model, VgaConfig(mode="vqa"), question="is there a dog in the image ?"
    )
    w = vqa.groundings[0].weights.copy()
    vqa.on_token(clean_model.vocab.id_of("dog"))
    assert np.array_equal(vqa.groundings[0].weights, w)

    frozen = bound_caption_session(clean_model, VgaConfig(mode="caption", lambda_=0.0))
    w = frozen.groundings[0].weights.copy()
    frozen.on_token(clean_model.vocab.id_of("dog"))
    assert np.array_equal(frozen.groundings[0].weights, w)

    off = bound_caption_session(
        clean_model, VgaConfig(mode="caption", pvg_enabled=False)
    )
    w = off.groundings[0].weights.copy()
    off.on_token(clean_model.vocab.id_of("dog"))
    assert np.array_equal(off.groundings[0].weights, w)


@pytest.mark.parametrize("bad", ["negative", "vocab_size"])
def test_on_token_rejects_out_of_vocab_ids(clean_model, bad):
    session = bound_caption_session(clean_model, VgaConfig(mode="caption"))
    w = session.groundings[0].weights.copy()
    token_id = -1 if bad == "negative" else clean_model.vocab.size
    with pytest.raises(InvalidInput):
        session.on_token(token_id)
    assert np.array_equal(session.groundings[0].weights, w)


@pytest.mark.parametrize("mode", ["caption", "vqa"])
@pytest.mark.parametrize("bad", [3.7, True, "3"])
def test_on_token_rejects_non_integer_ids(clean_model, mode, bad):
    """A float is not truncated to a token, nor a bool read as 0 or 1, in
    either mode."""
    session = bound_caption_session(clean_model, VgaConfig(mode=mode), question="a dog ?")
    w = session.groundings[0].weights.copy()
    with pytest.raises(InvalidInput):
        session.on_token(bad)
    assert np.array_equal(session.groundings[0].weights, w)
    session.on_token(np.int64(clean_model.vocab.id_of("dog")))  # numpy integers pass


def test_pvg_caption_decays_each_named_object_and_terminates(clean_model):
    """Step by step through a guided caption of a two-object scene: each
    generated object word lowers its own patches' grounding mass, the mass
    stays 1, and the caption ends at EOS within 40 tokens, as the greedy
    loop decodes it."""
    vocab = clean_model.vocab
    n = clean_model.config.n_patches
    coverage = {"dog": list(range(6)), "cat": list(range(20, 24))}
    patches = [vocab.background_ids[i % len(vocab.background_ids)] for i in range(n)]
    for word, cells in coverage.items():
        for cell in cells:
            patches[cell] = vocab.patch_token_of(word)
    ids = (vocab.bos_id,) + tuple(patches) + (vocab.caption_id,)
    layout = SequenceLayout(token_ids=ids, visual_start=1, visual_end=1 + n)
    config = VgaConfig(mode="caption")
    session = new_session(clean_model, config)
    result = prefill(clean_model, layout, hook=session)
    logits = result.last_logits
    tokens = []
    for _ in range(40):
        token = int(np.argmax(logits))
        tokens.append(token)
        before = session.groundings[0].weights.copy()
        session.on_token(token)
        after = session.groundings[0].weights
        cells = coverage.get(vocab.word_of(token))
        if cells is not None:
            assert after[cells].sum() < before[cells].sum()
        assert abs(after.sum() - 1.0) < 1e-9
        if token == vocab.eos_id:
            break
        logits = decode_step(clean_model, result.cache, token, hook=session)
    assert tokens[-1] == vocab.eos_id
    assert {vocab.word_of(t) for t in tokens} >= set(coverage)
    assert tokens == greedy_generate(
        clean_model, layout, vga=new_session(clean_model, config), max_len=40
    )


def test_pvg_update_requires_bound_session(tiny_model):
    session = new_session(tiny_model, VgaConfig(mode="caption"))
    session.groundings[0] = Grounding(*unit_mass(np.ones(4)))
    with pytest.raises(ConfigError):
        session.on_token(0)


# -- start-layer profiling --------------------------------------------------------

def test_bos_profile_and_start_layer_suggestion(clean_model):
    layout = vqa_layout(clean_model)
    profile = bos_profile(clean_model, layout)
    assert len(profile) == clean_model.config.n_layers
    assert all(0.0 <= p <= 1.0 for p in profile)
    # answer rows park on BOS in the upper half of this construction
    layer, fallback = suggest_start_layer(profile, theta=0.2)
    assert not fallback
    assert layer >= 3
    # the caption row reaches the threshold too
    caption = SequenceLayout(
        token_ids=layout.token_ids[: layout.visual_end] + (clean_model.vocab.caption_id,),
        visual_start=layout.visual_start,
        visual_end=layout.visual_end,
    )
    caption_profile = bos_profile(clean_model, caption)
    assert len(caption_profile) == clean_model.config.n_layers
    assert not suggest_start_layer(caption_profile, theta=0.2)[1]
    with pytest.warns(UserWarning):
        layer, fallback = suggest_start_layer(profile, theta=0.99)
    assert (layer, fallback) == (0, True)
    with pytest.raises(InvalidInput):
        suggest_start_layer([])
    for bad in ("abc", "", 0.5, None, [0.5, "0.9"], [0.5, None], [[0.5]]):
        with pytest.raises(InvalidInput):
            suggest_start_layer(bad, theta=0.2)
    assert suggest_start_layer(np.array(profile), theta=0.2) == suggest_start_layer(profile, theta=0.2)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInput):
            suggest_start_layer([0.5, bad], theta=0.2)
    for theta in (float("nan"), float("inf"), -float("inf"), "0.2", None, True):
        with pytest.raises(InvalidInput):
            suggest_start_layer(profile, theta=theta)


def test_on_visual_binds_from_prefill(clean_model):
    layout = vqa_layout(clean_model)
    result = prefill(clean_model, layout)
    session = new_session(clean_model, VgaConfig(), question="is there a dog ?")
    session.on_visual(result.visual_logits, [layout])
    assert session.groundings[0] is not None
    assert session.span == (layout.visual_start, layout.visual_end)
    # logits one column short of the model's vocabulary: a typed error, not
    # an IndexError from picking the question word's column
    for source in ("vsc", "vss", "none"):
        config = VgaConfig(guidance_source=source)
        short = new_session(clean_model, config, question="is there a dog ?")
        with pytest.raises(ShapeError):
            short.on_visual(result.visual_logits[:, :-1], [layout])
        assert short.span is None


@pytest.mark.parametrize("source", ["vsc", "vss", "even", "none"])
def test_non_finite_logits_leave_the_session_unbound(clean_model, source):
    """One NaN in the visual logits raises before any grounding reads them,
    under every source, and the session stays unbound."""
    layout = vqa_layout(clean_model)
    logits = prefill(clean_model, layout).visual_logits.copy()
    logits[3, 5] = np.nan
    session = new_session(clean_model, VgaConfig(guidance_source=source), question="is there a dog ?")
    with pytest.raises(InvalidInput):
        session.on_visual(logits, [layout])
    assert session.span is None


def test_a_refused_grounding_leaves_the_session_unbound(clean_model):
    """A source that refuses what it grounds on raises with no span set:
    salience whose log-sum-exp overflows, and a mask of the wrong length."""
    layout = vqa_layout(clean_model)
    logits = prefill(clean_model, layout).visual_logits.copy()
    wide = logits.copy()
    wide[0] = -1e308
    wide[0, 0] = 1e308
    vss = new_session(clean_model, VgaConfig(guidance_source="vss"))
    with pytest.raises(InvalidInput):
        vss.on_visual(wide, [layout])
    assert vss.span is None
    mask = MaskAnnotation("dog", np.ones(3))
    gt = new_session(clean_model, VgaConfig(guidance_source="ground_truth"), gt_mask=mask)
    with pytest.raises(ShapeError):
        gt.on_visual(logits, [layout])
    assert gt.span is None
