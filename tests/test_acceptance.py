"""Acceptance suite: one test per end-to-end obligation of the package.

Each test here exercises a full-scale behavioral guarantee rather than a
unit: kernel agreement, no-op guarantees, attention-mass bookkeeping,
head balancing, programmed grounding decay, grounding quality against
planted masks, existence separation, guided accuracy under key noise,
metric arithmetic, first-token latency, cache consistency, and ablation
direction. Scales and tolerances are fixed here as module constants.
"""
import time

import numpy as np
import pytest

from vgalab.evalkit import (
    amber_metrics,
    bench_ttft,
    build_caption_layout,
    build_vqa_layout,
    chair_metrics,
    collect_image_confidences,
    grounding_quality_eval,
    question_text,
    ranking_auc,
    run_caption_eval,
    run_existence_eval,
)
from vgalab.grounding import EXIST_LOG_THRESHOLD, Grounding, MaskAnnotation, vsc_vector
from vgalab.mllm import (
    GuidanceRow,
    SequenceLayout,
    attention_explicit,
    attention_fused,
    build_random_model,
    decode_step,
    greedy_generate,
    prefill,
    prefill_shared,
    reference_forward,
)
from vgalab.numerics import cosine_sim_clamped, head_scales, sum_normalize
from vgalab.vga import VgaConfig, VgaSession, new_session

REL_TOL = 1e-5
ATOL_FLOOR = 1e-8
ROW_SUM_TOL = 1e-5
HAND_TOL = 1e-9
MEAN_GAMMA_TOL = 1e-6
LOGIT_TOL = 1e-5
DICE_FLOOR = 0.80
AUC_FLOOR = 0.90
VANILLA_BAND = (0.6, 0.8)
TTFT_CEILING = 0.10
GUIDED_BETA = 0.25
BETAS = (0.1, 0.2, 0.5)
EQUIV_BUDGET_S = 60.0
DICE_BUDGET_S = 120.0


def random_qkv(rng, tq, tk, n_heads, d_head):
    q = rng.normal(size=(tq, n_heads, d_head))
    k = rng.normal(size=(tk, n_heads, d_head))
    v = rng.normal(size=(tk, n_heads, d_head))
    return q, k, v


def random_guidance(rng, v, beta):
    """A row for one entry over a random span of ``v`` [Tk, H, dh], its mix
    the weighted sum of the span's value rows."""
    tk, n_heads, _ = v.shape
    start = int(rng.integers(0, tk - 2))
    end = int(rng.integers(start + 1, tk))
    weights, _ = sum_normalize(rng.uniform(0.1, 1.0, size=end - start))
    gamma = rng.uniform(0.0, 2.0, size=n_heads)
    rho = float(rng.uniform(0.1, 1.0))
    return GuidanceRow(
        entries=slice(0, 1),
        weights=weights[None],
        scales=(beta * rho * gamma)[None],
        span=(start, end),
        delta=(weights @ v[start:end].reshape(end - start, -1)).reshape(1, n_heads, -1),
    )


def test_fused_and_explicit_attention_agree():
    """Streaming value-space guidance equals the materialized-weights path."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    draws = 0

    for _ in range(60):  # kernel level, random shapes spanning key blocks
        n_heads = int(rng.choice([1, 2, 4]))
        d_head = int(rng.choice([4, 8, 16]))
        tk = int(rng.integers(4, 80))
        q, k, v = random_qkv(rng, tk, tk, n_heads, d_head)
        row = random_guidance(rng, v, beta=float(rng.choice(BETAS)))
        z_explicit, _ = attention_explicit(q, k, v, guidance=row)
        z_fused = attention_fused(q, k, v)
        guided = z_fused[-1:].copy()
        row.apply(guided)
        np.testing.assert_allclose(z_explicit[-1], guided[0], rtol=REL_TOL, atol=ATOL_FLOOR)
        np.testing.assert_allclose(
            z_explicit[:-1], z_fused[:-1], rtol=REL_TOL, atol=ATOL_FLOOR
        )
        draws += 1

    every_layer = build_random_model(0).config.n_layers  # the depth of every seed
    configs = [
        VgaConfig(beta=beta, guidance_source="even", end_layer=every_layer)
        for beta in BETAS
    ] + [  # non-uniform groundings; reversed salience drains a patch, so rho < 1
        VgaConfig(mode="caption", guidance_source=source, end_layer=every_layer)
        for source in ("vss", "reversed_vss")
    ]
    partial_rho = 0
    for seed in range(16):  # whole forward passes on small random decoders
        model = build_random_model(seed)
        vocab = model.vocab
        n_patches = model.config.n_patches
        patches = [int(rng.choice(vocab.patch_token_ids)) for _ in range(n_patches)]
        ids = (vocab.bos_id, *patches, vocab.object_ids[0], vocab.qmark_id)
        layout = SequenceLayout(ids, 1, 1 + n_patches)
        for config in configs:
            session = new_session(model, config)
            explicit = prefill(model, layout, hook=session, record_attention=True)
            fused = prefill(model, layout, hook=new_session(model, config))
            if session.groundings[0].rho < 1.0:
                partial_rho += 1
            np.testing.assert_allclose(
                explicit.last_logits, fused.last_logits, rtol=REL_TOL, atol=ATOL_FLOOR
            )
            np.testing.assert_allclose(
                explicit.visual_logits, fused.visual_logits,
                rtol=REL_TOL, atol=ATOL_FLOOR,
            )
            draws += 1

    assert draws >= 100
    assert partial_rho > 0  # the rho < 1 case really ran
    assert time.perf_counter() - t0 < EQUIV_BUDGET_S


def test_disabled_guidance_leaves_generation_untouched(clean_model, scenes125):
    """Zero strength and an empty layer range are exact no-ops."""
    prompts = [(s, q.word) for s in scenes125[:13] for q in s.questions]
    assert len(prompts) >= 50
    zero_beta = VgaConfig(beta=0.0)
    empty_range = VgaConfig(start_layer=3, end_layer=3)
    for scene, word in prompts:
        layout = build_vqa_layout(clean_model, scene, word)
        question = question_text(word)
        base = greedy_generate(clean_model, layout, max_len=8)
        for config in (zero_beta, empty_range):
            session = new_session(clean_model, config, question=question)
            guided = greedy_generate(clean_model, layout, vga=session, max_len=8)
            assert guided == base


def test_guided_attention_rows_carry_injected_mass():
    """A guided row's attention sums to 1 + beta*gamma_h*rho per head."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_heads = int(rng.choice([1, 2, 4, 8]))
        d_head = int(rng.choice([4, 8]))
        tk = int(rng.integers(4, 40))
        q, k, v = random_qkv(rng, tk, tk, n_heads, d_head)
        row = random_guidance(rng, v, beta=float(rng.choice(BETAS)))
        _, alpha = attention_explicit(q, k, v, guidance=row)
        guided_sums = alpha[:, -1, :].sum(axis=1)
        np.testing.assert_allclose(
            guided_sums, 1.0 + row.scales[0], rtol=0, atol=ROW_SUM_TOL
        )
        plain_sums = alpha[:, :-1, :].sum(axis=2)
        np.testing.assert_allclose(
            plain_sums, np.ones_like(plain_sums), rtol=0, atol=ROW_SUM_TOL
        )


def gamma_of(z, dz):
    """gamma [H] of one row [H, dh], from the hook's core at coefficient 1."""
    return head_scales(z[None], dz[None], [1.0])[0]


def test_head_balancing_reweights_and_conserves():
    """Hand values, exact symmetry fixpoint, nonnegativity, unit mean."""
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    dz = np.array([[1.0, 0.0], [0.0, 1.0]])  # cosines [1, 0]
    np.testing.assert_allclose(gamma_of(z, dz), [0.0, 2.0], rtol=0, atol=HAND_TOL)

    dz = np.array([[0.6, 0.8], [0.2, np.sqrt(1.0 - 0.04)]])  # cosines [.6, .2]
    gamma_prime, _ = sum_normalize(cosine_sim_clamped(z, dz))
    np.testing.assert_allclose(gamma_prime, [0.75, 0.25], rtol=0, atol=HAND_TOL)
    np.testing.assert_allclose(gamma_of(z, dz), [0.5, 1.5], rtol=0, atol=HAND_TOL)

    rng = np.random.default_rng(3)
    for n_heads in (2, 4, 8):  # identical heads pass through exactly
        row = rng.normal(size=8)
        drow = rng.normal(size=8)
        gamma = gamma_of(np.tile(row, (n_heads, 1)), np.tile(drow, (n_heads, 1)))
        assert np.all(gamma == 1.0)
    assert np.all(gamma_of(np.ones((4, 6)), np.zeros((4, 6))) == 1.0)

    unclipped = 0
    for _ in range(200):
        n_heads = int(rng.choice([2, 4, 8]))
        z, dz = rng.normal(size=(n_heads, 8)), rng.normal(size=(n_heads, 8))
        gamma = gamma_of(z, dz)
        assert np.all(gamma >= 0.0)
        gamma_prime, _ = sum_normalize(cosine_sim_clamped(z, dz))
        if np.all(2.0 - n_heads * gamma_prime >= 0.0):
            unclipped += 1
            assert abs(float(gamma.mean()) - 1.0) <= MEAN_GAMMA_TOL
    assert unclipped >= 30


def bound_suppression_session(model, lambda_, visual_probs, weights):
    """A caption session grounded on ``weights`` (each in [0, 1]) as a
    ground-truth mask over m visual rows, decaying by ``visual_probs``."""
    m = len(weights)
    config = VgaConfig(mode="caption", lambda_=lambda_, guidance_source="ground_truth")
    session = new_session(model, config, gt_mask=MaskAnnotation("x", weights))
    layout = SequenceLayout(tuple(range(m + 2)), 1, 1 + m)
    session.on_visual(np.zeros((m, 1)), [layout], model.vocab)
    session.visual_probs = np.asarray(visual_probs, dtype=np.float64)
    return session


def test_programmed_suppression_algebra(tiny_model):
    """Decay is identity at lambda 0 and on its own fixpoint, strictly
    reduces a one-hot target, matches the hand-worked update, and keeps
    the grounding a distribution over hundreds of steps."""
    eye = np.array([[1.0, 0.0], [0.0, 1.0]])

    session = bound_suppression_session(tiny_model, 0.0, eye, [0.5, 0.5])
    before = session.groundings[0]
    session.on_token(0)
    assert session.groundings[0] is before  # lambda 0: untouched

    matched = np.array([[0.5, 0.2], [0.5, 0.8]])  # column 0 equals the grounding
    session = bound_suppression_session(tiny_model, 0.02, matched, [0.5, 0.5])
    session.on_token(0)
    np.testing.assert_allclose(session.groundings[0].weights, [0.5, 0.5], atol=1e-12)

    session = bound_suppression_session(tiny_model, 0.02, eye, [0.5, 0.5])
    session.on_token(0)
    np.testing.assert_allclose(
        session.groundings[0].weights, [0.49, 0.51], rtol=0, atol=HAND_TOL
    )

    rng = np.random.default_rng(12)
    for _ in range(20):  # one-hot decay strictly drains the named cell
        m = int(rng.integers(2, 8))
        weights, _ = sum_normalize(rng.uniform(0.1, 1.0, size=m))
        target = int(rng.integers(0, m))
        probs = np.full((m, 3), 1e-6)
        probs[target, 0] = 1.0
        session = bound_suppression_session(tiny_model, 0.05, probs, weights)
        session.on_token(0)
        assert session.groundings[0].weights[target] < weights[target]

    m, v = 6, 10
    raw = rng.uniform(size=(m, v))
    probs = raw / raw.sum(axis=1, keepdims=True)
    session = bound_suppression_session(
        tiny_model, 0.05, probs, rng.uniform(0.1, 1.0, size=m)
    )
    for step in range(512):
        token = int(rng.integers(0, v))
        # the update spelled out with the validating constructor
        g_w, _ = sum_normalize(probs[:, token])
        validated = Grounding.from_values(
            np.maximum(0.0, (1.0 + 0.05) * session.groundings[0].weights - 0.05 * g_w)
        )
        session.on_token(token)
        g = session.groundings[0]
        assert g.weights.tobytes() == validated.weights.tobytes()
        assert (g.rho, g.degenerate) == (validated.rho, validated.degenerate)
        assert np.all(g.weights >= 0.0)
        assert 0.0 <= g.rho <= 1.0
        if g.degenerate:
            np.testing.assert_allclose(g.weights, np.full(m, 1.0 / m), atol=1e-12)
        else:
            assert abs(float(g.weights.sum()) - 1.0) <= 1e-9


def test_grounding_matches_planted_masks(clean_model, scenes125):
    """Mean soft Dice against planted masks, scored by an inline oracle."""
    t0 = time.perf_counter()
    scenes = scenes125[:100]
    dices = []
    for scene in scenes:
        logits = prefill(clean_model, build_caption_layout(clean_model, scene)).visual_logits
        for mask in scene.objects:
            word_id = clean_model.vocab.id_of(mask.word)
            conf = np.empty(logits.shape[0])
            for i in range(logits.shape[0]):
                row = np.asarray(logits[i], dtype=np.float64)
                exp_row = np.exp(row - row.max())
                conf[i] = exp_row[word_id] / exp_row.sum()
            np.testing.assert_allclose(
                vsc_vector(logits, word_id), conf, rtol=0, atol=1e-10
            )
            overlap = mask.overlaps
            dices.append(
                2.0 * float(conf @ overlap) / float(conf.sum() + overlap.sum())
            )
    mean_dice = float(np.mean(dices))
    report = grounding_quality_eval(clean_model, scenes, source="vsc")
    assert report.mean_dice == pytest.approx(mean_dice, abs=1e-12)
    assert report.n_items == len(dices)
    assert mean_dice >= DICE_FLOOR
    assert time.perf_counter() - t0 < DICE_BUDGET_S


def test_image_confidence_separates_present_from_absent(clean_model, scenes125):
    """Ranking AUC over 500 balanced questions, plus the fixed-threshold rule."""
    values, labels = collect_image_confidences(clean_model, scenes125)
    labels = np.asarray(labels, dtype=bool)
    assert len(values) >= 500
    assert int(labels.sum()) * 2 == len(labels)

    auc = ranking_auc(values, labels)
    positives = values[labels]
    negatives = values[~labels]
    wins = float(
        sum((p > negatives).sum() + 0.5 * (p == negatives).sum() for p in positives)
    )
    pair_oracle = wins / (len(positives) * len(negatives))
    assert auc == pytest.approx(pair_oracle, abs=1e-12)
    assert auc >= AUC_FLOOR

    rule = np.log(values) > EXIST_LOG_THRESHOLD
    assert float(np.mean(rule == labels)) > 0.5


def test_guidance_recovers_accuracy_under_key_noise(noisy_model, scenes125):
    """At the working noise level, guidance helps and better maps help more."""
    accuracy = {}
    for name, source in (
        ("vanilla", "none"),
        ("even", "even"),
        ("vsc", "vsc"),
        ("gt", "ground_truth"),
    ):
        config = VgaConfig(beta=GUIDED_BETA, guidance_source=source)
        accuracy[name] = run_existence_eval(noisy_model, scenes125, config).accuracy
    assert VANILLA_BAND[0] <= accuracy["vanilla"] <= VANILLA_BAND[1]
    assert accuracy["vsc"] > accuracy["vanilla"]
    assert accuracy["gt"] >= accuracy["vsc"] >= accuracy["even"]


def test_hallucination_metrics_match_set_arithmetic():
    """Random draws against inline set arithmetic plus exact hand examples."""
    rng = np.random.default_rng(17)
    pool = [f"w{i}" for i in range(8)]
    for _ in range(100):
        n = int(rng.integers(1, 6))
        generated = [{w for w in pool if rng.random() < 0.35} for _ in range(n)]
        annotated = [{w for w in pool if rng.random() < 0.35} for _ in range(n)]
        targets = [{w for w in pool if rng.random() < 0.2} for _ in range(n)]
        f1 = float(rng.uniform())

        chair_s, chair_i = chair_metrics(generated, annotated)
        dirty = sum(1 for r, a in zip(generated, annotated) if r - a)
        mentions = sum(len(r) for r in generated)
        extra = sum(len(r - a) for r, a in zip(generated, annotated))
        assert chair_s == pytest.approx(dirty / n, abs=1e-12)
        assert chair_i == pytest.approx(extra / mentions if mentions else 0.0, abs=1e-12)

        scores = amber_metrics(generated, annotated, targets, f1=f1)
        chairs = [
            1.0 - len(r & a) / len(r) if r else 0.0
            for r, a in zip(generated, annotated)
        ]
        covers = [
            len(r & a) / len(a) if a else 0.0 for r, a in zip(generated, annotated)
        ]
        cogs = [len(r & h) / len(r) if r else 0.0 for r, h in zip(generated, targets)]
        hals = [1.0 if c > 0 else 0.0 for c in chairs]
        assert scores.chair == pytest.approx(np.mean(chairs), abs=1e-12)
        assert scores.cover == pytest.approx(np.mean(covers), abs=1e-12)
        assert scores.cog == pytest.approx(np.mean(cogs), abs=1e-12)
        assert scores.hal == pytest.approx(np.mean(hals), abs=1e-12)
        assert scores.amber == pytest.approx((1.0 - np.mean(chairs) + f1) / 2.0, abs=1e-12)

    assert chair_metrics([{"dog", "car"}], [{"dog"}]) == (1.0, 0.5)
    assert chair_metrics([{"dog"}, {"car"}], [{"dog"}, {"dog"}]) == (0.5, 0.5)
    hand = amber_metrics([{"dog", "car"}], [{"dog", "tree"}], [set()], f1=0.8)
    assert (hand.chair, hand.cover, hand.hal, hand.cog) == (0.5, 0.5, 1.0, 0.0)
    assert hand.amber == (1.0 - 0.5 + 0.8) / 2.0


def test_first_token_latency_overhead_is_bounded(noisy_model, scenes125):
    """Guided prefill stays within the latency budget at equal work."""
    config = VgaConfig(beta=GUIDED_BETA, guidance_source="vsc")
    stats = bench_ttft(noisy_model, scenes125[:100], config, runs=3)
    assert stats.n_prompts == 100
    assert stats.rows_vanilla == stats.rows_guided
    assert stats.overhead_fraction <= TTFT_CEILING


def test_incremental_decode_matches_full_recompute(clean_model, noisy_model, scenes125):
    """KV-cached decoding reproduces the uncached forward pass exactly, and
    starting from a scene's shared visual prefix changes no bit of it."""
    prompts = [(s, q.word) for s in scenes125[:13] for q in s.questions]
    assert len(prompts) >= 50
    eos = clean_model.vocab.eos_id
    for scene, word in prompts:
        layout = build_vqa_layout(clean_model, scene, word)
        result = prefill(clean_model, layout)
        logits = result.last_logits
        cached_tokens, cached_logits = [], []
        for _ in range(6):
            token = int(np.argmax(logits))
            cached_tokens.append(token)
            cached_logits.append(np.asarray(logits, dtype=np.float64))
            if token == eos:
                break
            logits = decode_step(clean_model, result.cache, token)

        ids = list(layout.token_ids)
        fresh_tokens, fresh_logits = [], []
        for _ in range(len(cached_tokens)):
            grid_layout = SequenceLayout(
                tuple(ids), layout.visual_start, layout.visual_end
            )
            last = reference_forward(clean_model, grid_layout)[0][-1]
            token = int(np.argmax(last))
            fresh_tokens.append(token)
            fresh_logits.append(np.asarray(last, dtype=np.float64))
            ids.append(token)

        assert cached_tokens == fresh_tokens
        np.testing.assert_allclose(
            np.array(cached_logits), np.array(fresh_logits), rtol=0, atol=LOGIT_TOL
        )

    for model in (clean_model, noisy_model):
        for scene in scenes125[:3]:
            layouts = [build_vqa_layout(model, scene, q.word) for q in scene.questions]
            for source in ("none", "vsc", "even", "ground_truth"):
                config = VgaConfig(beta=GUIDED_BETA, guidance_source=source)

                def session(questions):
                    return VgaSession(
                        model,
                        config,
                        [question_text(q.word) for q in questions],
                        [scene.objects[0]] * len(questions),
                    )

                shared = prefill_shared(model, layouts, session(scene.questions))
                for row, layout, q in zip(shared, layouts, scene.questions):
                    alone = prefill(model, layout, hook=session([q]))
                    assert row.tobytes() == alone.last_logits.tobytes()


def test_removing_components_degrades_in_the_expected_direction(
    clean_model, noisy_model, scenes125
):
    """Captions cover less without grounding decay; head balancing changes
    guided outputs while the kernel agreement invariant survives."""
    scenes = scenes125[:30]
    full = run_caption_eval(
        clean_model, scenes, VgaConfig(mode="caption"), f1=1.0, max_len=48
    )
    no_decay = run_caption_eval(
        clean_model,
        scenes,
        VgaConfig(mode="caption", pvg_enabled=False),
        f1=1.0,
        max_len=48,
    )
    assert full.cover > no_decay.cover

    scene = scenes125[0]
    word = scene.objects[0].word
    layout = build_vqa_layout(noisy_model, scene, word)
    question = question_text(word)
    balanced_cfg = VgaConfig(beta=GUIDED_BETA, guidance_source="vsc")
    flat_cfg = VgaConfig(beta=GUIDED_BETA, guidance_source="vsc", head_balancing=False)
    balanced = prefill(
        noisy_model, layout, hook=new_session(noisy_model, balanced_cfg, question=question)
    )
    flat = prefill(
        noisy_model, layout, hook=new_session(noisy_model, flat_cfg, question=question)
    )
    assert float(np.max(np.abs(balanced.last_logits - flat.last_logits))) > 1e-6

    flat_explicit = prefill(
        noisy_model,
        layout,
        hook=new_session(noisy_model, flat_cfg, question=question),
        record_attention=True,
    )
    np.testing.assert_allclose(
        flat_explicit.last_logits, flat.last_logits, rtol=REL_TOL, atol=ATOL_FLOOR
    )
