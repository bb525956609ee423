"""Attention kernels and the forward pass: causality, caching, greedy loop."""
import ast
import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vgalab.errors import CapacityError, InvalidInput, ShapeError
from vgalab.mllm import (
    GuidanceRow,
    KvCache,
    SequenceLayout,
    attention_explicit,
    attention_fused,
    build_random_model,
    decode_step,
    forward_rows_count,
    greedy_generate,
    prefill,
    prefill_shared,
    reference_forward,
)
from vgalab.evalkit import build_caption_layout, build_vqa_layout, question_text
from vgalab.mllm import core
from vgalab.mllm.attention import _KEY_BLOCK, _check_qkv
from vgalab.mllm.core import gelu, rms_norm
from vgalab.grounding import MaskAnnotation
from vgalab.vga import VgaConfig, VgaSession, bos_profile, new_session

KERNEL_TOL = 1e-10
LOGIT_TOL = 1e-8
GELU_TOL = 1e-15


def random_qkv(rng, tq, tk, heads, d_head):
    q = rng.normal(size=(tq, heads, d_head))
    k = rng.normal(size=(tk, heads, d_head))
    v = rng.normal(size=(tk, heads, d_head))
    return q, k, v


def test_fused_matches_explicit_without_guidance():
    rng = np.random.default_rng(0)
    for _ in range(40):
        tq = int(rng.integers(1, 9))
        tk = tq + int(rng.integers(0, 70))  # spans multiple key blocks
        heads = int(rng.integers(1, 5))
        d_head = int(rng.integers(2, 9))
        q, k, v = random_qkv(rng, tq, tk, heads, d_head)
        z_ref, alpha = attention_explicit(q, k, v)
        z_fused = attention_fused(q, k, v)
        assert np.allclose(z_fused, z_ref, rtol=0, atol=KERNEL_TOL)
        assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)


def _masked_fill_attention_fused(q, k, v) -> np.ndarray:
    """``attention_fused`` as it stood when masked blocks were filled with
    -inf and the carry was rebuilt out of place: the byte oracle for the
    kernel, which must give the same bytes."""
    q, k, v = _check_qkv(q, k, v)
    tq, n_heads, d_head = q.shape
    tk = k.shape[0]
    offset = tk - tq

    qh = q.transpose(1, 0, 2) * (1.0 / np.sqrt(d_head))  # [H, Tq, dh]
    kh = k.transpose(1, 2, 0)  # [H, dh, Tk]
    vh = v.transpose(1, 0, 2)  # [H, Tk, dh]
    rows = (np.arange(tq) + offset)[:, None]

    running_max = denom = acc = None
    for start in range(0, tk, _KEY_BLOCK):
        stop = min(start + _KEY_BLOCK, tk)
        scores = qh @ kh[:, :, start:stop]  # [H, Tq, block]
        if stop - 1 > offset:  # some key lies past row 0's position
            scores = np.where(np.arange(start, stop) <= rows, scores, -np.inf)
        block_max = scores.max(axis=-1, keepdims=True)
        if acc is None:
            # Key 0 sits in this block and every row sees it, so the running
            # max is finite from here on: a later block that a row cannot see
            # at all gives exp(-inf - finite) = 0, and no carry needs a guard.
            running_max = block_max
            weights = np.exp(scores - running_max)
            denom = weights.sum(axis=-1, keepdims=True)
            acc = weights @ vh[:, start:stop]
            continue
        new_max = np.maximum(running_max, block_max)
        carry = np.exp(running_max - new_max)
        weights = np.exp(scores - new_max)
        denom = denom * carry + weights.sum(axis=-1, keepdims=True)
        acc = acc * carry + weights @ vh[:, start:stop]
        running_max = new_max

    return (acc / denom).transpose(1, 0, 2)


def _out_of_place_rms_norm(x, gain):
    """``rms_norm`` as it stood with out-of-place ops and ``.sum``."""
    scale = np.sqrt(np.square(x).sum(axis=-1, keepdims=True) / x.shape[-1] + 1e-6)
    return x / scale * gain


def _one_expression_gelu(x):
    """``gelu`` as it stood, one out-of-place expression."""
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def _three_product_forward_block(model, token_ids, cache, *, hook=None):
    """``core._forward_block`` as it stood with three projection products,
    out-of-place residual adds, ``_out_of_place_rms_norm``, ``_one_expression_gelu`` and
    ``_masked_fill_attention_fused``, less the forward-row counter: the byte
    oracle for the whole layer. Its cache plumbing is the current one: it
    starts at the cache's length and, for B = 1, advances it."""
    cfg = model.config
    b, n = token_ids.shape
    start_pos = cache.length
    core._check_ids(cfg, token_ids, start_pos + n)

    x = (
        model.embed_tok[token_ids].astype(np.float64)
        + model.embed_pos[start_pos : start_pos + n].astype(np.float64)
    )
    n_heads, d_head = cfg.n_heads, cfg.d_head
    guided = range(0) if hook is None else hook.guided_layers

    for layer_idx, lw in enumerate(model.layers):
        hn = _out_of_place_rms_norm(x, lw.norm1)
        q = core._fold_heads(hn @ lw.wq, n_heads)
        k = core._fold_heads(hn @ lw.wk, n_heads)
        v = core._fold_heads(hn @ lw.wv, n_heads)
        if b == 1:
            cache.write(layer_idx, k, v)
            k_all, v_all = cache.view(layer_idx, start_pos + n)
            v_cache = v_all
        else:
            k_shared, v_cache = cache.view(layer_idx, start_pos)
            k_all, v_all = core._join(k_shared, k), core._join(v_cache, v)

        z = _masked_fill_attention_fused(q, k_all, v_all).reshape(n, b, n_heads, d_head)
        if layer_idx in guided:
            z_last = z[-1]
            corr = hook.correction(layer_idx, z_last, v_cache)
            if corr is not None:
                corr.apply(z_last)

        x = x + z.swapaxes(0, 1).reshape(b, n, cfg.d_model) @ lw.wo
        x = x + _one_expression_gelu(_out_of_place_rms_norm(x, lw.norm2) @ lw.mlp_w1) @ lw.mlp_w2

    if b == 1:
        cache.advance(n)
    return x @ model.unembed


@st.composite
def attention_problems(draw):
    """(tq, tk, heads, d_head, scale, seed) with 1 <= tq <= tk <= 200."""
    tk = draw(st.one_of(st.sampled_from([1, 63, 64, 65, 127, 128, 129]), st.integers(1, 200)))
    tq = draw(st.one_of(st.just(tk), st.just(1), st.integers(1, tk)))
    heads = draw(st.integers(1, 4))
    d_head = draw(st.integers(1, 24))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    return tq, tk, heads, d_head, scale, draw(st.integers(0, 2**32 - 1))


@given(attention_problems())
@example((65, 65, 4, 24, 1.0, 0))  # the visual prefix of a vqa prompt
@example((67, 67, 4, 24, 1.0, 1))  # a whole uncached prompt
@example((2, 67, 4, 24, 1.0, 2))  # its text tail over the shared prefix
@example((1, 64, 2, 8, 4.0, 3))
@example((1, 65, 2, 8, 4.0, 4))
@example((64, 128, 3, 5, 1.0, 5))
@example((128, 128, 1, 3, 0.1, 6))
@example((1, 80, 4, 24, 1.0, 7))  # caption decode steps
@example((1, 113, 4, 24, 1.0, 8))
@example((2, 67, 16, 24, 1.0, 9))  # a four-prompt tail batch over the shared prefix
@settings(max_examples=150, deadline=None)
def test_fused_matches_explicit_on_any_shape(problem):
    tq, tk, heads, d_head, scale, seed = problem
    rng = np.random.default_rng(seed)
    q, k, v = random_qkv(rng, tq, tk, heads, d_head)
    z_ref, _ = attention_explicit(scale * q, scale * k, v)
    z_fused = attention_fused(scale * q, scale * k, v)
    assert z_fused.shape == (tq, heads, d_head)
    np.testing.assert_allclose(z_fused, z_ref, rtol=0, atol=KERNEL_TOL)
    assert z_fused.tobytes() == _masked_fill_attention_fused(scale * q, scale * k, v).tobytes()
    # A batch rides on the head axis (the forward pass folds B prompts'
    # heads side by side): each entry's slice is the unbatched call's bytes.
    # One query row against one head reads that head's values as a single
    # contiguous matrix, which OpenBLAS's gemv may reduce by another path
    # for widths under 4, so only that case is held to KERNEL_TOL.
    batch = [(scale * q, scale * k, v)] + [
        (scale * qi, scale * ki, vi)
        for qi, ki, vi in (random_qkv(rng, tq, tk, heads, d_head) for _ in range(2))
    ]
    z_batch = attention_fused(*(np.concatenate(arrays, axis=1) for arrays in zip(*batch)))
    for i, entry in enumerate(batch):
        alone = attention_fused(*entry)
        sliced = z_batch[:, i * heads : (i + 1) * heads]
        if heads == 1 and tq == 1:
            np.testing.assert_allclose(sliced, alone, rtol=0, atol=KERNEL_TOL)
        else:
            assert sliced.tobytes() == alone.tobytes()


def test_forward_bytes_match_the_masked_fill_kernel(
    clean_model, noisy_model, tiny_model, scenes125, monkeypatch
):
    """Vanilla and vsc-guided ``prefill`` (last and visual logits) and
    ``prefill_shared``, and a PVG caption's tokens, are the same bytes
    under ``_three_product_forward_block`` (three projection products, out-of-place
    layer math, the masked-fill kernel) as under ``_forward_block``; on the
    random model, prompts of random patches under every guidance source."""

    def outputs(model, scene):
        words = [q.word for q in scene.questions]
        layouts = [build_vqa_layout(model, scene, word) for word in words]
        out = []
        for config in (None, VgaConfig(guidance_source="vsc")):
            hook = None if config is None else new_session(model, config, question_text(words[0]))
            result = prefill(model, layouts[0], hook=hook)
            out += [result.last_logits.tobytes(), result.visual_logits.tobytes()]
            questions = [question_text(word) for word in words]
            hook = None if config is None else VgaSession(model, config, questions)
            out.append(prefill_shared(model, layouts, hook).tobytes())
        session = new_session(model, VgaConfig(mode="caption"))
        out.append(greedy_generate(model, build_caption_layout(model, scene), session, max_len=48))
        return out

    def tiny_outputs(seed):
        rng = np.random.default_rng(seed)
        first = scene_layout(tiny_model, rng)
        e = first.visual_end
        layouts = [first] + [
            SequenceLayout(first.token_ids[:e] + scene_layout(tiny_model, rng).token_ids[e:], 1, e)
            for _ in range(2)
        ]
        out = [prefill(tiny_model, first).last_logits.tobytes()]
        out.append(prefill_shared(tiny_model, layouts).tobytes())
        for config in guided_configs(tiny_model):
            sessions = [session_for(tiny_model, config, layout, seed) for layout in layouts]
            result = prefill(tiny_model, first, hook=sessions[0])
            out += [result.last_logits.tobytes(), result.visual_logits.tobytes()]
            questions = [session.questions[0] for session in sessions]
            masks = [session.gt_masks[0] for session in sessions]
            batch = VgaSession(tiny_model, config, questions, masks)
            out.append(prefill_shared(tiny_model, layouts, batch).tobytes())
            session = session_for(tiny_model, config, first, seed)
            out.append(greedy_generate(tiny_model, first, session, max_len=24))
        return out

    def run_all():
        models = (clean_model, noisy_model)
        planted = [outputs(model, scene) for model in models for scene in scenes125[:5]]
        return planted + [tiny_outputs(seed) for seed in range(3)]

    current = run_all()
    calls = []

    def frozen(model, token_ids, cache, *, hook=None):
        calls.append(token_ids.shape)
        return _three_product_forward_block(model, token_ids, cache, hook=hook)

    monkeypatch.setattr(core, "_forward_block", frozen)
    assert run_all() == current
    assert calls


@pytest.mark.parametrize("b", [1, 4])
@pytest.mark.parametrize("n", [1, 2, 65])
def test_stacked_projection_is_each_separate_product(noisy_model, b, n):
    """One ``hn[:, None] @ qkv`` gives, slab by slab, the bytes of the
    separate ``hn @ wq`` (wk, wv) products, for decode rows, batched tails
    and the visual prefix."""
    hn = np.random.default_rng(b * 100 + n).normal(size=(b, n, noisy_model.config.d_model))
    for lw, block in zip(noisy_model.layers, noisy_model.qkv):
        stacked = hn[:, None] @ block
        for j, w in enumerate((lw.wq, lw.wk, lw.wv)):
            assert stacked[:, j].tobytes() == (hn @ w).tobytes()


def test_gelu_cube_matches_power_form():
    x = np.linspace(-30.0, 30.0, 60001)
    power_form = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))))
    np.testing.assert_allclose(gelu(x), power_form, rtol=0, atol=GELU_TOL)
    # The in-place form is the one-expression form byte for byte, on the
    # grid, down to subnormal inputs and up to where the cube overflows, and
    # on [4, 2, 192] draws (an MLP hidden block of a four-entry, two-row
    # tail); it leaves its input as it was.
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1e-160, 1e300, -1e300, 1e308])
    rng = np.random.default_rng(0)
    draws = [scale * rng.normal(size=(4, 2, 192)) for scale in (1e-3, 1.0, 3.0, 30.0) for _ in range(25)]
    for grid in [x, extremes] + draws:
        before = grid.copy()
        with np.errstate(over="ignore"):  # the cube of 1e300
            assert gelu(grid).tobytes() == _one_expression_gelu(grid).tobytes()
        assert grid.tobytes() == before.tobytes()
    far = gelu(np.array([-1e3, 1e3]))
    assert np.isfinite(far).all()
    assert far.tolist() == [0.0, 1e3]


@given(
    st.integers(1, 200),
    st.integers(1, 128),
    st.sampled_from([1e-3, 1.0, 1e5]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_rms_norm_matches_mean_form(rows, width, scale, seed):
    rng = np.random.default_rng(seed)
    x = scale * rng.normal(size=(rows, width))
    gain = rng.normal(size=width).astype(np.float32)
    before, gain_before = x.copy(), gain.copy()
    mean_form = x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + 1e-6) * gain
    assert rms_norm(x, gain).tobytes() == mean_form.tobytes()
    assert _out_of_place_rms_norm(x, gain).tobytes() == mean_form.tobytes()
    batched = rms_norm(x.reshape(1, rows, width), gain)
    assert batched.tobytes() == mean_form.tobytes()
    assert x.tobytes() == before.tobytes() and gain.tobytes() == gain_before.tobytes()


def test_attention_is_causal():
    rng = np.random.default_rng(1)
    q, k, v = random_qkv(rng, 4, 6, 2, 3)
    z_base, _ = attention_explicit(q, k, v)
    # query row i sits at position tk - tq + i = 2 + i; perturbing the last
    # key/value must leave every earlier row untouched
    k2, v2 = k.copy(), v.copy()
    k2[-1] += 10.0
    v2[-1] -= 5.0
    z_pert, _ = attention_explicit(q, k2, v2)
    assert np.allclose(z_pert[:-1], z_base[:-1], atol=1e-12)
    assert not np.allclose(z_pert[-1], z_base[-1])


def test_attention_shape_errors():
    rng = np.random.default_rng(2)
    q, k, v = random_qkv(rng, 3, 5, 2, 4)
    with pytest.raises(ShapeError):
        attention_explicit(q[:, :, :2], k, v)
    with pytest.raises(ShapeError):
        attention_fused(k, q, q)  # more queries than keys
    with pytest.raises(ShapeError):
        attention_explicit(q, k, v[:4])
    for kernel in (attention_explicit, attention_fused):
        with pytest.raises(InvalidInput):
            kernel(q.tolist(), k.tolist(), v.tolist())  # nested lists are not arrays
        with pytest.raises(InvalidInput):
            kernel(q, k, v.tolist())


def test_guidance_row_splice_and_span_checks():
    rng = np.random.default_rng(3)
    q, k, v = random_qkv(rng, 2, 8, 2, 4)
    weights = np.full(4, 0.25)
    g = GuidanceRow(
        weights=weights[None],
        scales=np.array([[0.5, 0.25]]),
        span=(1, 5),
        delta=(weights @ v[1:5].reshape(4, -1)).reshape(1, 2, 4),
    )
    _, alpha = attention_explicit(q, k, v, guidance=g)
    sums = alpha[:, -1, :].sum(axis=-1)
    assert np.allclose(sums, 1.0 + g.scales[0], atol=1e-12)
    for bad in (
        GuidanceRow(np.full((1, 3), 1 / 3), np.ones((1, 2)), (1, 5), g.delta),
        GuidanceRow(weights[None], np.ones((1, 2)), (5, 9), g.delta),
        GuidanceRow(np.tile(weights, (2, 1)), np.ones((2, 2)), (1, 5), g.delta),
    ):
        with pytest.raises(ShapeError):
            attention_explicit(q, k, v, guidance=bad)


def test_kv_cache_capacity_and_views(tiny_model):
    cache = KvCache(tiny_model.config)
    assert cache.length == 0
    rows = np.ones((2, tiny_model.config.n_heads, tiny_model.config.d_head))
    cache.write(0, rows, rows)
    assert cache.length == 0  # written, not yet kept
    cache.advance(2)
    assert cache.length == 2
    k, v = cache.view(0, 2)
    assert k.shape[0] == 2
    cache.advance(cache.capacity - 3)
    with pytest.raises(CapacityError):
        cache.write(0, rows, rows)


def test_kv_cache_layers_share_one_block(tiny_model):
    """One allocation per cache, not one per layer and side."""
    cache = KvCache(tiny_model.config)
    block = cache.k[0].base
    assert block is not None
    assert all(a.base is block for a in cache.k + cache.v)
    assert block.nbytes == sum(a.nbytes for a in cache.k + cache.v)
    assert len({a.__array_interface__["data"][0] for a in cache.k + cache.v}) == len(cache.k) * 2


def scene_layout(model, rng):
    n_patches = model.config.n_patches
    patch_pool = list(model.vocab.patch_token_ids) + list(model.vocab.background_ids)
    patches = [patch_pool[int(rng.integers(len(patch_pool)))] for _ in range(n_patches)]
    word = model.vocab.object_ids[int(rng.integers(model.vocab.n_objects))]
    ids = [model.vocab.bos_id] + patches + [word, model.vocab.qmark_id]
    return SequenceLayout(token_ids=tuple(ids), visual_start=1, visual_end=1 + n_patches)


@pytest.mark.parametrize("missing", [None, "guided_layers", "on_visual", "correction", "on_token"])
def test_forward_entry_points_reject_a_hook_that_lacks_a_protocol_name(tiny_model, missing):
    """A hook lacking one protocol name (or a string, lacking all four)
    raises InvalidInput before anything runs under it: the session whose
    other three names it carries stays unbound."""
    layout = scene_layout(tiny_model, np.random.default_rng(4))
    session = new_session(tiny_model, VgaConfig(guidance_source="even"))
    if missing is None:
        hook = "not a session"
    else:
        names = ("guided_layers", "on_visual", "correction", "on_token")
        hook = SimpleNamespace(**{name: getattr(session, name) for name in names if name != missing})
    cache = prefill(tiny_model, layout).cache
    for call in (
        lambda: prefill(tiny_model, layout, hook=hook),
        lambda: prefill(tiny_model, layout, hook=hook, record_attention=True),
        lambda: prefill_shared(tiny_model, [layout, layout], hook),
        lambda: decode_step(tiny_model, cache, 0, hook=hook),
        lambda: greedy_generate(tiny_model, layout, vga=hook, max_len=2),
        lambda: reference_forward(tiny_model, layout, hook),
    ):
        with pytest.raises(InvalidInput):
            call()
    assert session.span is None
    assert cache.length == layout.length


def guided_configs(model):
    """Guidance over every layer from each source a random model can ground."""
    every = model.config.n_layers
    return [
        VgaConfig(guidance_source="vsc", end_layer=every),
        VgaConfig(guidance_source="even", beta=0.5, end_layer=every),
        VgaConfig(guidance_source="ground_truth", start_layer=1, end_layer=every),
        VgaConfig(mode="caption", guidance_source="vss", end_layer=every),
        VgaConfig(mode="caption", guidance_source="reversed_vss", end_layer=every),
    ]


def session_for(model, config, layout, seed):
    """A one-entry session naming the prompt's object word, with a mask
    drawn from ``seed``."""
    word = model.vocab.word_of(layout.token_ids[layout.visual_end])
    mask = MaskAnnotation(word, np.random.default_rng(seed).random(layout.n_visual))
    return new_session(model, config, f"is there a {word} ?", mask)


def test_prefill_matches_reference_forward(tiny_model):
    """The cached forward pass, vanilla and guided, against the uncached
    explicit recompute of the whole prompt."""
    rng = np.random.default_rng(4)
    for _ in range(10):
        layout = scene_layout(tiny_model, rng)
        result = prefill(tiny_model, layout)
        whole, bos = reference_forward(tiny_model, layout)
        assert len(bos) == tiny_model.config.n_layers
        np.testing.assert_allclose(result.last_logits, whole[-1], rtol=0, atol=LOGIT_TOL)
        np.testing.assert_allclose(
            result.visual_logits,
            whole[layout.visual_start : layout.visual_end],
            rtol=0,
            atol=LOGIT_TOL,
        )
        for config in guided_configs(tiny_model):
            seed = int(rng.integers(2**32))
            fused = prefill(
                tiny_model, layout, hook=session_for(tiny_model, config, layout, seed)
            )
            session = session_for(tiny_model, config, layout, seed)
            guided, _ = reference_forward(tiny_model, layout, session)
            assert session.span == (layout.visual_start, layout.visual_end)
            np.testing.assert_allclose(fused.last_logits, guided[-1], rtol=0, atol=LOGIT_TOL)
            assert np.abs(guided[-1] - whole[-1]).max() > 1e3 * LOGIT_TOL  # it guided


def test_prefill_shared_rows_match_each_prompts_reference(tiny_model):
    rng = np.random.default_rng(11)
    for _ in range(4):
        prefix = scene_layout(tiny_model, rng).token_ids[: 1 + tiny_model.config.n_patches]
        layouts = [  # one prompt per object word
            SequenceLayout(prefix + (word, tiny_model.vocab.qmark_id), 1, len(prefix))
            for word in tiny_model.vocab.object_ids
        ]
        plain = prefill_shared(tiny_model, layouts)
        for row, layout in zip(plain, layouts):
            want = reference_forward(tiny_model, layout)[0][-1]
            np.testing.assert_allclose(row, want, rtol=0, atol=LOGIT_TOL)
        for config in guided_configs(tiny_model):
            seeds = [int(seed) for seed in rng.integers(2**32, size=len(layouts))]
            alone = [session_for(tiny_model, config, lay, s) for lay, s in zip(layouts, seeds)]
            questions = [session.questions[0] for session in alone]
            masks = [session.gt_masks[0] for session in alone]
            rows = prefill_shared(tiny_model, layouts, VgaSession(tiny_model, config, questions, masks))
            assert np.abs(rows - plain).max(axis=1).min() > 1e3 * LOGIT_TOL  # every row guided
            for row, layout, session in zip(rows, layouts, alone):
                want = reference_forward(tiny_model, layout, session)[0][-1]
                np.testing.assert_allclose(row, want, rtol=0, atol=LOGIT_TOL)


def test_prompt_without_text_tail_is_never_guided(tiny_model):
    """A prompt that ends at the visual span binds the hook and guides no
    row, on both routes: the last row is a visual row, which runs unguided."""
    rng = np.random.default_rng(12)
    layout = scene_layout(tiny_model, rng)
    bare = SequenceLayout(layout.token_ids[: layout.visual_end], 1, layout.visual_end)
    plain, bos = reference_forward(tiny_model, bare)
    for config in guided_configs(tiny_model):
        seed = int(rng.integers(2**32))
        session = session_for(tiny_model, config, layout, seed)
        calls = []
        session.correction = lambda *args: calls.append(args)
        guided, guided_bos = reference_forward(tiny_model, bare, session)
        assert session.span == (1, bare.visual_end) and calls == []
        assert guided.tobytes() == plain.tobytes() and guided_bos == bos
        session = session_for(tiny_model, config, layout, seed)
        session.correction = lambda *args: calls.append(args)
        fused = prefill(tiny_model, bare, hook=session)
        assert session.span == (1, bare.visual_end) and calls == []
        assert fused.last_logits.tobytes() == prefill(tiny_model, bare).last_logits.tobytes()
        np.testing.assert_allclose(fused.last_logits, plain[-1], rtol=0, atol=LOGIT_TOL)


def test_reference_forward_shares_no_code_with_the_cached_path():
    """The oracle names none of the helpers of what it checks, nor the
    prefix memo: it neither reads nor fills it."""
    tree = ast.parse(inspect.getsource(core.reference_forward))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "attention_explicit" in names
    forbidden = {"_forward_block", "_prefill", "KvCache", "_fold_heads", "_join", "attention_fused"}
    forbidden |= {"_prefix", "_kv"}  # the prefix memo and the cache block it copies
    assert not names & forbidden


def test_decode_step_extends_cache_consistently(tiny_model):
    rng = np.random.default_rng(5)
    for _ in range(3):
        layout = scene_layout(tiny_model, rng)
        result = prefill(tiny_model, layout)
        logits = result.last_logits
        for _ in range(5):
            tok = int(np.argmax(logits))
            logits = decode_step(tiny_model, result.cache, tok)
            layout = SequenceLayout(
                token_ids=layout.token_ids + (tok,),
                visual_start=layout.visual_start,
                visual_end=layout.visual_end,
            )
            whole, _ = reference_forward(tiny_model, layout)
            np.testing.assert_allclose(logits, whole[-1], rtol=0, atol=LOGIT_TOL)


@pytest.mark.parametrize("bad", [3.7, True, "3"])
def test_decode_step_rejects_non_integer_token_ids(tiny_model, bad):
    """A float is not truncated to a token, nor a bool read as 0 or 1."""
    result = prefill(tiny_model, scene_layout(tiny_model, np.random.default_rng(5)))
    length = result.cache.length
    with pytest.raises(InvalidInput):
        decode_step(tiny_model, result.cache, bad)
    assert result.cache.length == length
    decode_step(tiny_model, result.cache, np.int64(3))  # numpy integers pass


def test_decode_never_reads_cache_rows_past_length(tiny_model):
    """Rows past ``length`` are uninitialized; NaN there must change no byte."""
    rng = np.random.default_rng(10)
    layout = scene_layout(tiny_model, rng)
    result = prefill(tiny_model, layout)
    cache = result.cache
    clean = KvCache(tiny_model.config)
    for dst, src in zip(clean.k + clean.v, cache.k + cache.v):
        dst[:] = 0.0
        dst[: cache.length] = src[: cache.length]
        src[cache.length :] = np.nan
    clean.advance(cache.length)
    for token in (int(np.argmax(result.last_logits)), tiny_model.vocab.eos_id):
        poisoned_step = decode_step(tiny_model, cache, token)
        clean_step = decode_step(tiny_model, clean, token)
        assert poisoned_step.tobytes() == clean_step.tobytes()


def test_prefill_rejects_overlong_prompt(tiny_model):
    ids = tuple([tiny_model.vocab.bos_id] * (tiny_model.config.max_seq_len + 1))
    layout = SequenceLayout(token_ids=ids, visual_start=0, visual_end=4)
    with pytest.raises(CapacityError):
        prefill(tiny_model, layout)


def test_forward_rejects_out_of_vocab(tiny_model):
    """Both routes, the cached pass and the reference, raise typed errors
    for an id past the vocabulary (in the prefix or the tail), for an
    overlong prompt and for a prompt that is not a ``SequenceLayout``,
    never a raw numpy error or AttributeError, and before the hook binds."""
    size, cap = tiny_model.vocab.size, tiny_model.config.max_seq_len
    layout = SequenceLayout(token_ids=(0, 1, 2, 3, 4), visual_start=0, visual_end=4)
    for bad in (tuple(layout.token_ids), None):
        session = new_session(tiny_model, VgaConfig(guidance_source="even"))
        for call in (
            lambda: prefill(tiny_model, bad),
            lambda: prefill(tiny_model, bad, hook=session, record_attention=True),
            lambda: prefill_shared(tiny_model, [bad]),
            lambda: prefill_shared(tiny_model, 5),
            lambda: prefill_shared(tiny_model, [layout, bad]),
            lambda: greedy_generate(tiny_model, bad, session),
            lambda: reference_forward(tiny_model, bad, session),
        ):
            with pytest.raises(InvalidInput):
                call()
        assert session.span is None
    for ids, end, error in (
        ((0, 1, 2, 3, size), 4, InvalidInput),
        ((size, 1, 2, 3, 4), 4, InvalidInput),
        ((0,) * (cap + 1), 4, CapacityError),
        ((0,) * cap + (size,), 4, CapacityError),
    ):
        layout = SequenceLayout(token_ids=ids, visual_start=0, visual_end=end)
        for record_attention in (False, True):
            with pytest.raises(error):
                prefill(tiny_model, layout, record_attention=record_attention)
            session = new_session(tiny_model, VgaConfig(guidance_source="even"))
            with pytest.raises(error):
                prefill(tiny_model, layout, hook=session, record_attention=record_attention)
            assert session.span is None


def test_forward_rejects_a_visual_span_off_the_patch_grid(tiny_model):
    """A prompt's visual span holds the model's rows * cols patches: every
    route raises ``ShapeError`` for 3 or 5 visual rows on the 2x2 grid,
    before the hook binds, and ``prefill_shared`` for a second prompt whose
    span starts elsewhere though it ends where the first one's does."""
    assert tiny_model.config.n_patches == 4
    for m in (3, 5):
        layout = SequenceLayout(tuple(range(m + 2)), 1, 1 + m)
        session = new_session(tiny_model, VgaConfig(guidance_source="even"))
        for call in (
            lambda: prefill(tiny_model, layout, hook=session),
            lambda: prefill(tiny_model, layout, hook=session, record_attention=True),
            lambda: prefill_shared(tiny_model, [layout], session),
            lambda: reference_forward(tiny_model, layout, session),
            lambda: greedy_generate(tiny_model, layout, session),
            lambda: bos_profile(tiny_model, layout),
        ):
            with pytest.raises(ShapeError, match="4-patch grid"):
                call()
        assert session.span is None
    first = scene_layout(tiny_model, np.random.default_rng(14))
    shifted = SequenceLayout(first.token_ids, first.visual_start + 1, first.visual_end)
    with pytest.raises(ShapeError):
        prefill_shared(tiny_model, [first, shifted])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda model, other, layout, cache: prefill("m", layout), InvalidInput),
        (lambda model, other, layout, cache: prefill(None, layout), InvalidInput),
        (lambda model, other, layout, cache: prefill_shared("m", [layout]), InvalidInput),
        (lambda model, other, layout, cache: reference_forward(None, layout), InvalidInput),
        (lambda model, other, layout, cache: greedy_generate("m", layout), InvalidInput),
        (lambda model, other, layout, cache: decode_step("m", cache, 3), InvalidInput),
        (lambda model, other, layout, cache: decode_step(model, "cache", 3), InvalidInput),
        (lambda model, other, layout, cache: decode_step(model, None, 3), InvalidInput),
        (lambda model, other, layout, cache: decode_step(other, cache, 3), ShapeError),
        (
            lambda model, other, layout, cache: decode_step(model, KvCache(other.config), 3),
            ShapeError,
        ),
    ],
    ids=[
        "prefill-str-model",
        "prefill-none-model",
        "prefill-shared-str-model",
        "reference-none-model",
        "greedy-str-model",
        "decode-str-model",
        "decode-str-cache",
        "decode-none-cache",
        "decode-cache-of-another-shape",
        "decode-cache-built-for-another-config",
    ],
)
def test_forward_entry_points_reject_a_malformed_model_or_cache(
    tiny_model, clean_model, call, error
):
    """A model that is not a ``Model``, a cache that is not a ``KvCache`` and
    a cache built for another model's shape raise typed errors, never a raw
    AttributeError or numpy broadcast error, and write nothing."""
    layout = scene_layout(tiny_model, np.random.default_rng(15))
    cache = prefill(tiny_model, layout).cache
    with pytest.raises(error):
        call(tiny_model, clean_model, layout, cache)
    assert cache.length == layout.length


def test_decode_step_keeps_a_row_only_when_the_step_completes(tiny_model):
    """The forward pass starts at the cache's length and advances it once
    every layer has run: N decode steps after a prefill leave the prompt
    length + N, and a step that hits ``CapacityError`` or whose hook raises
    in ``correction`` leaves the length, and what later steps compute, as
    they were."""
    layout = scene_layout(tiny_model, np.random.default_rng(16))
    cache = prefill(tiny_model, layout).cache
    assert cache.length == layout.length
    for n in range(1, 6):
        decode_step(tiny_model, cache, 3)
        assert cache.length == layout.length + n
    while cache.length < cache.capacity:
        decode_step(tiny_model, cache, 3)
    with pytest.raises(CapacityError):
        decode_step(tiny_model, cache, 3)
    assert cache.length == cache.capacity

    config = VgaConfig(guidance_source="even", end_layer=tiny_model.config.n_layers)
    session = new_session(tiny_model, config)
    result = prefill(tiny_model, layout, hook=session)
    twin = prefill(tiny_model, layout, hook=new_session(tiny_model, config))

    def failing_correction(*args):
        raise RuntimeError("hook failed")

    session.correction = failing_correction
    with pytest.raises(RuntimeError):
        decode_step(tiny_model, result.cache, 3, hook=session)
    assert result.cache.length == layout.length
    after = decode_step(tiny_model, result.cache, 4)
    assert after.tobytes() == decode_step(tiny_model, twin.cache, 4).tobytes()
    assert result.cache.length == layout.length + 1


@pytest.mark.parametrize("kernel", [attention_explicit, attention_fused])
@pytest.mark.parametrize("dtype", [np.complex128, object, np.str_, np.bool_])
def test_kernels_take_real_numbers_only(kernel, dtype):
    """A complex q, k or v is not cast to its real part, and an object,
    string or bool array is no attention input: each raises ``InvalidInput``.
    Integer arrays are real numbers and pass."""
    q, k, v = random_qkv(np.random.default_rng(17), 2, 3, 2, 4)
    for i in range(3):
        args = [q, k, v]
        args[i] = args[i].astype(dtype)
        with pytest.raises(InvalidInput):
            kernel(*args)
    kernel(*(np.rint(4 * a).astype(np.int64) for a in (q, k, v)))


@pytest.mark.parametrize(
    "ids, start, end, error",
    [
        ((1.5, 2, 3), 0, 1, InvalidInput),  # not truncated to 1
        ((True, 2, 3), 0, 1, InvalidInput),  # not read as 1
        (("a", 2, 3), 0, 1, InvalidInput),
        ((10**30, 2, 3), 0, 1, InvalidInput),  # does not fit the forward's int64 ids
        ((1, 2, 3), 0.5, 1, ShapeError),
        ((1, 2, 3), 0, True, ShapeError),
    ],
    ids=["float-id", "bool-id", "str-id", "huge-id", "float-start", "bool-end"],
)
def test_layout_rejects_malformed_prompts(tiny_model, ids, start, end, error):
    with pytest.raises(error):
        prefill(tiny_model, SequenceLayout(ids, start, end))


def test_layout_stores_numpy_integers_as_ints():
    layout = SequenceLayout((np.int64(1), 2, np.uint8(3)), np.int32(0), np.int64(1))
    assert layout == SequenceLayout((1, 2, 3), 0, 1)
    assert all(type(t) is int for t in layout.token_ids + (layout.visual_start, layout.visual_end))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    source=st.sampled_from(["vsc", "even", "ground_truth", "vss"]),
    mode=st.sampled_from(["vqa", "caption"]),
    disable=st.sampled_from(["beta", "range"]),
    data=st.data(),
)
def test_disabled_guidance_is_a_byte_exact_no_op(seed, source, mode, disable, data):
    """beta = 0 (over any layer range) and an empty layer range (at any
    beta) change no byte of ``prefill``, ``prefill_shared`` or cached
    decode, on random models and prompts."""
    model = build_random_model(seed)
    rng = np.random.default_rng(seed)
    n_layers = model.config.n_layers
    start = data.draw(st.integers(0, n_layers), label="start")
    if disable == "beta":
        end = data.draw(st.integers(start, n_layers), label="end")
        beta = 0.0
    else:
        end = start
        beta = data.draw(st.floats(0.01, 2.0), label="beta")
    config = VgaConfig(
        beta=beta, start_layer=start, end_layer=end, mode=mode, guidance_source=source
    )
    first = scene_layout(model, rng)
    e = first.visual_end
    layouts = [first] + [
        SequenceLayout(first.token_ids[:e] + scene_layout(model, rng).token_ids[e:], 1, e)
        for _ in range(2)
    ]
    vocab = model.vocab
    questions = [f"is there a {vocab.word_of(layout.token_ids[e])} ?" for layout in layouts]
    masks = [MaskAnnotation("x", rng.random(layout.n_visual)) for layout in layouts]

    plain = prefill_shared(model, layouts)
    guided = prefill_shared(model, layouts, VgaSession(model, config, questions, masks))
    assert guided.tobytes() == plain.tobytes()

    plain = prefill(model, first)
    session = new_session(model, config, questions[0], masks[0])
    guided = prefill(model, first, hook=session)
    assert guided.last_logits.tobytes() == plain.last_logits.tobytes()
    logits = plain.last_logits
    for _ in range(3):
        token = int(np.argmax(logits))
        session.on_token(token)
        logits = decode_step(model, plain.cache, token)
        assert decode_step(model, guided.cache, token, hook=session).tobytes() == logits.tobytes()


def test_greedy_is_deterministic_and_bounded(tiny_model):
    rng = np.random.default_rng(6)
    layout = scene_layout(tiny_model, rng)
    other = scene_layout(tiny_model, rng)
    assert other.token_ids[: other.visual_end] != layout.token_ids[: layout.visual_end]
    prefill(tiny_model, other)  # the model's prefix memo now holds other patches
    rows_before = forward_rows_count()
    first = greedy_generate(tiny_model, layout, max_len=7)
    assert 1 <= len(first) <= 7
    # The token that fills max_len is not fed back: n tokens cost n - 1 steps.
    assert tiny_model.vocab.eos_id not in first
    assert forward_rows_count() - rows_before == layout.length + len(first) - 1
    # The second run takes the prefix from the memo: only the tail and the
    # decode steps run, to the same tokens.
    rows_before = forward_rows_count()
    second = greedy_generate(tiny_model, layout, max_len=7)
    assert first == second
    tail = layout.length - layout.visual_end
    assert forward_rows_count() - rows_before == tail + len(first) - 1
    rows_before = forward_rows_count()
    greedy_generate(tiny_model, layout, max_len=1)
    assert forward_rows_count() - rows_before == tail
    for max_len in (0, 2.5, True, "1"):
        with pytest.raises(InvalidInput):
            greedy_generate(tiny_model, layout, max_len=max_len)


def test_greedy_stops_at_eos(clean_model, scenes12):
    from vgalab.evalkit import build_vqa_layout

    q = scenes12[0].questions[0]
    layout = build_vqa_layout(clean_model, scenes12[0], q.word)
    tokens = greedy_generate(clean_model, layout, max_len=32)
    assert tokens[-1] == clean_model.vocab.eos_id
    assert len(tokens) < 32


def test_forward_row_counter_tracks_rows(tiny_model):
    rng = np.random.default_rng(7)
    layout = scene_layout(tiny_model, rng)
    other = scene_layout(tiny_model, rng)
    assert other.token_ids[: other.visual_end] != layout.token_ids[: layout.visual_end]
    prefill(tiny_model, other)
    rows_before = forward_rows_count()
    prefill(tiny_model, layout)
    assert forward_rows_count() - rows_before == layout.length


def test_prefix_rejects_other_prompts_and_stays_read_only(tiny_model):
    rng = np.random.default_rng(9)
    layout = scene_layout(tiny_model, rng)
    other = scene_layout(tiny_model, rng)
    assert other.token_ids[: other.visual_end] != layout.token_ids[: layout.visual_end]
    shorter = SequenceLayout(layout.token_ids, layout.visual_start - 1, layout.visual_end - 1)
    longer_tail = SequenceLayout(
        layout.token_ids + (tiny_model.vocab.eos_id,), layout.visual_start, layout.visual_end
    )
    for layouts in (
        [layout, other],  # other patches
        [layout, shorter],  # other prefix length
        [layout, longer_tail],  # unequal tails
        [],
    ):
        with pytest.raises(InvalidInput):
            prefill_shared(tiny_model, layouts)
    for config in (  # one session entry per prompt, whether or not it guides
        VgaConfig(guidance_source="even"),
        VgaConfig(guidance_source="none"),
        VgaConfig(guidance_source="even", beta=0.0),
    ):
        with pytest.raises(ShapeError):
            prefill_shared(tiny_model, [layout] * 2, new_session(tiny_model, config))
    with pytest.raises(ValueError):
        prefill(tiny_model, layout).visual_logits[0] = 1.0

    class Scribbler:
        """Guides as ``session`` does, after trying to write into every
        array it is handed."""

        def __init__(self, session):
            self.session = session
            self.guided_layers = session.guided_layers
            self.corrections = 0

        def on_visual(self, visual_logits, layouts):
            with pytest.raises(ValueError):
                visual_logits[:] = 0.0
            self.session.on_visual(visual_logits, layouts)

        def correction(self, layer, z_last, v_shared):
            with pytest.raises(ValueError):
                v_shared[:] = -1.0
            self.corrections += 1
            return self.session.correction(layer, z_last, v_shared)

        def on_token(self, token_id):
            self.session.on_token(token_id)

    # ground truth guides entries 0 and 2 and leaves entry 1's absent object alone
    m = layout.n_visual
    masks = [
        MaskAnnotation("dog", np.eye(m)[0]),
        MaskAnnotation("cat", np.zeros(m)),
        MaskAnnotation("car", np.full(m, 0.5)),
    ]
    config = VgaConfig(guidance_source="ground_truth")
    for n in (1, 3):  # B = 1 extends the cache the hook's view reads, B > 1 does not
        sessions = [VgaSession(tiny_model, config, [""] * n, masks[:n]) for _ in range(2)]
        plain = prefill_shared(tiny_model, [layout] * n, sessions[0])
        scribbler = Scribbler(sessions[1])
        rows = prefill_shared(tiny_model, [layout] * n, scribbler)
        assert scribbler.corrections == len(sessions[1].guided_layers) > 0
        assert rows.tobytes() == plain.tobytes()
        for row, mask in zip(rows, masks):
            alone = prefill(tiny_model, layout, hook=new_session(tiny_model, config, gt_mask=mask))
            assert row.tobytes() == alone.last_logits.tobytes()
    assert len({row.tobytes() for row in rows}) == 3  # each entry got its own grounding


def test_record_attention_profiles_every_layer(tiny_model):
    """``record_attention`` runs the oracle and keeps no cache; the BOS
    attention of every layer comes from ``bos_profile``."""
    rng = np.random.default_rng(8)
    layout = scene_layout(tiny_model, rng)
    result = prefill(tiny_model, layout, record_attention=True)
    whole, bos = reference_forward(tiny_model, layout)
    assert result.cache is None
    assert result.last_logits.tobytes() == whole[-1].tobytes()
    assert result.visual_logits.tobytes() == whole[layout.visual_start : layout.visual_end].tobytes()
    assert bos_profile(tiny_model, layout) == bos
    assert len(bos) == tiny_model.config.n_layers
    assert all(0.0 <= a <= 1.0 for a in bos)


def test_random_models_vary_with_seed():
    a = build_random_model(1)
    b = build_random_model(2)
    assert not np.allclose(a.embed_tok, b.embed_tok)
