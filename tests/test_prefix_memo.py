"""The model's prefix memo: a prompt whose visual prefix the model ran last
skips it, with the bytes a run of the prefix gives, and the uncached
oracle agrees with both."""
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vgalab.evalkit import build_caption_layout, build_vqa_layout, question_text
from vgalab.mllm import (
    SequenceLayout,
    build_random_model,
    decode_step,
    forward_rows_count,
    load_model,
    prefill,
    prefill_shared,
    reference_forward,
    save_model,
)
from vgalab.vga import VgaConfig, VgaSession, new_session

LOGIT_TOL = 1e-8
CAPTION_TOKENS = 48  # the benchmark's caption max_len
SOURCES = ("none", "vsc", "even", "ground_truth")


def cold_then_warm(model, other, run):
    """``run()`` right after a prompt on other patches (a miss), then again
    (a hit): (miss result, hit result, miss rows, hit rows)."""
    prefill(model, other)
    before = forward_rows_count()
    miss = run()
    middle = forward_rows_count()
    hit = run()
    return miss, hit, middle - before, forward_rows_count() - middle


def tiny_prompt(model, patches):
    """BOS, ``patches`` as the visual span, an object word and a question mark."""
    vocab = model.vocab
    ids = (vocab.bos_id, *patches, vocab.object_ids[0], vocab.qmark_id)
    return SequenceLayout(ids, 1, 1 + len(patches))


def kept_rows(cache):
    """The bytes of every layer's key and value rows [0, length)."""
    n = cache.length
    return [rows[:n].tobytes() for side in (cache.k, cache.v) for rows in side]


def test_prefill_hit_matches_miss_and_reference(noisy_model, scenes12):
    """Vanilla and vsc-guided ``prefill``: last and visual logits and the
    cache's kept rows are the same bytes on a hit as on a miss, and both
    agree with ``reference_forward``."""
    model = noisy_model
    other = build_vqa_layout(model, scenes12[-1], scenes12[-1].questions[0].word)
    for scene in scenes12[:3]:
        word = scene.questions[0].word
        layout = build_vqa_layout(model, scene, word)
        tail = layout.length - layout.visual_end
        for config in (None, VgaConfig(guidance_source="vsc")):

            def hook():
                return None if config is None else new_session(model, config, question_text(word))

            miss, hit, miss_rows, hit_rows = cold_then_warm(
                model, other, lambda: prefill(model, layout, hook=hook())
            )
            assert (miss_rows, hit_rows) == (layout.length, tail)
            assert hit.last_logits.tobytes() == miss.last_logits.tobytes()
            assert hit.visual_logits.tobytes() == miss.visual_logits.tobytes()
            assert hit.cache.length == miss.cache.length == layout.length
            assert kept_rows(hit.cache) == kept_rows(miss.cache)
            whole = reference_forward(model, layout, hook())[0]
            np.testing.assert_allclose(hit.last_logits, whole[-1], rtol=0, atol=LOGIT_TOL)
            visual = whole[layout.visual_start : layout.visual_end]
            np.testing.assert_allclose(hit.visual_logits, visual, rtol=0, atol=LOGIT_TOL)


@pytest.mark.parametrize("source", SOURCES)
def test_shared_hit_matches_miss_and_reference(clean_model, noisy_model, scenes12, source):
    """``prefill_shared`` on a hit gives the bytes of a miss, each row
    within tolerance of its prompt's oracle."""
    config = VgaConfig(beta=0.25, guidance_source=source)
    for model in (clean_model, noisy_model):
        other = build_caption_layout(model, scenes12[-1])
        for scene in scenes12[:2]:
            layouts = [build_vqa_layout(model, scene, q.word) for q in scene.questions]
            e, n = layouts[0].visual_end, layouts[0].length

            def session(questions):
                texts = [question_text(q.word) for q in questions]
                return VgaSession(model, config, texts, [scene.objects[0]] * len(questions))

            miss, hit, miss_rows, hit_rows = cold_then_warm(
                model, other, lambda: prefill_shared(model, layouts, session(scene.questions))
            )
            assert (miss_rows, hit_rows) == (e + len(layouts) * (n - e), len(layouts) * (n - e))
            assert hit.tobytes() == miss.tobytes()
            for row, layout, q in zip(hit, layouts, scene.questions):
                want = reference_forward(model, layout, session([q]))[0][-1]
                np.testing.assert_allclose(row, want, rtol=0, atol=LOGIT_TOL)


@pytest.mark.parametrize("pvg", [False, True])
def test_caption_hit_matches_miss_and_reference(clean_model, scenes12, pvg):
    """A 48-token caption decoded from a hit is the bytes of one from a
    miss. Unguided, every step's logits agree with the oracle's recompute;
    under PVG the first step's do. A later guided step has no recompute to
    meet: the cached decode guided each generated row as it was made, and
    a recompute of the sequence guides its last row only."""
    model = clean_model
    config = VgaConfig(mode="caption", pvg_enabled=True) if pvg else None
    layout = build_caption_layout(model, scenes12[0])

    def session():
        return None if config is None else new_session(model, config)

    def caption():
        hook = session()
        result = prefill(model, layout, hook=hook)
        logits, steps = result.last_logits, []
        for _ in range(CAPTION_TOKENS):  # on past EOS, which PVG does not look at
            steps.append(logits)
            token = int(np.argmax(logits))
            if hook is not None:
                hook.on_token(token)
            logits = decode_step(model, result.cache, token, hook=hook)
        return np.array(steps)

    other = build_caption_layout(model, scenes12[1])
    miss, hit, miss_rows, hit_rows = cold_then_warm(model, other, caption)
    assert miss_rows - hit_rows == layout.visual_end
    assert hit.tobytes() == miss.tobytes()
    tokens = np.argmax(hit, axis=-1).tolist()
    for t in range(1 if pvg else CAPTION_TOKENS):
        grown = SequenceLayout(layout.token_ids + tuple(tokens[:t]), 1, layout.visual_end)
        want = reference_forward(model, grown, session())[0][-1]
        np.testing.assert_allclose(hit[t], want, rtol=0, atol=LOGIT_TOL)


def test_hit_is_unchanged_by_writes_to_an_earlier_cache(tiny_model):
    """The memo keeps its own copy: decoding on a returned cache, or
    writing through its ``k`` and ``v``, leaves a later hit as it was."""
    layout = tiny_prompt(tiny_model, (9, 10, 12, 13))
    first = prefill(tiny_model, layout)
    want = (first.last_logits.tobytes(), first.visual_logits.tobytes(), kept_rows(first.cache))
    shared = prefill_shared(tiny_model, [layout] * 2).tobytes()
    for result in (first, prefill(tiny_model, layout)):  # a miss's cache, then a hit's
        decode_step(tiny_model, result.cache, int(np.argmax(result.last_logits)))
        for side in (result.cache.k, result.cache.v):
            for rows in side:
                rows[:] = np.nan
        before = forward_rows_count()
        again = prefill(tiny_model, layout)
        assert forward_rows_count() - before == layout.length - layout.visual_end
        got = (again.last_logits.tobytes(), again.visual_logits.tobytes(), kept_rows(again.cache))
        assert got == want
        assert prefill_shared(tiny_model, [layout] * 2).tobytes() == shared


def test_visual_logits_stay_read_only(tiny_model):
    """Whether a single prompt or a batch ran the prefix, on a miss or a
    hit, the visual logits and the value rows a batch's hook reads can
    never be written, and the visual logits, which are the memo entry's,
    cannot be made writable either."""
    layout = tiny_prompt(tiny_model, (9, 10, 12, 13))
    other = tiny_prompt(tiny_model, (13, 12, 11, 9))
    seen = []

    class Reader:
        guided_layers = range(tiny_model.config.n_layers)

        def on_visual(self, visual_logits, layouts):
            seen.append(visual_logits)

        def correction(self, layer, z_last, v_cache):
            seen.append(v_cache)

        def on_token(self, token_id):
            pass

    def one():
        seen.append(prefill(tiny_model, layout).visual_logits)

    def batch():
        prefill_shared(tiny_model, [layout] * 2, Reader())

    for calls in ((one, batch, one), (batch, one, batch)):
        prefill(tiny_model, other)
        for call in calls:  # a miss, then hits
            call()
            for array in seen:
                with pytest.raises(ValueError):
                    array[0] = 1.0
            with pytest.raises(ValueError):
                seen[0].flags.writeable = True
            seen.clear()


def test_a_shifted_span_or_another_leading_token_runs_its_own_prefix(tiny_model):
    """The same ids with the visual span one row earlier, or with another
    token before the span, key another prefix: it runs, and its visual
    logits are its own span's rows."""
    layout = tiny_prompt(tiny_model, (9, 10, 12, 13))
    shifted = SequenceLayout(layout.token_ids, 0, 4)
    led = SequenceLayout((tiny_model.vocab.caption_id,) + layout.token_ids[1:], 1, 5)
    prefill(tiny_model, layout)
    for probe in (shifted, layout, led, layout):
        before = forward_rows_count()
        result = prefill(tiny_model, probe)
        assert forward_rows_count() - before == probe.length  # one entry: each evicts the last
        whole = reference_forward(tiny_model, probe)[0]
        visual = whole[probe.visual_start : probe.visual_end]
        np.testing.assert_allclose(result.visual_logits, visual, rtol=0, atol=LOGIT_TOL)
        np.testing.assert_allclose(result.last_logits, whole[-1], rtol=0, atol=LOGIT_TOL)


def test_built_and_loaded_models_never_share_an_entry(tmp_path):
    """The memo belongs to one ``Model`` instance: a model loaded from the
    built one's file runs a prefix the built one has just run, and back."""
    built = build_random_model(11)
    path = tmp_path / "m.vgm"
    save_model(built, path)
    loaded = load_model(path)
    layout = tiny_prompt(built, (9, 10, 12, 13))
    outputs = []
    for model in (built, loaded, built, loaded):
        before = forward_rows_count()
        outputs.append(prefill(model, layout).last_logits.tobytes())
        assert forward_rows_count() - before == (
            layout.length if len(outputs) <= 2 else layout.length - layout.visual_end
        )
    assert len(set(outputs)) == 1


def test_threads_swapping_the_memo_get_the_serial_bytes(noisy_model, scenes12):
    """Workers that evict each other's prefixes between lookup and use get
    the bytes of a serial run: an entry is read once and replaced whole."""
    model = noisy_model
    config = VgaConfig(beta=0.25, guidance_source="vsc")
    scenes = scenes12[:4]

    def answer(scene):
        layouts = [build_vqa_layout(model, scene, q.word) for q in scene.questions]
        session = VgaSession(model, config, [question_text(q.word) for q in scene.questions])
        shared = prefill_shared(model, layouts, session)
        alone = prefill(model, layouts[0])
        return shared.tobytes(), alone.last_logits.tobytes(), kept_rows(alone.cache)

    want = [answer(scene) for scene in scenes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(answer, scenes[i % 4]) for i in range(48)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want[i % 4] for i in range(48)]
