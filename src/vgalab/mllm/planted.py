"""Constructed-weight models with plantable visual semantics.

``build_planted_model`` assembles a decoder whose behavior is engineered
rather than trained, so every downstream quantity has a known ground
truth:

* Patch tokens embed along the unembedding direction of their object's
  text word, so a patch covered by "dog" unembeds to "dog" (argmax) with
  high softmax confidence. Background textures are low-norm noise whose
  logits stay flat.
* Layer 1 copies the question word's identity into the final prompt row:
  the question-mark token attends to text-word positions and deposits the
  word's identity into a private subspace that no unembedding column sees.
* Layer 2 routes the final row's attention to patches matching the copied
  identity (or, for caption prompts, runs a salience scan over all
  patches), with a constant-score attention sink on BOS as the default
  target. Patch values carry a shared presence direction (read out as
  yes/no) and a per-object identity (read out as that word's logit); the
  BOS value carries the absence direction.
* Layers 3+ are attention sinks of increasing strength onto BOS and move
  almost nothing, so BOS attention at the final row climbs toward 1.0 in
  the upper half of the stack. (The copy layer also parks rows that have
  nothing to copy on BOS; without that sink, generated caption words
  would slowly re-copy their own identities out of the growing context
  and re-inflate objects the decay mechanism had already drained.)

``sigma`` adds seeded Gaussian noise to every key projection at build
time. Patch-row queries are near zero, so their attention (and hence the
per-patch vocabulary logits) stays clean, while copy/routing scores at
the answer row degrade: localization fails before recognition does, which
is exactly the gap attention guidance can close.

All structure lives on an orthonormal basis (QR of a seeded Gaussian), so
couplings are exact at sigma = 0 up to the deliberate noise floor; scale
constants below are score/logit targets, converted to weights using the
actual embedding coefficients at build time.

The shape is fixed, because the constants are tuned for it: 6 layers,
4 heads, d_model 96, d_ff 192, 256 positions and an 8x8 patch grid, on
``make_vocab()``'s default table (the one ``make_scenes`` samples from).
``sigma`` is the only knob.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSpec, require_real, require_seed
from ..vocab import DEFAULT_OBJECT_WORDS, make_vocab
from .config import ModelConfig
from .core import LayerWeights, Model


@dataclass(frozen=True)
class PlantedSpec:
    """What to plant: the key-noise level sigma (a finite real >= 0)."""

    sigma: float = 0.0


@dataclass(frozen=True)
class _Gains:
    """Score/logit targets for the constructed circuitry (tuned, not learned)."""

    u_gain: float = 9.0          # unembedding column scale
    copy_score: float = 12.0     # question mark -> question word attention score
    copy_coef: float = 0.55      # identity mass deposited into the final row
    # The copy layer needs its own BOS sink: with flat scores the uniform
    # leak over accumulated generated-word rows would slowly re-copy their
    # identities into every new row and re-probe drained objects.
    sink_copy: float = 7.0
    match_score: float = 14.0    # final row -> matching patch score
    neg_score: float = 4.0       # subtracted from every patch for question rows
    sink_route: float = 6.0      # BOS sink score in the routing layer
    scan_base: float = 3.0       # caption row -> any patch base score
    # Tail sinks are calibrated against the nominal sink-query coefficient;
    # answer-row residual growth dilutes it, so the raw targets overshoot.
    sink_lo: float = 8.0
    sink_hi: float = 14.0
    presence_logit: float = 20.0  # yes-push when all attention sits on patches
    absence_logit: float = 3.2   # no-push when all attention sits on BOS
    word_logit: float = 10.0     # per-object word push at full attention mass
    alive_coef: float = 1.5      # normalized coefficient of the shared sink-query dir
    # Symmetric yes/no bias at the question row: when noise destroys the
    # routing signal the answer degrades to a coin flip between yes and
    # no instead of an arbitrary vocabulary word.
    answer_prior_mix: float = 0.10
    eos_drip_mix: float = 0.028  # baseline EOS logit at caption rows
    suppress_mix: float = 0.45   # yes/no suppression at caption rows
    t_anchor_mix: float = 0.35
    v_anchor_mix: float = 0.30
    bg_norm: float = 0.28        # raw norm of background texture embeddings
    bg_v_anchor: float = 0.08
    texture_leak: float = 0.004  # background bleed onto word/answer columns
    pos_norm: float = 0.03       # positional noise row norm
    noise: float = 0.02          # base weight noise (all matrices)
    head_skew: tuple[float, ...] = (-0.24, -0.08, 0.08, 0.24)


def _orthonormal_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _validate(spec: PlantedSpec) -> None:
    if not isinstance(spec, PlantedSpec):
        raise InvalidSpec(f"expected a PlantedSpec, got {type(spec).__name__}")
    sigma = require_real(spec.sigma, "sigma", InvalidSpec)
    if not np.isfinite(sigma) or sigma < 0:
        raise InvalidSpec(f"sigma must be finite and >= 0, got {sigma!r}")


def build_planted_model(spec: PlantedSpec, seed: int) -> Model:
    """Deterministically construct a planted model; same inputs, same bits.
    ``seed`` is an int >= 0."""
    _validate(spec)
    seed = require_seed(seed, InvalidSpec)
    g = _Gains()
    vocab = make_vocab()
    config = ModelConfig(
        n_layers=6, n_heads=4, d_model=96, d_ff=192,
        vocab_size=vocab.size, max_seq_len=256, grid=(8, 8),
    )

    rng = np.random.default_rng(seed)
    # Key noise comes from its own stream so a noisy build shares every
    # tensor except the key projections with the sigma=0 build bit for bit.
    key_noise_rng = np.random.default_rng([seed, 0x5EED])
    d = config.d_model
    n_obj = vocab.n_objects
    n_heads = config.n_heads
    d_head = config.d_head
    v_size = vocab.size
    sqrt_d = np.sqrt(d)
    sqrt_dh = np.sqrt(d_head)
    basis = _orthonormal_basis(rng, d)

    # Basis direction indices. 0..V-1 double as unembedding columns.
    def col(token_id: int) -> int:
        return token_id

    copy_dir = lambda o: v_size + o                 # text-word identity (values only)
    qcontent_dir = lambda o: v_size + n_obj + o     # copied identity at the answer row
    v_anchor = v_size + 2 * n_obj
    t_anchor = v_anchor + 1
    qm_anchor = v_anchor + 2
    cap_anchor = v_anchor + 3
    alive = v_anchor + 4
    # Answer rows get private identities: if "yes" embedded along its own
    # unembedding column, a generated answer would feed its own logit and
    # lock the decode loop.
    yes_row = v_anchor + 5
    no_row = v_anchor + 6

    skew = np.asarray(g.head_skew, dtype=np.float64)  # one share per head
    skew = skew - skew.mean()  # zero-mean so per-head sums calibrate exactly

    # ---- embeddings ---------------------------------------------------------
    embed = np.zeros((v_size, d))

    def row(main_dir: int, parts: list[tuple[int, float]]) -> np.ndarray:
        out = np.zeros(d)
        budget = 1.0
        for direction, mix in parts:
            out += mix * basis[:, direction]
            budget -= mix * mix
        out += np.sqrt(budget) * basis[:, main_dir]
        return out

    alive_mix = g.alive_coef / sqrt_d
    embed[vocab.bos_id] = row(col(vocab.bos_id), [(alive, alive_mix)])
    embed[vocab.eos_id] = row(col(vocab.eos_id), [(alive, alive_mix)])
    # Answer rows sink to BOS in the routing layer and therefore pick up
    # the absence push like any idle row; the suppression mixes keep that
    # from re-electing an answer word, so EOS follows an answer.
    answer_parts = [
        (alive, alive_mix),
        (col(vocab.eos_id), g.eos_drip_mix),
        (col(vocab.yes_id), -g.suppress_mix),
        (col(vocab.no_id), -g.suppress_mix),
    ]
    embed[vocab.yes_id] = row(yes_row, answer_parts)
    embed[vocab.no_id] = row(no_row, answer_parts)
    # The copied identity inflates the answer row's norm before the routing
    # layer; give its sink-query component a matching head start.
    post_copy_norm = np.sqrt(1.0 + g.copy_coef**2)
    embed[vocab.qmark_id] = row(
        qm_anchor,
        [
            (alive, alive_mix * post_copy_norm),
            (col(vocab.yes_id), g.answer_prior_mix),
            (col(vocab.no_id), g.answer_prior_mix),
        ],
    )
    embed[vocab.caption_id] = row(
        cap_anchor,
        [
            (alive, alive_mix),
            (col(vocab.eos_id), g.eos_drip_mix),
            (col(vocab.yes_id), -g.suppress_mix),
            (col(vocab.no_id), -g.suppress_mix),
        ],
    )
    for o, word in enumerate(vocab.object_words):
        embed[vocab.id_of(word)] = row(
            copy_dir(o),
            [
                (t_anchor, g.t_anchor_mix),
                (alive, alive_mix),
                (col(vocab.eos_id), g.eos_drip_mix),
                (col(vocab.yes_id), -g.suppress_mix),
                (col(vocab.no_id), -g.suppress_mix),
            ],
        )
        embed[vocab.patch_token_of(word)] = row(
            col(vocab.id_of(word)),
            [(v_anchor, g.v_anchor_mix), (alive, alive_mix)],
        )
    # Background textures live in the spare subspace plus their own
    # unembedding column (so each texture has a distinct, mild top-1) with
    # only a controlled bleed onto the structured columns; uncontrolled
    # full-space noise would get amplified by normalization of these
    # low-norm rows and drown the routing channels.
    spare_lo = alive + 1
    leak_dirs = [col(i) for i in vocab.object_ids] + [col(vocab.yes_id), col(vocab.no_id)]
    for bg_id in vocab.background_ids:
        tex_dirs = [col(bg_id)] + list(range(spare_lo, d))
        w = rng.normal(size=len(tex_dirs))
        w[0] = abs(w[0]) + 1.0
        w /= np.linalg.norm(w)
        texture = basis[:, tex_dirs] @ w
        leak = basis[:, leak_dirs] @ rng.normal(scale=g.texture_leak, size=len(leak_dirs))
        embed[bg_id] = (
            g.bg_norm * texture
            + g.bg_v_anchor * basis[:, v_anchor]
            + g.alive_coef * (g.bg_norm / sqrt_d) * basis[:, alive]
            + leak
        )

    embed_pos = rng.normal(scale=g.pos_norm / sqrt_d, size=(config.max_seq_len, d))

    unembed = g.u_gain * basis[:, :v_size]

    # ---- post-norm coefficient table (exact at sigma=0, noise floor aside) --
    def coef(token_id: int, direction: int, norm_override: float | None = None) -> float:
        e = embed[token_id]
        norm = norm_override if norm_override is not None else np.linalg.norm(e)
        return sqrt_d * float(e @ basis[:, direction]) / norm

    any_patch = vocab.patch_token_ids[0]
    any_word = vocab.object_ids[0]
    c_word_patch = coef(any_patch, col(any_word))        # patch row, word column dir
    c_vanchor_patch = coef(any_patch, v_anchor)
    c_tanchor_word = coef(any_word, t_anchor)
    c_copy_word = coef(any_word, copy_dir(0))
    c_qm_l1 = coef(vocab.qmark_id, qm_anchor)
    c_qm_l2 = coef(vocab.qmark_id, qm_anchor, norm_override=post_copy_norm)
    c_bq_l2 = sqrt_d * g.copy_coef / post_copy_norm
    c_cap = coef(vocab.caption_id, cap_anchor)
    c_bos = coef(vocab.bos_id, col(vocab.bos_id))
    c_alive = g.alive_coef

    # ---- weight assembly helpers -------------------------------------------
    def fresh(shape: tuple[int, int]) -> np.ndarray:
        return rng.normal(scale=g.noise / sqrt_d, size=shape)

    def qk_pair(cq, ck, q_dir, k_dir, slot, target, coef_q, coef_k) -> float:
        """Couple q_dir x k_dir on a head slot so the score equals target.

        Returns the q-side weight so extra key sources can join the slot.
        """
        w = np.sqrt(abs(target) * sqrt_dh / (coef_q * coef_k))
        qw = np.sign(target) * w
        for h in range(n_heads):
            cq[q_dir, h * d_head + slot] += qw
            ck[k_dir, h * d_head + slot] += w
        return qw

    def value_path(cv, co, sources, slot, dst_dirs, target, *, to_logits=True):
        """Attention mass on rows carrying any one source pushes the dst dirs.

        ``sources`` is a list of (direction, post-norm coefficient); the
        output weight is shared across sources so each contributes the
        same calibrated push. ``target`` is in logit units unless
        ``to_logits`` is off (then it is a raw residual coefficient).
        Heads carry skewed shares of the total so per-head guidance
        similarity varies while the sum stays calibrated.
        """
        scale = g.u_gain if to_logits else 1.0
        ref_coef = sources[0][1]
        for h in range(n_heads):
            share = target * (1.0 + skew[h]) / (n_heads * scale)
            co_w = np.sqrt(share / ref_coef)
            for src_dir, coef_src in sources:
                cv[src_dir, h * d_head + slot] += share / (co_w * coef_src)
            for dst, sign in dst_dirs:
                co[h * d_head + slot, dst] += sign * co_w

    layers = []
    probe_slot = lambda o: o
    neg_slot = n_obj
    sel_slot = n_obj + 1
    sink_slot = n_obj + 2
    ident_slot = lambda o: o
    pres_slot = n_obj
    nn_slot = n_obj + 1

    sink_targets = np.linspace(g.sink_lo, g.sink_hi, config.n_layers - 3)

    for layer_idx in range(config.n_layers):
        cq = np.zeros((d, d))
        ck = np.zeros((d, d))
        cv = np.zeros((d, d))
        co = np.zeros((d, d))

        if layer_idx == 1:
            # Copy layer: the question mark reads the question word.
            qk_pair(cq, ck, qm_anchor, t_anchor, 0, g.copy_score, c_qm_l1, c_tanchor_word)
            qk_pair(
                cq, ck, alive, col(vocab.bos_id), d_head - 1,
                g.sink_copy, c_alive, c_bos,
            )
            for o in range(n_obj):
                # identity -> private subspace, calibrated in residual units
                value_path(
                    cv, co, [(copy_dir(o), c_copy_word)], 1 + o,
                    [(qcontent_dir(o), 1.0)], g.copy_coef, to_logits=False,
                )
        elif layer_idx == 2:
            # Routing layer: identity-matched patch lookup with a BOS sink.
            for o in range(n_obj):
                qk_pair(
                    cq, ck, qcontent_dir(o), col(vocab.object_ids[o]),
                    probe_slot(o), g.match_score, c_bq_l2, c_word_patch,
                )
            qk_pair(cq, ck, qm_anchor, v_anchor, neg_slot, -g.neg_score, c_qm_l2, c_vanchor_patch)
            qk_pair(cq, ck, cap_anchor, v_anchor, sel_slot, g.scan_base, c_cap, c_vanchor_patch)
            qk_pair(cq, ck, alive, col(vocab.bos_id), sink_slot, g.sink_route, c_alive, c_bos)

            word_sources = [
                (col(vocab.object_ids[o]), c_word_patch) for o in range(n_obj)
            ]
            for o in range(n_obj):
                value_path(
                    cv, co, [word_sources[o]], ident_slot(o),
                    [(col(vocab.object_ids[o]), 1.0)], g.word_logit,
                )
            value_path(
                cv, co, word_sources, pres_slot,
                [(col(vocab.yes_id), 1.0), (col(vocab.no_id), -1.0)],
                g.presence_logit,
            )
            value_path(
                cv, co, [(col(vocab.bos_id), c_bos)], nn_slot,
                [(col(vocab.no_id), 1.0), (col(vocab.yes_id), -1.0)],
                g.absence_logit,
            )
        elif layer_idx >= 3:
            qk_pair(
                cq, ck, alive, col(vocab.bos_id), 0,
                float(sink_targets[layer_idx - 3]), c_alive, c_bos,
            )

        wq = basis @ cq + fresh((d, d))
        wk = basis @ ck + fresh((d, d))
        wv = basis @ cv + fresh((d, d))
        wo = co @ basis.T + fresh((d, d))
        if spec.sigma > 0:
            wk = wk + key_noise_rng.normal(scale=spec.sigma / sqrt_d, size=(d, d))

        layers.append(
            LayerWeights(
                wq=wq.astype(np.float32),
                wk=wk.astype(np.float32),
                wv=wv.astype(np.float32),
                wo=wo.astype(np.float32),
                norm1=(1.0 + rng.normal(scale=0.01, size=d)).astype(np.float32),
                norm2=(1.0 + rng.normal(scale=0.01, size=d)).astype(np.float32),
                mlp_w1=fresh((d, config.d_ff)).astype(np.float32),
                mlp_w2=fresh((config.d_ff, d)).astype(np.float32),
            )
        )

    return Model(
        config=config,
        vocab=vocab,
        embed_tok=embed.astype(np.float32),
        embed_pos=embed_pos.astype(np.float32),
        layers=tuple(layers),
        unembed=unembed.astype(np.float32),
    )


def build_random_model(seed: int) -> Model:
    """Small unstructured model for fuzzing the machinery (no semantics).

    Fixed shape: 2 layers, 2 heads, d_model 32, d_ff 64, 64 positions and
    a 2x2 grid, on the first 3 object words with 3 background textures.
    ``seed`` is an int >= 0.
    """
    rng = np.random.default_rng(require_seed(seed, InvalidSpec))
    vocab = make_vocab(DEFAULT_OBJECT_WORDS[:3], n_background=3)
    config = ModelConfig(
        n_layers=2, n_heads=2, d_model=32, d_ff=64,
        vocab_size=vocab.size, max_seq_len=64, grid=(2, 2),
    )
    d = config.d_model
    scale = 0.5 / np.sqrt(d)

    def w(shape):
        return rng.normal(scale=scale, size=shape).astype(np.float32)

    layers = tuple(
        LayerWeights(
            wq=w((d, d)),
            wk=w((d, d)),
            wv=w((d, d)),
            wo=w((d, d)),
            norm1=(1.0 + rng.normal(scale=0.05, size=d)).astype(np.float32),
            norm2=(1.0 + rng.normal(scale=0.05, size=d)).astype(np.float32),
            mlp_w1=w((d, config.d_ff)),
            mlp_w2=w((config.d_ff, d)),
        )
        for _ in range(config.n_layers)
    )
    return Model(
        config=config,
        vocab=vocab,
        embed_tok=rng.normal(scale=0.8, size=(vocab.size, d)).astype(np.float32),
        embed_pos=rng.normal(scale=0.1, size=(config.max_seq_len, d)).astype(np.float32),
        layers=layers,
        unembed=rng.normal(scale=0.8, size=(d, vocab.size)).astype(np.float32),
    )
