"""Step-by-step trace of guided caption decoding with token-level decay."""
import numpy as np

from vgalab.mllm.core import SequenceLayout, decode_step, prefill
from vgalab.mllm.planted import PlantedSpec, build_planted_model
from vgalab.vga import VgaConfig, new_session

model = build_planted_model(PlantedSpec(), seed=7)
vocab = model.vocab
grid = model.config.grid
n_patches = grid[0] * grid[1]

patch_words = []
for i in range(n_patches):
    if i < 6:
        patch_words.append(vocab.patch_token_of("dog"))
    elif 20 <= i < 24:
        patch_words.append(vocab.patch_token_of("cat"))
    else:
        patch_words.append(vocab.background_ids[i % len(vocab.background_ids)])

tokens = [vocab.bos_id] + patch_words + [vocab.caption_id]
layout = SequenceLayout(
    token_ids=tuple(tokens), visual_start=1, visual_end=1 + n_patches
)

cfg = VgaConfig(mode="caption", guidance_source="auto")
session = new_session(model, cfg)
pre = prefill(model, layout, hook=session)

dog_col = vocab.id_of("dog")
cat_col = vocab.id_of("cat")
logits = pre.last_logits
for step in range(40):
    tok = int(np.argmax(logits))
    g = session.groundings[0]
    dog_g = float(np.sum(g.weights[:6])) if g is not None else -1.0
    cat_g = float(np.sum(g.weights[20:24])) if g is not None else -1.0
    rho = g.rho if g is not None else -1.0
    print(
        f"step {step:2d} -> {vocab.word_of(tok):8s} "
        f"dog={logits[dog_col]:6.2f} cat={logits[cat_col]:6.2f} "
        f"yes={logits[vocab.yes_id]:6.2f} eos={logits[vocab.eos_id]:6.2f} "
        f"dog_g={dog_g:.3f} cat_g={cat_g:.3f} rho={rho:.2f}"
    )
    session.on_token(tok)
    if tok == vocab.eos_id:
        print("terminated.")
        break
    logits = decode_step(model, pre.cache, tok, hook=session)
else:
    print("NO TERMINATION in 40 steps")
