"""Interactive calibration probe for the planted model (not shipped logic).

Prints the quantities the construction is supposed to pin down so the
gain constants can be tuned: patch-row argmax, VSC confidences, routing
attention masses, answer logits, BOS profile, caption push trajectory.
"""
import numpy as np

from vgalab import PlantedSpec, build_planted_model
from vgalab.grounding import image_confidence, object_grounding, vsc_vector, vss
from vgalab.mllm import SequenceLayout, prefill
from vgalab.vga import bos_profile

np.set_printoptions(precision=3, suppress=True, linewidth=120)

model = build_planted_model(PlantedSpec(), seed=7)
vocab = model.vocab
m = model.config.n_patches

# scene: dog occupies patches 0..5, cat patches 20..23, rest background
patches = [vocab.background_ids[i % len(vocab.background_ids)] for i in range(m)]
for i in range(6):
    patches[i] = vocab.patch_token_of("dog")
for i in range(20, 24):
    patches[i] = vocab.patch_token_of("cat")


def vqa_layout(word):
    ids = [vocab.bos_id] + patches + [vocab.id_of(word), vocab.qmark_id]
    return SequenceLayout(token_ids=tuple(ids), visual_start=1, visual_end=1 + m)


def cap_layout():
    ids = [vocab.bos_id] + patches + [vocab.caption_id]
    return SequenceLayout(token_ids=tuple(ids), visual_start=1, visual_end=1 + m)


res = prefill(model, vqa_layout("dog"))
vl = res.visual_logits

print("== visual rows ==")
argmaxes = np.argmax(vl, axis=1)
dog_ok = all(argmaxes[i] == vocab.id_of("dog") for i in range(6))
cat_ok = all(argmaxes[i] == vocab.id_of("cat") for i in range(20, 24))
print(f"patch argmax dog rows correct: {dog_ok}, cat rows correct: {cat_ok}")
print(f"bg argmax sample ids: {argmaxes[[8, 30, 50]]} (bg ids are >= {vocab.background_ids[0]})")
print(f"vsc(dog) on dog patches: {vsc_vector(vl, vocab.id_of('dog'))[:6]}")
print(f"image_confidence dog={image_confidence(vl, vocab.id_of('dog')):.4f} "
      f"cat={image_confidence(vl, vocab.id_of('cat')):.4f} "
      f"tree(absent)={image_confidence(vl, vocab.id_of('tree')):.5f}")

g_dog = object_grounding(vl, vocab.id_of("dog"))
print(f"grounding(dog) mass on dog patches: {g_dog.weights[:6].sum():.3f}, rho={g_dog.rho:.3f}")
g_tree = object_grounding(vl, vocab.id_of("tree"))
obj_idx = list(range(6)) + list(range(20, 24))
bg_idx = [i for i in range(m) if i not in obj_idx]
print(f"grounding(tree/absent) bg mass: {g_tree.weights[bg_idx].sum():.3f}")

sal = vss(vl)
print(f"vss object mass: {sal.weights[obj_idx].sum():.3f} "
      f"(dog {sal.weights[:6].sum():.3f} cat {sal.weights[20:24].sum():.3f})")
raw_sal = -np.sort(-vl, axis=1)  # just to show raw value scale
print(f"answer logits: yes={res.last_logits[vocab.yes_id]:.2f} no={res.last_logits[vocab.no_id]:.2f} "
      f"dog={res.last_logits[vocab.id_of('dog')]:.2f} cat={res.last_logits[vocab.id_of('cat')]:.2f} "
      f"eos={res.last_logits[vocab.eos_id]:.2f}")
print(f"present answer argmax: {vocab.word_of(int(np.argmax(res.last_logits)))}")

res_abs = prefill(model, vqa_layout("tree"))
la = res_abs.last_logits
print(f"absent: yes={la[vocab.yes_id]:.2f} no={la[vocab.no_id]:.2f} argmax={vocab.word_of(int(np.argmax(la)))}")

print("\n== bos profile (vqa prompt) ==")
print(np.asarray(bos_profile(model, vqa_layout("dog"))))
print("== bos profile (caption prompt) ==")
print(np.asarray(bos_profile(model, cap_layout())))

print("\n== caption row ==")
res_cap = prefill(model, cap_layout())
lc = res_cap.last_logits
words = ["dog", "cat", "tree"]
print("cap-row logits: " + " ".join(f"{w}={lc[vocab.id_of(w)]:.2f}" for w in words)
      + f" eos={lc[vocab.eos_id]:.2f} yes={lc[vocab.yes_id]:.2f} no={lc[vocab.no_id]:.2f}")
print(f"cap argmax: {vocab.word_of(int(np.argmax(lc)))}")
