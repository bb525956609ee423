"""Weight container round trips and corruption handling."""
import dataclasses
import json
import struct

import numpy as np
import pytest

from vgalab.errors import FormatError, InvalidParams, IoError, ShapeError
from vgalab.mllm import Model, build_random_model, full_logits, load_model, save_model
from vgalab.mllm.config import ModelConfig, SequenceLayout


def test_round_trip_is_bit_exact(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    loaded = load_model(path)
    assert loaded.config == tiny_model.config
    assert loaded.vocab.words == tiny_model.vocab.words
    for name, tensor in tiny_model.named_tensors().items():
        assert np.array_equal(loaded.named_tensors()[name], tensor), name


def test_round_trip_preserves_behavior(tmp_path, clean_model):
    path = tmp_path / "planted.bin"
    save_model(clean_model, path)
    loaded = load_model(path)
    ids = (clean_model.vocab.bos_id,) + clean_model.vocab.patch_token_ids[:2]
    layout = SequenceLayout(token_ids=ids, visual_start=1, visual_end=3)
    assert np.allclose(
        full_logits(loaded, layout), full_logits(clean_model, layout), atol=0
    )


def test_save_is_deterministic(tmp_path, tiny_model):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(tiny_model, p1)
    save_model(tiny_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_model(tmp_path / "nope.bin")


def test_truncated_file_raises_format_error(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    raw = path.read_bytes()
    (tmp_path / "short.bin").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_model(tmp_path / "short.bin")
    (tmp_path / "stub.bin").write_bytes(raw[:4])
    with pytest.raises(FormatError):
        load_model(tmp_path / "stub.bin")


def test_garbage_manifest_raises_format_error(tmp_path):
    blob = b"not json at all"
    path = tmp_path / "bad.bin"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError):
        load_model(path)


def _manifest_of(path):
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<Q", raw)
    return json.loads(raw[8 : 8 + n]), raw[8 + n :]


def _save_edited(tmp_path, model, edit):
    """Save ``model``, let ``edit(manifest, blob)`` change both in place, return the new file."""
    path = tmp_path / "model.bin"
    save_model(model, path)
    manifest, blob = _manifest_of(path)
    blob = bytearray(blob)
    edit(manifest, blob)
    encoded = json.dumps(manifest).encode()
    bad = tmp_path / "edited.bin"
    bad.write_bytes(struct.pack("<Q", len(encoded)) + encoded + blob)
    return bad


def test_manifest_carries_config_and_all_tensors(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    manifest, blob = _manifest_of(path)
    assert "__config__" in manifest
    assert manifest["__config__"]["model"]["n_layers"] == tiny_model.config.n_layers
    assert manifest["__config__"]["vocab"]["words"] == list(tiny_model.vocab.words)
    total = sum(e["length"] for k, e in manifest.items() if k != "__config__")
    assert total == len(blob)


def test_file_order_and_fields_are_fixed(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    manifest, _ = _manifest_of(path)
    per_layer = ("wq", "wk", "wv", "wo", "norm1", "norm2", "mlp.w1", "mlp.w2")
    expected = ["embed.tok", "embed.pos"]
    expected += [f"layers.{i}.{s}" for i in range(tiny_model.config.n_layers) for s in per_layer]
    expected.append("unembed")
    by_offset = sorted((e["offset"], k) for k, e in manifest.items() if k != "__config__")
    assert [k for _, k in by_offset] == expected
    named = tiny_model.named_tensors()
    for field in ("embed_tok", "embed_pos", "unembed"):
        assert named[field.replace("_", ".")] is getattr(tiny_model, field)
    for i, lw in enumerate(tiny_model.layers):
        for f in dataclasses.fields(lw):
            assert named[f"layers.{i}.{f.name.replace('_', '.')}"] is getattr(lw, f.name)


def test_missing_tensor_raises_format_error(tmp_path, tiny_model):
    def edit(manifest, blob):
        del manifest["unembed"]

    with pytest.raises(FormatError, match="unembed"):
        load_model(_save_edited(tmp_path, tiny_model, edit))


def test_shape_length_mismatch_raises_format_error(tmp_path, tiny_model):
    def edit(manifest, blob):
        manifest["embed.tok"]["shape"][0] += 1

    with pytest.raises(FormatError, match="embed.tok"):
        load_model(_save_edited(tmp_path, tiny_model, edit))


@pytest.mark.parametrize(
    "fields",
    [
        {"shape": 5},
        {"offset": None},
        {"shape": ["a", 2]},
        {"offset": "x"},
        {"length": [1]},
        {"shape": [-1, -1], "length": 4},  # a length that matches the shape
    ],
)
def test_malformed_tensor_entry_raises_format_error(tmp_path, tiny_model, fields):
    def edit(manifest, blob):
        manifest["embed.pos"].update(fields)

    with pytest.raises(FormatError, match="embed.pos"):
        load_model(_save_edited(tmp_path, tiny_model, edit))


def test_unwritable_path_raises_io_error(tmp_path, tiny_model):
    with pytest.raises(IoError):
        save_model(tiny_model, tmp_path / "no" / "such" / "dir" / "m.bin")


def test_different_models_differ_on_disk(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(build_random_model(1), p1)
    save_model(build_random_model(2), p2)
    assert p1.read_bytes() != p2.read_bytes()


@pytest.mark.parametrize(
    "field, value",
    [("n_heads", True), ("n_layers", 2.7), ("max_seq_len", "64"), ("grid", [2.9, 2])],
    ids=["n_heads", "n_layers", "max_seq_len", "grid"],
)
def test_non_integer_config_dimension_raises_format_error(tmp_path, tiny_model, field, value):
    def edit(manifest, blob):
        manifest["__config__"]["model"][field] = value

    with pytest.raises(FormatError, match=field):
        load_model(_save_edited(tmp_path, tiny_model, edit))


@pytest.mark.parametrize(
    "field, value",
    [
        ("d_model", 32.0),
        ("n_layers", True),
        ("max_seq_len", "64"),
        ("grid", (2, 2, 2)),
        ("grid", (2.0, 2)),
    ],
    ids=["float", "bool", "str", "grid_of_three", "grid_float"],
)
def test_config_rejects_non_integer_dimension(tiny_model, field, value):
    with pytest.raises(InvalidParams, match=field):
        dataclasses.replace(tiny_model.config, **{field: value})


def test_config_stores_numpy_integers_as_int(tiny_model):
    cfg = tiny_model.config
    rebuilt = dataclasses.replace(
        cfg,
        n_heads=np.int32(cfg.n_heads),
        d_model=np.int64(cfg.d_model),
        grid=tuple(np.array(cfg.grid)),
    )
    assert rebuilt == cfg
    dims = (rebuilt.n_heads, rebuilt.d_model, rebuilt.d_head, *rebuilt.grid)
    assert all(type(d) is int for d in dims)


def _swap_dog_cat(words):
    return [{"dog": "cat", "cat": "dog"}.get(w, w) for w in words]


@pytest.mark.parametrize(
    "key, change",
    [
        ("object_words", _swap_dog_cat),  # would map "dog" to the patch token <p:cat>
        ("n_background", lambda n: 2.5),  # would drop a texture id
        ("words", _swap_dog_cat),  # would remap id_of
    ],
    ids=["object_words", "n_background", "words"],
)
def test_vocabulary_disagreeing_with_make_vocab_raises_format_error(
    tmp_path, tiny_model, key, change
):
    assert {"dog", "cat"} <= set(tiny_model.vocab.object_words)

    def edit(manifest, blob):
        vocab = manifest["__config__"]["vocab"]
        vocab[key] = change(vocab[key])

    with pytest.raises(FormatError, match="vocabulary"):
        load_model(_save_edited(tmp_path, tiny_model, edit))


def _transpose_mlp_w1(manifest, blob):
    manifest["layers.0.mlp.w1"]["shape"].reverse()  # same byte length


def _nan_into_wv(manifest, blob):
    start = manifest["layers.1.wv"]["offset"]
    blob[start : start + 4] = np.float32(np.nan).tobytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_transpose_mlp_w1, r"layers\.0\.mlp\.w1: expected shape"),
        (_nan_into_wv, r"layers\.1\.wv contains NaN"),
    ],
    ids=["transposed", "nan"],
)
def test_tensor_failing_model_checks_raises_format_error(tmp_path, tiny_model, edit, message):
    with pytest.raises(FormatError, match=message):
        load_model(_save_edited(tmp_path, tiny_model, edit))


@pytest.mark.parametrize(
    "corrupt",
    [lambda a: a.astype(np.float64), lambda a: a.T, lambda a: a.tolist()],
    ids=["float64", "transposed", "list"],
)
def test_model_rejects_wrong_dtype_or_shape(tiny_model, corrupt):
    tensors = tiny_model.named_tensors()
    tensors["layers.0.mlp.w1"] = corrupt(tensors["layers.0.mlp.w1"])
    with pytest.raises(ShapeError, match=r"layers\.0\.mlp\.w1"):
        Model.from_tensors(tiny_model.config, tiny_model.vocab, tensors)


def test_loaded_model_arrays_are_read_only(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    for name, tensor in load_model(path).named_tensors().items():
        assert not tensor.flags.writeable, name


def test_from_tensors_inverts_named_tensors(tiny_model):
    tensors = tiny_model.named_tensors()
    rebuilt = Model.from_tensors(tiny_model.config, tiny_model.vocab, tensors)
    assert rebuilt.config == tiny_model.config and rebuilt.vocab == tiny_model.vocab
    assert list(rebuilt.named_tensors()) == list(tensors)
    for name, tensor in rebuilt.named_tensors().items():
        assert np.array_equal(tensor, tensors[name]), name
    del tensors["unembed"]
    with pytest.raises(ShapeError, match="unembed"):
        Model.from_tensors(tiny_model.config, tiny_model.vocab, tensors)
