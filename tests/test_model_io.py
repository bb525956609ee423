"""Weight container round trips and corruption handling."""
import dataclasses
import hashlib
import json
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vgalab import vocab as vocab_module
from vgalab.errors import FormatError, InvalidParams, IoError, ShapeError
from vgalab.mllm import (
    Model,
    PlantedSpec,
    build_planted_model,
    build_random_model,
    load_model,
    reference_forward,
    save_model,
)
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
    patches = clean_model.vocab.patch_token_ids
    m = clean_model.config.n_patches
    ids = (clean_model.vocab.bos_id,) + tuple(patches[i % len(patches)] for i in range(m))
    layout = SequenceLayout(token_ids=ids, visual_start=1, visual_end=1 + m)
    assert np.allclose(
        reference_forward(loaded, layout)[0], reference_forward(clean_model, layout)[0], atol=0
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


def test_deeply_nested_manifest_raises_format_error(tmp_path):
    blob = b"[" * 100_000  # exhausts the JSON decoder's recursion limit
    path = tmp_path / "deep.bin"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(FormatError, match="not valid JSON"):
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
        {"shape": [2**32, 2**32], "length": 0},  # an int64 product wraps to 0
        {"offset": float("inf")},  # JSON Infinity
        {"offset": 0.5},  # truncated, it would read embed.tok's bytes
    ],
)
def test_malformed_tensor_entry_raises_format_error(tmp_path, tiny_model, fields):
    def edit(manifest, blob):
        manifest["embed.pos"].update(fields)

    with pytest.raises(FormatError, match="embed.pos"):
        load_model(_save_edited(tmp_path, tiny_model, edit))


def test_tensors_cannot_claim_more_bytes_than_the_blob(tmp_path, tiny_model):
    """Each range fits, but together they would allocate the blob twice."""

    def edit(manifest, blob):
        manifest["unembed"].update(shape=[len(blob) // 4], offset=0, length=len(blob))

    with pytest.raises(FormatError, match="unembed: tensors claim more bytes"):
        load_model(_save_edited(tmp_path, tiny_model, edit))


def test_unwritable_path_raises_io_error(tmp_path, tiny_model):
    with pytest.raises(IoError):
        save_model(tiny_model, tmp_path / "no" / "such" / "dir" / "m.bin")


@pytest.mark.parametrize(
    "build, digest",
    [
        (
            lambda: build_planted_model(PlantedSpec(), 7),
            "35efa52c7a46fe4337032093ce942f02ca27afea9e6145c10f8ae8ed06bb8d67",
        ),
        (
            lambda: build_planted_model(PlantedSpec(sigma=6.0), 7),
            "a85352a588a3bbbd7059238c3e22da6240e7f6b731d3addedd8b852759170689",
        ),
        (
            lambda: build_random_model(0),
            "d6ab38576a542f6b0af1663426301d41f11e3b889d6eafc91060d81ac55871ff",
        ),
    ],
    ids=["planted", "planted_sigma6", "random0"],
)
def test_saved_bytes_are_pinned(tmp_path, build, digest):
    """The container's bytes do not move when the writer changes."""
    path = tmp_path / "model.bin"
    save_model(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


def _bounded_make_vocab(n_words):
    """``make_vocab`` that fails the test when asked for more than ``n_words`` entries."""
    real = vocab_module.make_vocab

    def make_vocab(object_words, n_background):
        if isinstance(n_background, int):
            n = len(vocab_module.SPECIALS) + 2 * len(tuple(object_words)) + n_background
            assert n <= n_words, f"make_vocab asked for {n} words, the file stores {n_words}"
        return real(object_words, n_background)

    return make_vocab


def test_vocabulary_size_is_checked_before_building_it(tmp_path, tiny_model, monkeypatch):
    """A stored n_background of 10**9 must not reach ``make_vocab``, which would
    build that table (minutes and gigabytes) before comparing it."""
    monkeypatch.setattr(vocab_module, "make_vocab", _bounded_make_vocab(tiny_model.vocab.size))

    def edit(manifest, blob):
        manifest["__config__"]["vocab"]["n_background"] = 10**9

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
    "name, corrupt",
    [
        ("layers.0.mlp.w1", lambda a: a.astype(np.float64)),
        ("layers.0.mlp.w1", lambda a: a.T),
        ("layers.0.mlp.w1", lambda a: a.tolist()),
        ("layers.1.wk", lambda a: a.astype(np.float64)),
        ("layers.1.wk", lambda a: a[:-1]),
        ("layers.1.wk", lambda a: a.tolist()),
    ],
    ids=["float64", "transposed", "list", "wk-float64", "wk-short", "wk-list"],
)
def test_model_rejects_wrong_dtype_or_shape(tiny_model, name, corrupt):
    """A bad wq/wk/wv fails the tensor checks by name, before the stacking
    of the three could raise a raw numpy error."""
    tensors = tiny_model.named_tensors()
    tensors[name] = corrupt(tensors[name])
    with pytest.raises(ShapeError, match=name.replace(".", r"\.")):
        Model.from_tensors(tiny_model.config, tiny_model.vocab, tensors)


@pytest.mark.parametrize(
    "build",
    [lambda: build_planted_model(PlantedSpec(), 7), lambda: build_random_model(3)],
    ids=["planted", "random"],
)
def test_projections_are_slabs_of_one_read_only_block(tmp_path, build):
    """Per layer, wq, wk and wv are the slabs of one C-contiguous, read-only
    float32 [3, d, d] block, built or loaded; the loaded blocks hold the
    built bytes, and saving either model writes the same file."""
    built = build()
    path = tmp_path / "model.bin"
    save_model(built, path)
    loaded = load_model(path)
    d = built.config.d_model
    for model in (built, loaded):
        assert len(model.qkv) == model.config.n_layers
        for lw, block in zip(model.layers, model.qkv):
            assert block.shape == (3, d, d) and block.dtype == np.float32
            assert block.flags.c_contiguous and not block.flags.writeable
            for j, w in enumerate((lw.wq, lw.wk, lw.wv)):
                assert w.base is block and np.shares_memory(w, block)
                assert w.__array_interface__["data"] == block[j].__array_interface__["data"]
    for a, b in zip(built.qkv, loaded.qkv):
        assert a.tobytes() == b.tobytes()
    for name, tensor in built.named_tensors().items():
        assert tensor.tobytes() == loaded.named_tensors()[name].tobytes(), name
    again = tmp_path / "again.bin"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


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


_TENSOR_FIELDS = ("shape", "offset", "length", "dtype")
_CONFIG_FIELDS = ("n_layers", "n_heads", "d_model", "d_ff", "vocab_size", "max_seq_len", "grid")
_ODD_VALUES = st.one_of(
    st.integers(-(2**65), 2**65),
    st.sampled_from([0, 1, -1, 2**31, 2**32, 2**63, 2**64, 10**9]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(-(2**33), 2**33), max_size=3),
)
_FILE_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("prefix"), st.one_of(st.integers(-64, 64), st.integers(0, 2**64 - 1))),
    st.tuples(
        st.just("json"),
        st.sampled_from(["embed.tok", "embed.pos", "layers.1.wv", "unembed"]),
        st.dictionaries(st.sampled_from(_TENSOR_FIELDS), _ODD_VALUES, min_size=1),
    ),
    st.tuples(
        st.just("json"),
        st.just("model"),
        st.dictionaries(st.sampled_from(_CONFIG_FIELDS), _ODD_VALUES, min_size=1),
    ),
    st.tuples(st.just("json"), st.just("vocab"), st.fixed_dictionaries({"n_background": _ODD_VALUES})),
)


def _edit_file(raw, edit):
    """``raw`` after one edit: a truncation, a byte flip, a shifted manifest
    length prefix, or new values for fields of one manifest entry."""
    kind, *args = edit
    if kind == "truncate":
        return raw[: args[0] % (len(raw) + 1)]
    if kind == "flip":
        out = bytearray(raw)
        out[args[0] % len(out)] ^= args[1]
        return bytes(out)
    (n,) = struct.unpack_from("<Q", raw)
    if kind == "prefix":
        return struct.pack("<Q", (n + args[0]) % 2**64) + raw[8:]
    manifest = json.loads(raw[8 : 8 + n])
    target, updates = args
    (manifest["__config__"] if target in ("model", "vocab") else manifest)[target].update(updates)
    encoded = json.dumps(manifest).encode()
    return struct.pack("<Q", len(encoded)) + encoded + raw[8 + n :]


@pytest.fixture(scope="module")
def container_file(tmp_path_factory, tiny_model):
    path = tmp_path_factory.mktemp("container") / "model.bin"
    save_model(tiny_model, path)
    return path.read_bytes(), path


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(edit=_FILE_EDITS)
@example(edit=("json", "embed.pos", {"shape": [2**32, 2**32], "length": 0}))
@example(edit=("json", "vocab", {"n_background": 10**9}))
@example(edit=("json", "embed.pos", {"offset": float("inf")}))
def test_corrupt_file_raises_only_typed_errors(container_file, tiny_model, edit):
    """Whatever the damage, ``load_model`` returns a model or raises
    ``FormatError``/``IoError``, and never builds a vocabulary larger than
    the file stores."""
    raw, path = container_file
    path.write_bytes(_edit_file(raw, edit))
    bounded = _bounded_make_vocab(tiny_model.vocab.size)
    with mock.patch.object(vocab_module, "make_vocab", bounded):
        try:
            load_model(path)
        except (FormatError, IoError):
            pass
