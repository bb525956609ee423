"""Weight container round trips and corruption handling."""
import json
import struct

import numpy as np
import pytest

from vgalab.errors import FormatError, IoError
from vgalab.mllm import build_random_model, full_logits, load_model, save_model
from vgalab.mllm.config import SequenceLayout


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


def test_manifest_carries_config_and_all_tensors(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    manifest, blob = _manifest_of(path)
    assert "__config__" in manifest
    assert manifest["__config__"]["model"]["n_layers"] == tiny_model.config.n_layers
    assert manifest["__config__"]["vocab"]["words"] == list(tiny_model.vocab.words)
    total = sum(e["length"] for k, e in manifest.items() if k != "__config__")
    assert total == len(blob)


def test_missing_tensor_raises_format_error(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    manifest, blob = _manifest_of(path)
    del manifest["unembed"]
    encoded = json.dumps(manifest).encode()
    bad = tmp_path / "missing.bin"
    bad.write_bytes(struct.pack("<Q", len(encoded)) + encoded + blob)
    with pytest.raises(FormatError, match="unembed"):
        load_model(bad)


def test_shape_length_mismatch_raises_format_error(tmp_path, tiny_model):
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    manifest, blob = _manifest_of(path)
    manifest["embed.tok"]["shape"][0] += 1
    encoded = json.dumps(manifest).encode()
    bad = tmp_path / "shape.bin"
    bad.write_bytes(struct.pack("<Q", len(encoded)) + encoded + blob)
    with pytest.raises(FormatError, match="embed.tok"):
        load_model(bad)


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
    path = tmp_path / "model.bin"
    save_model(tiny_model, path)
    manifest, blob = _manifest_of(path)
    manifest["embed.pos"].update(fields)
    encoded = json.dumps(manifest).encode()
    bad = tmp_path / "entry.bin"
    bad.write_bytes(struct.pack("<Q", len(encoded)) + encoded + blob)
    with pytest.raises(FormatError, match="embed.pos"):
        load_model(bad)


def test_unwritable_path_raises_io_error(tmp_path, tiny_model):
    with pytest.raises(IoError):
        save_model(tiny_model, tmp_path / "no" / "such" / "dir" / "m.bin")


def test_different_models_differ_on_disk(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(build_random_model(1), p1)
    save_model(build_random_model(2), p2)
    assert p1.read_bytes() != p2.read_bytes()
