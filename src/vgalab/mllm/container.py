"""Single-file weight container: length-prefixed JSON manifest + f32 blob.

Layout: 8 bytes little-endian unsigned manifest byte length, the UTF-8
JSON manifest, then one contiguous blob of little-endian float32 data.
Manifest entries map tensor names to {shape, dtype, offset, length} with
offsets/lengths in bytes relative to the blob start; the names, their blob
order and their shapes are the model's tensor table (``core.tensor_table``).
One reserved entry, "__config__", carries the model dimensions, grid, and
the vocabulary word table, since those are not recoverable from tensor
shapes alone. Loading checks both against the code, not the file:

* every model dimension is a JSON integer, and ``grid`` a list of two;
* the vocabulary must equal ``make_vocab(object_words, n_background)``, with
  ``n_background`` a JSON integer, so the stored ``words`` cannot reorder
  or rename the ids the code derives from the layout.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError, IoError, VgalabError
from ..vocab import Vocabulary
from .config import ModelConfig
from .core import Model, tensor_table

_CONFIG_KEY = "__config__"
_LEN_STRUCT = struct.Struct("<Q")


def save_model(model: Model, path) -> None:
    """Write the model; same model always produces identical bytes."""
    manifest: dict = {
        _CONFIG_KEY: {
            "model": model.config.to_manifest(),
            "vocab": model.vocab.to_manifest(),
        }
    }
    blobs: list[bytes] = []
    offset = 0
    for name, tensor in model.named_tensors().items():
        arr = np.ascontiguousarray(tensor, dtype="<f4")
        raw = arr.tobytes()
        manifest[name] = {
            "shape": list(arr.shape),
            "dtype": "f32",
            "offset": offset,
            "length": len(raw),
        }
        blobs.append(raw)
        offset += len(raw)

    encoded = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(_LEN_STRUCT.pack(len(encoded)))
            fh.write(encoded)
            for raw in blobs:
                fh.write(raw)
    except OSError as exc:
        raise IoError(f"cannot write model file {path}: {exc}") from exc


def _read_tensor(name: str, entry, blob: bytes) -> np.ndarray:
    if not isinstance(entry, dict):
        raise FormatError(f"{name}: manifest entry missing or not an object")
    for key in ("shape", "dtype", "offset", "length"):
        if key not in entry:
            raise FormatError(f"{name}: manifest entry missing {key!r}")
    if entry["dtype"] != "f32":
        raise FormatError(f"{name}: unsupported dtype {entry['dtype']!r}")
    try:
        shape = tuple(int(d) for d in entry["shape"])
        offset, length = int(entry["offset"]), int(entry["length"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{name}: shape, offset and length must be integers ({exc})") from exc
    if any(d < 0 for d in shape):
        raise FormatError(f"{name}: negative dimension in shape {shape}")
    expected = int(np.prod(shape)) * 4
    if length != expected:
        raise FormatError(f"{name}: length {length} does not match shape {shape}")
    if offset < 0 or offset + length > len(blob):
        raise FormatError(f"{name}: data range [{offset}, {offset + length}) outside blob")
    return np.frombuffer(blob, dtype="<f4", count=expected // 4, offset=offset).reshape(shape).copy()


def load_model(path) -> Model:
    """Read and validate a container; raises FormatError naming the tensor."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc

    if len(raw) < _LEN_STRUCT.size:
        raise FormatError("file shorter than the manifest length prefix")
    (manifest_len,) = _LEN_STRUCT.unpack_from(raw)
    header_end = _LEN_STRUCT.size + manifest_len
    if header_end > len(raw):
        raise FormatError("manifest length prefix exceeds file size")
    try:
        manifest = json.loads(raw[_LEN_STRUCT.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest must be a JSON object")
    if _CONFIG_KEY not in manifest:
        raise FormatError(f"manifest missing {_CONFIG_KEY!r}")

    blob = raw[header_end:]
    try:
        config = ModelConfig.from_manifest(manifest[_CONFIG_KEY]["model"])
        vocab = Vocabulary.from_manifest(manifest[_CONFIG_KEY]["vocab"])
    except (KeyError, TypeError, ValueError, VgalabError) as exc:
        raise FormatError(f"malformed {_CONFIG_KEY!r} entry: {exc}") from exc

    tensors = {
        name: _read_tensor(name, manifest.get(name), blob) for name, *_ in tensor_table(config)
    }
    try:
        return Model.from_tensors(config, vocab, tensors)
    except VgalabError as exc:
        raise FormatError(f"container tensors violate model invariants: {exc}") from exc
