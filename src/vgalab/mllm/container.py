"""Single-file weight container: length-prefixed JSON manifest + f32 blob.

Layout: 8 bytes little-endian unsigned manifest byte length, the UTF-8
JSON manifest, then one contiguous blob of little-endian float32 data.
Manifest entries map tensor names to {shape, dtype, offset, length} with
offsets/lengths in bytes relative to the blob start; the names, their blob
order and their shapes are the model's tensor table (``core.tensor_table``).
One reserved entry, "__config__", carries the model dimensions, grid, and
the vocabulary word table, since those are not recoverable from tensor
shapes alone. Loading checks both against the code, not the file:

* every model dimension is a JSON integer, and ``grid`` a list of two, as
  is every tensor's shape, offset and length;
* the vocabulary must equal ``make_vocab(object_words, n_background)``, with
  ``n_background`` a JSON integer, so the stored ``words`` cannot reorder
  or rename the ids the code derives from the layout;
* each tensor's byte range lies inside the blob, and the ranges together
  claim no more than the blob holds, so loading allocates at most the
  file's size.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from ..errors import FormatError, VgalabError, open_path, require_int
from ..vocab import Vocabulary
from .config import ModelConfig
from .core import Model, tensor_table

_CONFIG_KEY = "__config__"
_LEN_STRUCT = struct.Struct("<Q")


def save_model(model: Model, path) -> None:
    """Write the model from each tensor's own buffer; same model, identical bytes."""
    manifest: dict = {
        _CONFIG_KEY: {
            "model": model.config.to_manifest(),
            "vocab": model.vocab.to_manifest(),
        }
    }
    arrays: list[np.ndarray] = []
    offset = 0
    for name, tensor in model.named_tensors().items():
        arr = np.ascontiguousarray(tensor, dtype="<f4")
        manifest[name] = {
            "shape": list(arr.shape),
            "dtype": "f32",
            "offset": offset,
            "length": arr.nbytes,
        }
        arrays.append(arr)
        offset += arr.nbytes

    encoded = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open_path(path, "wb", "model file") as fh:
        fh.write(_LEN_STRUCT.pack(len(encoded)))
        fh.write(encoded)
        for arr in arrays:
            fh.write(arr)


def _tensor_range(name: str, entry, blob_size: int) -> tuple[tuple[int, ...], int, int]:
    """(shape, offset, length) of a checked manifest entry, before any allocation."""
    if not isinstance(entry, dict):
        raise FormatError(f"{name}: manifest entry missing or not an object")
    for key in ("shape", "dtype", "offset", "length"):
        if key not in entry:
            raise FormatError(f"{name}: manifest entry missing {key!r}")
    if entry["dtype"] != "f32":
        raise FormatError(f"{name}: unsupported dtype {entry['dtype']!r}")
    # JSON integers only: a truncated float offset would read another tensor's bytes
    try:
        shape = tuple(require_int(d, f"{name}: shape", FormatError) for d in entry["shape"])
    except TypeError as exc:
        raise FormatError(f"{name}: shape must be a list of integers ({exc})") from exc
    offset = require_int(entry["offset"], f"{name}: offset", FormatError)
    length = require_int(entry["length"], f"{name}: length", FormatError)
    if any(d < 0 for d in shape):
        raise FormatError(f"{name}: negative dimension in shape {shape}")
    # Python ints: np.prod would wrap in int64 (2**32 * 2**32 -> 0)
    if length != math.prod(shape) * 4:
        raise FormatError(f"{name}: length {length} does not match shape {shape}")
    if offset < 0 or offset + length > blob_size:
        raise FormatError(f"{name}: data range [{offset}, {offset + length}) outside blob")
    return shape, offset, length


def _read_manifest(fh, size: int) -> tuple[dict, int]:
    """The manifest and the blob's start offset in the file."""
    prefix = fh.read(_LEN_STRUCT.size)
    if len(prefix) < _LEN_STRUCT.size:
        raise FormatError("file shorter than the manifest length prefix")
    (manifest_len,) = _LEN_STRUCT.unpack(prefix)
    header_end = _LEN_STRUCT.size + manifest_len
    if header_end > size:
        raise FormatError("manifest length prefix exceeds file size")
    try:
        manifest = json.loads(fh.read(manifest_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("manifest must be a JSON object")
    if _CONFIG_KEY not in manifest:
        raise FormatError(f"manifest missing {_CONFIG_KEY!r}")
    return manifest, header_end


def load_model(path) -> Model:
    """Read and validate a container; raises FormatError naming the tensor.

    Streamed: each entry is checked before its array is allocated, then read
    straight into it, so the model's bytes are held once."""
    with open_path(path, "rb", "model file") as fh:
        size = os.fstat(fh.fileno()).st_size
        manifest, header_end = _read_manifest(fh, size)
        try:
            config = ModelConfig.from_manifest(manifest[_CONFIG_KEY]["model"])
            vocab = Vocabulary.from_manifest(manifest[_CONFIG_KEY]["vocab"])
        except (KeyError, TypeError, ValueError, VgalabError) as exc:
            raise FormatError(f"malformed {_CONFIG_KEY!r} entry: {exc}") from exc

        tensors, claimed, blob_size = {}, 0, size - header_end
        for name, *_ in tensor_table(config):
            shape, offset, length = _tensor_range(name, manifest.get(name), blob_size)
            claimed += length  # overlapping ranges must not allocate the blob twice
            if claimed > blob_size:
                raise FormatError(f"{name}: tensors claim more bytes than the blob holds")
            arr = np.empty(length // 4, dtype="<f4")
            fh.seek(header_end + offset)
            if fh.readinto(arr) != length:
                raise FormatError(f"{name}: file ended inside the tensor's data")
            tensors[name] = arr.reshape(shape)
    try:
        return Model.from_tensors(config, vocab, tensors)
    except VgalabError as exc:
        raise FormatError(f"container tensors violate model invariants: {exc}") from exc
