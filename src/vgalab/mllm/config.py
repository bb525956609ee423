"""Model hyperparameters and prompt layout types."""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import InvalidInput, InvalidParams, ShapeError, require_grid, require_int

# token ids index int64 arrays in the forward pass
_ID_END = 2**63


def _token_id(value) -> int:
    """A prompt token id as a Python int; anything else raises InvalidInput."""
    token = require_int(value, "token id", InvalidInput)
    if not 0 <= token < _ID_END:
        raise InvalidInput(f"token id {token} out of range")
    return token


@dataclass(frozen=True)
class ModelConfig:
    """Static shape information for a decoder.

    ``grid`` is (rows, cols) of the visual patch grid; rows*cols is the
    number of visual tokens a prompt's visual span must contain (the
    forward pass raises ``ShapeError`` otherwise). Every
    dimension must be a Python or numpy integer (not a bool, float or
    string) and is stored as a Python int.
    """

    n_layers: int
    n_heads: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    grid: tuple[int, int]

    def __post_init__(self) -> None:
        for f in fields(self):
            check = require_grid if f.name == "grid" else require_int
            value = check(getattr(self, f.name), f"config field {f.name!r}", InvalidParams)
            object.__setattr__(self, f.name, value)
        if self.n_layers < 1 or self.n_heads < 1:
            raise InvalidParams("n_layers and n_heads must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise InvalidParams("d_model must be divisible by n_heads")
        if self.d_ff < 1 or self.vocab_size < 4 or self.max_seq_len < 2:
            raise InvalidParams("d_ff, vocab_size, or max_seq_len too small")
        if min(self.grid) < 1:
            raise InvalidParams("grid dims must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def n_patches(self) -> int:
        return self.grid[0] * self.grid[1]

    def to_manifest(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_manifest(cls, payload: dict) -> "ModelConfig":
        """Inverse of ``to_manifest``."""
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class SequenceLayout:
    """A prompt: token ids plus the half-open visual span [visual_start, visual_end).

    Token ids are nonnegative integers below 2**63 and the span ends are
    integers (Python or numpy, not bool); both are stored as Python ints.
    A malformed id raises ``InvalidInput``, a malformed span ``ShapeError``.
    """

    token_ids: tuple[int, ...]
    visual_start: int
    visual_end: int

    def __post_init__(self) -> None:
        # one pass: Python ints in range are kept as they are, anything else
        # is converted or rejected by _token_id; every prompt builds a layout,
        # so the common case skips require_int's checks
        ids = tuple(
            t if type(t) is int and 0 <= t < _ID_END else _token_id(t) for t in self.token_ids
        )
        object.__setattr__(self, "token_ids", ids)
        for name in ("visual_start", "visual_end"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, ShapeError))
        n = len(ids)
        if n == 0:
            raise ShapeError("empty prompt")
        if not (0 <= self.visual_start < self.visual_end <= n):
            raise ShapeError(
                f"visual span [{self.visual_start}, {self.visual_end}) does not fit prompt of length {n}"
            )

    @property
    def n_visual(self) -> int:
        return self.visual_end - self.visual_start

    @property
    def length(self) -> int:
        return len(self.token_ids)

    def ids_array(self) -> np.ndarray:
        return np.asarray(self.token_ids, dtype=np.int64)
