"""Exception taxonomy shared by all vgalab modules, and the one statement
of each rule for input from outside the program that raises it: scalars
(``require_int`` and its kin), arrays (``require_array``) and file paths
(``open_path``)."""
import numbers
import os
from contextlib import contextmanager

import numpy as np


class VgalabError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(VgalabError, ValueError):
    """A numeric argument is malformed: NaN/Inf, negative where forbidden, etc."""


class ShapeError(VgalabError, ValueError):
    """Array arguments have incompatible or unexpected shapes."""


class InvalidParams(VgalabError, ValueError):
    """A scalar parameter is outside its documented range."""


class FormatError(VgalabError, RuntimeError):
    """A weight container file is malformed or inconsistent."""


class IoError(VgalabError, RuntimeError):
    """A file could not be read or written."""


class CapacityError(VgalabError, RuntimeError):
    """The KV cache (or sequence budget) is exhausted."""


class InvalidSpec(VgalabError, ValueError):
    """A planted-model spec is internally inconsistent."""


class ConfigError(VgalabError, ValueError):
    """A guidance config violates its invariants or lacks required inputs."""


def require_int(value, name: str, error: type[VgalabError]) -> int:
    """``value`` as a Python int. Python and numpy integers pass; anything
    else (bool, float, str) raises ``error`` naming ``name``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


def require_seed(value, error: type[VgalabError]) -> int:
    """``value`` as a Python int >= 0, the seeds numpy's ``default_rng``
    takes; anything else raises ``error``."""
    seed = require_int(value, "seed", error)
    if seed < 0:
        raise error(f"seed must be >= 0, got {seed}")
    return seed


def require_grid(value, name: str, error: type[VgalabError]) -> tuple[int, int]:
    """``value`` as a (rows, cols) pair of Python ints, per ``require_int``."""
    if not isinstance(value, (tuple, list)) or len(value) != 2:
        raise error(f"{name} must be a pair of integers, got {value!r}")
    return (require_int(value[0], name, error), require_int(value[1], name, error))


def require_real(value, name: str, error: type[VgalabError]) -> float:
    """``value`` as a Python float. Python and numpy reals pass; anything
    else (bool, str, None) raises ``error`` naming ``name``. Finiteness is
    the caller's check."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise error(f"{name} must be a real number, got {value!r}")


def require_fraction(value, name: str, error: type[VgalabError]) -> float:
    """``value`` as a Python float in [0, 1], per ``require_real``; NaN and
    +-Inf fail the range comparison, so it is the finiteness check too."""
    value = require_real(value, name, error)
    if not 0.0 <= value <= 1.0:
        raise error(f"{name} must lie in [0, 1], got {value}")
    return value


def require_bool(value, name: str, error: type[VgalabError]) -> bool:
    """``value`` as a Python bool. Python and numpy bools pass; anything else
    (0, 1, "no", None) raises ``error`` naming ``name``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise error(f"{name} must be a bool, got {value!r}")


def require_array(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as a finite float64 array of ``ndim`` dimensions, not a
    copy when it already is one. A ragged sequence, or an array that does
    not hold integers or floats (bool, complex, str, object), raises
    ``InvalidInput``: no complex value loses its imaginary part, no string
    is parsed and no bool is read as 0 or 1. A wrong ``ndim`` or an array
    with no elements raises ``ShapeError``, and NaN or Inf ``InvalidInput``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        raise InvalidInput(f"{name} must be a rectangular array") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} must hold real numbers, got {arr.dtype}")
    if arr.ndim != ndim or arr.size == 0:
        raise ShapeError(f"{name} must be a non-empty {ndim}-d array, got shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} must be finite, got NaN or Inf")
    return arr


@contextmanager
def open_path(path, mode: str, what: str):
    """``open(path, mode)``, UTF-8 in text modes, as a context manager. A
    path that is not a str, bytes or ``os.PathLike`` raises ``IoError``
    before anything is opened (an int would open a file descriptor), and so
    does any ``OSError`` while the file is open, as ``cannot read|write
    {what} {path!r}: ...``."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise IoError(f"{what} path must be a str, bytes or os.PathLike, got {path!r}")
    verb = "read" if "r" in mode else "write"
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot {verb} {what} {path!r}: {exc}") from exc
