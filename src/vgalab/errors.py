"""Exception taxonomy shared by all vgalab modules, and the scalar type
checks that raise it."""
import numbers

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
