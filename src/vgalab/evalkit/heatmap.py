"""Grayscale grid renderer: grounding vector -> binary PGM (P5) file."""
from __future__ import annotations

import numpy as np

from ..errors import InvalidInput, ShapeError, open_path, require_array, require_grid

_SCALE_EPS = 1e-12


def minmax_scale(values: np.ndarray) -> np.ndarray:
    """``values`` mapped onto [0, 1]; a flat vector (range below 1e-12)
    maps to 0.5 everywhere."""
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo < _SCALE_EPS:
        return np.full_like(values, 0.5)
    return (values - lo) / (hi - lo)


def export_heatmap(values, grid: tuple[int, int], path: str) -> None:
    """Write a min-max scaled 8-bit heatmap of a grounding vector over the grid.

    ``values`` is a 1-d array of length rows*cols. A flat vector (no
    dynamic range) renders as mid-gray so "uniform" and "empty" stay
    visually distinct from "peaked at the first patch".
    """
    values = require_array(values, "grounding values", 1)
    rows, cols = require_grid(grid, "heatmap grid", InvalidInput)
    if rows < 1 or cols < 1:
        raise InvalidInput("grid dims must be positive")
    if values.shape[0] != rows * cols:
        raise ShapeError(
            f"grounding length {values.shape} does not cover a {rows}x{cols} grid"
        )

    pixels = np.round(minmax_scale(values) * 255.0).astype(np.uint8)
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    with open_path(path, "wb", "heatmap") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
