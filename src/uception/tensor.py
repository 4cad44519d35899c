"""Five-axis tensor conventions.

Activations, gradients and kernels all live in dense numpy arrays laid out
as (batch, channel, depth, height, width), C-contiguous with width fastest.
Two numeric modes exist: float32 for training speed and float64 for
gradient verification. A graph is built in one mode and never mixes them.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

AXES = ("batch", "channel", "depth", "height", "width")

FLOAT32 = np.dtype(np.float32)
FLOAT64 = np.dtype(np.float64)

MODES = {"f32": FLOAT32, "f64": FLOAT64}  # numeric-mode name -> dtype


def as_tensor5(x, dtype=None):
    """Validate and return a contiguous 5-axis array.

    Accepts anything array-like; raises ShapeError when the rank is not 5
    or an extent is negative.
    """
    arr = np.asarray(x, dtype=dtype)
    if arr.ndim != 5:
        raise ShapeError(f"expected a 5-axis (n, c, d, h, w) array, got ndim={arr.ndim}")
    if arr.dtype not in (FLOAT32, FLOAT64):
        arr = arr.astype(FLOAT32)
    return np.ascontiguousarray(arr)


def check_finite(x, what="tensor"):
    """Raise NumericError if any value is NaN or infinite."""
    if not np.isfinite(x).all():
        raise NumericError(f"{what} contains non-finite values")
    return x
