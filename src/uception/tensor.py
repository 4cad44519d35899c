"""Five-axis tensor conventions.

Activations, gradients and kernels all live in dense numpy arrays laid out
as (batch, channel, depth, height, width), C-contiguous with width fastest.
Two numeric modes exist: float32 for training speed and float64 for
gradient verification. A graph is built in one mode and never mixes them.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError

AXES = ("batch", "channel", "depth", "height", "width")

# numeric-mode name -> dtype
MODES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


def check_finite(x, what="tensor"):
    """Raise NumericError if any value is NaN or infinite."""
    if not np.isfinite(x).all():
        raise NumericError(f"{what} contains non-finite values")
    return x
