"""Adam with bias correction and the cosine cyclic learning-rate schedule
used for snapshot capture.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError


# Adam's moment decay rates and denominator floor. They are constants, so a
# resumed run needs only the step and the moments the train state stores.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus step count."""

    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState):
    """One Adam update, in place on the parameter arrays.

    params and grads are name -> array dicts with matching shapes; moments
    are created lazily on first sight of a parameter.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        if name not in grads:
            continue
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(
                f"adam_step: gradient for {name} has shape {g.shape}, "
                f"parameter has {p.shape}"
            )
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p, dtype=np.float64)
            state.v[name] = np.zeros_like(p, dtype=np.float64)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g, dtype=np.float64)
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p -= (state.lr * update).astype(p.dtype)
    return params, state


@dataclass(frozen=True)
class CyclicSchedule:
    """Cosine annealing restarted every cycle_epochs: lr starts each cycle
    at lr_max and decays toward lr_min."""

    lr_max: float = 1e-3
    lr_min: float = 1e-5
    cycle_epochs: int = 20

    def __post_init__(self):
        if self.lr_max < self.lr_min:
            raise ShapeError(f"lr_min must be <= lr_max, got {self.lr_min} > {self.lr_max}")
        if self.cycle_epochs < 1:
            raise ShapeError("cycle_epochs must be >= 1")


def cyclic_lr(schedule: CyclicSchedule, epoch):
    """lr_min + (lr_max - lr_min) * (1 + cos(pi * frac)) / 2 with
    frac = (epoch mod cycle) / cycle; epoch counts from 0."""
    if epoch < 0:
        raise ShapeError(f"epoch must be >= 0, got {epoch}")
    frac = (epoch % schedule.cycle_epochs) / schedule.cycle_epochs
    return schedule.lr_min + 0.5 * (schedule.lr_max - schedule.lr_min) * (
        1.0 + math.cos(math.pi * frac)
    )
