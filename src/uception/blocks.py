"""Inception-style building blocks.

DeepBlock keeps spatial extents and widens channels through four parallel
branches; ReductionBlock halves every spatial extent through three. Both
concatenate their branches on the channel axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers, ops
from .errors import ShapeError
from .layers import Chain, MaxPool3d, conv_unit
from .tensor import AXES


@dataclass(frozen=True)
class DeepBlockCfg:
    in_channels: int
    branch_depth: int
    dropout_rate: float = 0.0

    @property
    def out_channels(self):
        return 4 * self.branch_depth


@dataclass(frozen=True)
class ReductionBlockCfg:
    in_channels: int
    branch_depth: int
    dropout_rate: float = 0.0

    @property
    def out_channels(self):
        # pool branch carries the input channels through unchanged
        return self.in_channels + 2 * self.branch_depth


class _ParallelConcat:
    """Shared machinery: run branches on one input, concat on channels.
    Subclasses set ``name`` and a ``cfg`` with ``in_channels``."""

    def __init__(self, branches):
        self.branches = branches  # list of (name, layer)

    def forward(self, x, ctx):
        if x.shape[1] != self.cfg.in_channels:
            raise ShapeError(
                f"{self.name}: input has {x.shape[1]} channels, "
                f"block expects {self.cfg.in_channels}",
                axis="channel",
            )
        outs, caches, widths = [], [], []
        for _, branch in self.branches:
            y, cache = layers.call(branch, x, ctx)
            outs.append(y)
            caches.append(cache)
            widths.append(y.shape[1])
        return ops.concat_channels(outs), (caches, widths)

    def backward(self, grad_out, cache, grads):
        caches, widths = cache
        pieces = ops.concat_channels_backward(grad_out, widths)
        grad_x = None
        for (_, branch), piece, bc in zip(self.branches, pieces, caches):
            g = layers.back(branch, piece, bc, grads)
            grad_x = g if grad_x is None else grad_x + g
        return grad_x


class DeepBlock(_ParallelConcat):
    """Four extent-preserving branches: 1-cube, 5-cube and 7-cube convolution
    paths (each behind a 1-cube bottleneck) plus a pooled 1-cube path."""

    def __init__(self, name, cfg: DeepBlockCfg, dtype=np.float32):
        self.name = name
        self.cfg = cfg
        c, d, r = cfg.in_channels, cfg.branch_depth, cfg.dropout_rate
        super().__init__([
            ("a", conv_unit(f"{name}.a.conv1", c, d, 1, dropout_rate=r, dtype=dtype)),
            ("b", Chain([
                conv_unit(f"{name}.b.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.b.conv5", d, d, 5, dropout_rate=r, dtype=dtype),
            ])),
            ("c", Chain([
                conv_unit(f"{name}.c.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.c.conv7", d, d, 7, dropout_rate=r, dtype=dtype),
            ])),
            ("d", Chain([
                MaxPool3d(window=(3, 3, 3), stride=(1, 1, 1), padding=ops.SAME),
                conv_unit(f"{name}.d.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
            ])),
        ])


class ReductionBlock(_ParallelConcat):
    """Three extent-halving branches: 2-cube max-pool, strided 3-cube
    convolution, and a 1-cube bottleneck into a strided 3-cube convolution."""

    def __init__(self, name, cfg: ReductionBlockCfg, dtype=np.float32):
        self.name = name
        self.cfg = cfg
        c, d, r = cfg.in_channels, cfg.branch_depth, cfg.dropout_rate
        super().__init__([
            ("a", Chain([MaxPool3d(window=(2, 2, 2), stride=(2, 2, 2))])),
            ("b", conv_unit(f"{name}.b.conv3", c, d, 3, stride=2, dropout_rate=r, dtype=dtype)),
            ("c", Chain([
                conv_unit(f"{name}.c.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.c.conv3", d, d, 3, stride=2, dropout_rate=r, dtype=dtype),
            ])),
        ])

    def forward(self, x, ctx):
        for ax, ext in zip(AXES[2:], x.shape[2:]):
            if ext % 2:
                raise ShapeError(
                    f"{self.name}: spatial extent {ext} on axis {ax!r} is odd; "
                    "reduction needs even extents",
                    axis=ax,
                )
        return super().forward(x, ctx)


__all__ = ["DeepBlockCfg", "ReductionBlockCfg", "DeepBlock", "ReductionBlock"]
