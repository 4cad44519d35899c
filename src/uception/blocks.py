"""Inception-style building blocks.

DeepBlock keeps spatial extents and widens channels through four parallel
branches; ReductionBlock halves every spatial extent through three. Each
is a ``layers.Concat`` of its branches, so both concatenate them on the
channel axis. A block checks nothing itself: a wrong channel count fails
in the first branch conv, and an odd extent in the ReductionBlock's 2-cube
pool, each with a ShapeError that names the axis.
"""
from __future__ import annotations

import numpy as np

from . import ops
from .layers import Chain, Concat, MaxPool3d, conv_unit


class DeepBlock(Concat):
    """Four extent-preserving branches: 1-cube, 5-cube and 7-cube convolution
    paths (each behind a 1-cube bottleneck) plus a pooled 1-cube path;
    4 * branch_depth output channels."""

    def __init__(self, name, in_channels, branch_depth, dropout_rate=0.0,
                 dtype=np.float32):
        c, d, r = in_channels, branch_depth, dropout_rate
        super().__init__([
            conv_unit(f"{name}.a.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
            Chain([
                conv_unit(f"{name}.b.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.b.conv5", d, d, 5, dropout_rate=r, dtype=dtype),
            ]),
            Chain([
                conv_unit(f"{name}.c.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.c.conv7", d, d, 7, dropout_rate=r, dtype=dtype),
            ]),
            Chain([
                MaxPool3d(window=(3, 3, 3), stride=(1, 1, 1), padding=ops.SAME),
                conv_unit(f"{name}.d.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
            ]),
        ])
        self.out_channels = 4 * d


class ReductionBlock(Concat):
    """Three extent-halving branches: 2-cube max-pool, strided 3-cube
    convolution, and a 1-cube bottleneck into a strided 3-cube convolution;
    the pool carries the input channels through, so in_channels +
    2 * branch_depth output channels."""

    def __init__(self, name, in_channels, branch_depth, dropout_rate=0.0,
                 dtype=np.float32):
        c, d, r = in_channels, branch_depth, dropout_rate
        super().__init__([
            MaxPool3d(window=(2, 2, 2), stride=(2, 2, 2)),
            conv_unit(f"{name}.b.conv3", c, d, 3, stride=2, dropout_rate=r, dtype=dtype),
            Chain([
                conv_unit(f"{name}.c.conv1", c, d, 1, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.c.conv3", d, d, 3, stride=2, dropout_rate=r, dtype=dtype),
            ]),
        ])
        self.out_channels = c + 2 * d


__all__ = ["DeepBlock", "ReductionBlock"]
