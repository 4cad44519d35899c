"""Computed operation counts for the kernels the benchmark traces.

Counts come from shapes alone and describe the direct algorithm, not any
particular implementation of it, so a faster kernel for the same
geometry leaves them unchanged. Bytes are the sizes of the arrays the
kernel must read and write once each; cache misses are not modelled, so
every byte figure is a computed lower bound, not a measurement.

FLOPs count one multiply and one add per multiply-accumulate; a
max-pool compare counts as one operation.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod


@dataclass(frozen=True)
class Cost:
    flop: int
    byte: int


def _out_spatial(spatial, kernel, stride, pad):
    return tuple((n + 2 * p - k) // s + 1 for n, k, s, p in zip(spatial, kernel, stride, pad))


def _conv_terms(x_shape, spec):
    n, in_c = x_shape[:2]
    out_vox = prod(spec.out_spatial(x_shape[2:]))
    taps = prod(spec.kernel)
    macs = n * spec.out_channels * in_c * taps * out_vox
    x = n * in_c * prod(x_shape[2:])
    w = spec.out_channels * in_c * taps
    y = n * spec.out_channels * out_vox
    return macs, x, w, y


def conv3d_cost(x_shape, spec, itemsize):
    """Forward: 2 FLOPs per MAC plus one bias add per output voxel.
    Bytes: read input, weights, bias; write output."""
    macs, x, w, y = _conv_terms(x_shape, spec)
    return Cost(flop=2 * macs + y,
                byte=itemsize * (x + w + spec.out_channels + y))


def conv3d_backward_cost(x_shape, spec, itemsize):
    """Backward: one MAC pass for the input gradient and one for the weight
    gradient, plus one add per output voxel for the bias gradient.
    Bytes: read input, weights, output gradient; write the three gradients."""
    macs, x, w, y = _conv_terms(x_shape, spec)
    return Cost(flop=4 * macs + y,
                byte=itemsize * (2 * x + 2 * w + y + spec.out_channels))


def _pool_terms(x_shape, window, stride, same):
    pad = tuple((k - 1) // 2 for k in window) if same else (0, 0, 0)
    n, c = x_shape[:2]
    inputs = n * c * prod(x_shape[2:])
    outputs = n * c * prod(_out_spatial(x_shape[2:], window, stride, pad))
    return inputs, outputs


def maxpool3d_cost(x_shape, window, stride, same, itemsize):
    """Forward: one compare per window tap per output. Bytes: read input;
    write output and its int32 argmax."""
    inputs, outputs = _pool_terms(x_shape, window, stride, same)
    return Cost(flop=prod(window) * outputs,
                byte=itemsize * (inputs + outputs) + 4 * outputs)


def maxpool3d_backward_cost(x_shape, window, stride, same, itemsize):
    """Backward: one add per routed output gradient. Bytes: read output
    gradient and argmax; write input gradient."""
    inputs, outputs = _pool_terms(x_shape, window, stride, same)
    return Cost(flop=outputs, byte=itemsize * (inputs + outputs) + 4 * outputs)
