"""Parameterized layers.

A layer owns its parameters (named, stable across builds) but never owns
activations: ``forward`` returns ``(output, cache)`` and ``backward``
consumes that cache, so a built graph stays read-only during the forward
pass and can be shared across threads for inference. Each Conv3d stores
its parameter gradients in the ``grads`` dict passed to ``backward``, and
allocates its parameters on first use: a tree is built and counted
(``parameter_count``) from its ConvSpecs without any parameter memory.

Two containers build every tree: Chain runs its members in sequence and
Concat runs them side by side on one input, joining their outputs on the
channel axis. The Inception blocks and both whole networks are nothing
else, and ``walk`` descends into these two only.

A parent reaches a child only through ``call`` and ``back``. Only a TRAIN
forward keeps the child's cache; in INFER mode ``call`` hands back the
``DROPPED`` sentinel, so an INFER cache holds no array, no layer input is
kept for a backward that will never run, and backward needs a TRAIN forward.
A TRAIN cache keeps what its backward reads and no more: ReLU and Dropout
keep a bool mask, 1 byte per voxel, not a float array.
"""
from __future__ import annotations

import math

import numpy as np

from . import ops
from .errors import ShapeError
from .ops import ConvSpec

TRAIN = "train"
INFER = "infer"


class Context:
    """Per-forward state: mode and the RNG dropout draws from (graph order)."""

    def __init__(self, mode=INFER, rng=None):
        if mode not in (TRAIN, INFER):
            raise ShapeError(f"mode must be 'train' or 'infer', got {mode!r}")
        self.mode = mode
        self.rng = None if rng is None else np.random.default_rng(rng)


# the cache of a call made in INFER mode; back() refuses it
DROPPED = object()


def call(layer, x, ctx):
    """Run layer.forward; the cache is kept only in TRAIN mode."""
    y, cache = layer.forward(x, ctx)
    return y, cache if ctx.mode == TRAIN else DROPPED


def back(layer, grad_out, cache, grads):
    """Run layer.backward on a cache from a TRAIN-mode call."""
    if cache is DROPPED:
        raise ShapeError("backward needs a TRAIN-mode forward; an INFER forward keeps no cache")
    return layer.backward(grad_out, cache, grads)


class Conv3d:
    """A convolution whose weights ``w`` and bias ``b`` are allocated
    together, zeroed, on first use; until then it is its spec alone."""

    def __init__(self, name, spec: ConvSpec, dtype=np.float32):
        self.name = name
        self.spec = spec
        self.dtype = dtype

    def __getattr__(self, attr):
        # reached only while w and b are unset; both are set at once, so a
        # layer holds either neither or both
        if attr not in ("w", "b"):
            raise AttributeError(attr)
        self.w = np.zeros(self.spec.weight_shape(), dtype=self.dtype)
        self.b = np.zeros(self.spec.out_channels, dtype=self.dtype)
        return getattr(self, attr)

    def init_params(self, rng):
        # He fan-in initialization, zero bias
        fan_in = self.spec.in_channels * int(np.prod(self.spec.kernel))
        std = np.sqrt(2.0 / fan_in)
        self.w[...] = rng.normal(0.0, std, self.w.shape)

    def parameters(self):
        return {f"{self.name}.w": self.w, f"{self.name}.b": self.b}

    def forward(self, x, ctx):
        return ops.conv3d(x, self.w, self.b, self.spec), x

    def backward(self, grad_out, cache, grads):
        gx, gw, gb = ops.conv3d_backward(cache, self.w, grad_out, self.spec)
        grads[f"{self.name}.w"] = gw
        grads[f"{self.name}.b"] = gb
        return gx


class ReLU:
    def forward(self, x, ctx):
        # the backward reads only the sign, so a TRAIN cache is the bool x > 0
        return ops.relu(x), (x > 0 if ctx.mode == TRAIN else None)

    def backward(self, grad_out, cache, grads):
        return ops.relu_backward(grad_out, cache)


class Sigmoid:
    def forward(self, x, ctx):
        y = ops.sigmoid(x)
        return y, y

    def backward(self, grad_out, cache, grads):
        return ops.sigmoid_backward(grad_out, cache)


class Dropout:
    """Voxel-wise inverted dropout; identity when inferring or rate is 0."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, ctx):
        if ctx.mode != TRAIN or self.rate == 0.0:
            return x, None
        if ctx.rng is None:
            raise ShapeError("training forward needs a seeded Context rng for dropout")
        y, mask = ops.dropout(x, self.rate, ctx.rng)
        return y, mask

    def backward(self, grad_out, cache, grads):
        if cache is None:
            return grad_out
        return ops.dropout_backward(grad_out, cache, self.rate)


class MaxPool3d:
    def __init__(self, window=(2, 2, 2), stride=(2, 2, 2), padding=ops.VALID):
        self.window = window
        self.stride = stride
        self.padding = padding

    def forward(self, x, ctx):
        # the route is the input itself, so it also carries the input shape
        return ops.maxpool3d(x, self.window, self.stride, self.padding)

    def backward(self, grad_out, route, grads):
        return ops.maxpool3d_backward(grad_out, route, route.shape,
                                      self.window, self.stride, self.padding)


class UpsampleNearest:
    def forward(self, x, ctx):
        return ops.upsample_nearest(x), None

    def backward(self, grad_out, cache, grads):
        return ops.upsample_nearest_backward(grad_out)


class Chain:
    """Run layers in sequence; backward replays them in reverse."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, ctx):
        caches = []
        for layer in self.layers:
            x, cache = call(layer, x, ctx)
            caches.append(cache)
        return x, caches

    def backward(self, grad_out, caches, grads):
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            grad_out = back(layer, grad_out, cache, grads)
        return grad_out


class Concat:
    """Run every member on one input and concatenate their outputs on the
    channel axis; backward sums the members' input gradients in order."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, ctx):
        outs, caches = [], []
        for layer in self.layers:
            y, cache = call(layer, x, ctx)
            outs.append(y)
            caches.append(cache)
        return ops.concat_channels(outs), (caches, [y.shape[1] for y in outs])

    def backward(self, grad_out, cache, grads):
        caches, widths = cache
        pieces = ops.concat_channels_backward(grad_out, widths)
        grad_x = None
        for layer, piece, c in zip(self.layers, pieces, caches):
            g = back(layer, piece, c, grads)
            grad_x = g if grad_x is None else grad_x + g
        return grad_x


def walk(layer):
    """Yield the leaf layers under layer in build order, descending into
    the members of every Chain and Concat."""
    if isinstance(layer, (Chain, Concat)):
        for sub in layer.layers:
            yield from walk(sub)
    else:
        yield layer


def parameters(root):
    """Stable name -> live array mapping of every Conv3d under root, in
    build order."""
    out = {}
    for layer in walk(root):
        if isinstance(layer, Conv3d):
            for name, arr in layer.parameters().items():
                if name in out:
                    raise ShapeError(f"duplicate parameter name {name}")
                out[name] = arr
    return out


def parameter_count(root):
    """Weights and biases of every Conv3d under root, counted from the
    specs alone: nothing is allocated."""
    return sum(math.prod(layer.spec.weight_shape()) + layer.spec.out_channels
               for layer in walk(root) if isinstance(layer, Conv3d))


def init_params(root, rng):
    """He-initialize every Conv3d under root in build order; returns root."""
    for layer in walk(root):
        if isinstance(layer, Conv3d):
            layer.init_params(rng)
    return root


def conv_unit(name, in_channels, out_channels, kernel, stride=1, dropout_rate=0.0,
              dtype=np.float32):
    """conv -> ReLU -> dropout, the repeating unit of every hidden layer."""
    k = (kernel, kernel, kernel)
    s = (stride, stride, stride)
    spec = ConvSpec(in_channels, out_channels, k, s, ops.SAME)
    return Chain([Conv3d(name, spec, dtype), ReLU(), Dropout(dropout_rate)])
