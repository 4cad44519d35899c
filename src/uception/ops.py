"""Primitive layer operations: forward and exact reverse-mode backward.

Convolution is cross-correlation (no kernel flip), summed directly in the
spatial domain. It runs one (dz, dy) kernel row at a time: the kw shifted
input slices of the row are copied into one reused (n, kw*in_c, voxels)
buffer, and one (out_c, kw*in_c) matmul consumes it. Peak scratch memory is
one padded input plus kw volume copies, not a full im2col matrix, and 1-cube
kernels read the input directly, without a copy. Direct summation keeps
structural zeros exact: a weight tap that meets only zero or out-of-range
voxels gets a gradient of exactly 0.0, and such a tap adds nothing to the
output. For stride 1 the input gradient is the same row-batched correlation,
of the gradient with the flipped, channel-transposed kernel.

Max pooling runs as three 1-D passes (width, then height, then depth) and
records the winning tap of each pass; see ``maxpool3d``.

All functions are pure: they allocate their outputs and never mutate
arguments. Dropout takes an explicit seed or Generator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import AXES

SAME = "same"
VALID = "valid"


@dataclass(frozen=True)
class ConvSpec:
    """Static geometry of one convolution."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: str = SAME

    def __post_init__(self):
        if self.in_channels <= 0 or self.out_channels <= 0:
            raise ShapeError("channel counts must be positive")
        if len(self.kernel) != 3 or len(self.stride) != 3:
            raise ShapeError("kernel and stride must be 3-tuples")
        for k in self.kernel:
            if k <= 0 or k % 2 == 0:
                raise ShapeError(f"kernel extents must be odd and positive, got {self.kernel}")
        for s in self.stride:
            if s <= 0:
                raise ShapeError(f"strides must be positive, got {self.stride}")
        if self.padding not in (SAME, VALID):
            raise ShapeError(f"padding must be 'same' or 'valid', got {self.padding!r}")

    @property
    def pad(self):
        if self.padding == SAME:
            return tuple((k - 1) // 2 for k in self.kernel)
        return (0, 0, 0)

    def out_spatial(self, in_spatial):
        """floor((in + 2*pad - k) / stride) + 1 per axis."""
        out = []
        for ax, (n, k, s, p) in enumerate(zip(in_spatial, self.kernel, self.stride, self.pad)):
            m = (n + 2 * p - k) // s + 1
            if m < 1:
                raise ShapeError(
                    f"kernel {k} does not fit input extent {n} on axis {AXES[ax + 2]!r}",
                    axis=AXES[ax + 2],
                )
            out.append(m)
        return tuple(out)

    def weight_shape(self):
        return (self.out_channels, self.in_channels) + tuple(self.kernel)


def _check_conv_args(x, weights, spec):
    if x.ndim != 5:
        raise ShapeError(f"conv3d input must be 5-axis, got ndim={x.ndim}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"conv3d: axis 'channel' has extent {x.shape[1]}, spec expects {spec.in_channels}",
            axis="channel",
        )
    if tuple(weights.shape) != spec.weight_shape():
        raise ShapeError(
            f"conv3d: weight shape {tuple(weights.shape)} does not match spec {spec.weight_shape()}"
        )


def _check_frame(what, shape, expect):
    """Raise ShapeError naming the first axis where shape differs from expect."""
    if len(shape) != 5:
        raise ShapeError(f"{what} must be 5-axis, got ndim={len(shape)}")
    for ax, (got, want) in enumerate(zip(shape, expect)):
        if got != want:
            raise ShapeError(f"{what}: axis {AXES[ax]!r} has extent {got}, expected {want}",
                             axis=AXES[ax])


def _pad_input(x, pad, below=0):
    """Zero-pad the spatial axes by pad, plus `below` extra rows at the bottom."""
    pd, ph, pw = pad
    if pd == 0 and ph == 0 and pw == 0 and below == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph + below), (pw, pw)))


def _rows(x, pad, kernel, stride, out_spatial):
    """Column matrices of a correlation over x zero-padded by pad.

    Returns (width, rows): rows yields (dz, dy, cols) for each kernel row,
    where cols is (n, kw*c, voxels), the kw input slices of the row shifted
    by dx and stacked tap-major along the channel axis, in one buffer reused
    for every row. The voxels run over a (do, ho, width) grid. For stride 1
    the grid is wide: each output row runs on over the kw-1 padded columns
    after it, so width is the padded width and every slice is one contiguous
    run per plane; no output uses the columns past wo. With kw == 1 and no
    padding, cols is a view of x.
    """
    n, c = x.shape[:2]
    kd, kh, kw = kernel
    sd, sh, sw = stride
    do, ho, wo = out_spatial
    if stride == (1, 1, 1):
        # one extra zero row keeps the last kernel row's runs inside their plane
        xp = _pad_input(x, pad, below=1 if kw > 1 else 0)
        width = xp.shape[4]
        planes = xp.reshape(n, c, xp.shape[2], -1)

        def taps(dz, dy, dx):
            start = dy * width + dx
            return planes[:, :, dz:dz + do, start:start + ho * width]
    else:
        xp = _pad_input(x, pad)
        width = wo

        def taps(dz, dy, dx):
            return xp[:, :, dz:dz + sd * do:sd, dy:dy + sh * ho:sh, dx:dx + sw * wo:sw]

    def rows():
        if kw == 1:
            for dz in range(kd):
                for dy in range(kh):
                    yield dz, dy, taps(dz, dy, 0).reshape(n, c, -1)
            return
        buf = np.empty((n, kw, c) + taps(0, 0, 0).shape[2:], dtype=x.dtype)
        for dz in range(kd):
            for dy in range(kh):
                for dx in range(kw):
                    buf[:, dx] = taps(dz, dy, dx)
                yield dz, dy, buf.reshape(n, kw * c, -1)

    return width, rows()


def _row_weights(weights):
    """(out_c, in_c, kd, kh, kw) -> (kd, kh, out_c, kw*in_c), the layout _rows stacks."""
    out_c, in_c, kd, kh, kw = weights.shape
    return weights.transpose(2, 3, 0, 4, 1).reshape(kd, kh, out_c, kw * in_c)


def _correlate(x, pad, weights, stride, out_spatial):
    """Cross-correlation of x zero-padded by pad, (n, out_c) + out_spatial."""
    n = x.shape[0]
    out_c, _, kd, kh, _ = weights.shape
    do, ho, wo = out_spatial
    wrows = _row_weights(weights)
    width, rows = _rows(x, pad, weights.shape[2:], stride, out_spatial)
    out = np.empty((n, out_c, do * ho * width), dtype=x.dtype)
    part = np.empty_like(out) if kd * kh > 1 else None
    for i, (dz, dy, cols) in enumerate(rows):
        np.matmul(wrows[dz, dy], cols, out=part if i else out)
        if i:
            out += part
    out = out.reshape(n, out_c, do, ho, width)
    return np.ascontiguousarray(out[..., :wo]) if width != wo else out


def conv3d(x, weights, bias, spec):
    """3D cross-correlation with per-output-channel bias.

    x: (n, in_c, d, h, w); weights: (out_c, in_c, kd, kh, kw); bias: (out_c,).
    """
    x = np.asarray(x)
    weights = np.asarray(weights, dtype=x.dtype)
    _check_conv_args(x, weights, spec)
    out = _correlate(x, spec.pad, weights, spec.stride, spec.out_spatial(x.shape[2:]))
    if bias is not None:
        bias = np.asarray(bias, dtype=x.dtype)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(
                f"conv3d: bias length {bias.shape} does not match out_channels {spec.out_channels}"
            )
        out += bias[None, :, None, None, None]
    return out


def conv3d_backward(x, weights, grad_out, spec):
    """Exact gradients of conv3d wrt input, weights and bias.

    The weight gradient is summed per kernel row like the forward. For
    stride 1 the input gradient is the correlation of grad_out with the
    flipped, channel-transposed kernel; strided convs scatter it back per
    kernel tap.
    """
    x = np.asarray(x)
    weights = np.asarray(weights, dtype=x.dtype)
    grad_out = np.asarray(grad_out, dtype=x.dtype)
    _check_conv_args(x, weights, spec)
    n = x.shape[0]
    out_c, in_c, kd, kh, kw = weights.shape
    sd, sh, sw = spec.stride
    do, ho, wo = out_sp = spec.out_spatial(x.shape[2:])
    _check_frame("conv3d_backward: grad_out", grad_out.shape, (n, out_c) + out_sp)
    strided = spec.stride != (1, 1, 1)
    if strided:
        padded = tuple(e + 2 * p for e, p in zip(x.shape[2:], spec.pad))
        grad_xp = np.zeros(x.shape[:2] + padded, dtype=x.dtype)
        wcols = _row_weights(weights).transpose(0, 1, 3, 2)
    else:
        flipped = weights[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        back_pad = tuple(k - 1 - p for k, p in zip(spec.kernel, spec.pad))
        grad_x = _correlate(grad_out, back_pad, flipped, (1, 1, 1), x.shape[2:])
    width, rows = _rows(x, spec.pad, spec.kernel, spec.stride, out_sp)
    gy = grad_out
    if width != wo:
        # a zero gradient on the unused columns keeps their products exactly 0
        gy = np.zeros((n, out_c, do, ho, width), dtype=x.dtype)
        gy[..., :wo] = grad_out
    gy = gy.reshape(n, out_c, -1)
    grad_w = np.empty_like(weights)
    for dz, dy, cols in rows:
        gw = np.matmul(gy, cols.transpose(0, 2, 1)).sum(axis=0)
        grad_w[:, :, dz, dy] = gw.reshape(out_c, kw, in_c).transpose(0, 2, 1)
        if strided:
            gcols = np.matmul(wcols[dz, dy], gy).reshape(n, kw, in_c, do, ho, wo)
            for dx in range(kw):
                # fixed tap -> injective output-to-voxel map, slice add is safe
                grad_xp[:, :, dz:dz + sd * do:sd, dy:dy + sh * ho:sh,
                        dx:dx + sw * wo:sw] += gcols[:, dx]
    if strided:
        pd, ph, pw = spec.pad
        d, h, w = x.shape[2:]
        grad_x = grad_xp[:, :, pd:pd + d, ph:ph + h, pw:pw + w]
        if pd or ph or pw:
            grad_x = np.ascontiguousarray(grad_x)
    grad_b = grad_out.reshape(n, out_c, -1).sum(axis=(0, 2))
    return grad_x, grad_w, grad_b


def _pool_geometry(shape, window, stride, padding):
    if padding not in (SAME, VALID):
        raise ShapeError(f"maxpool3d: padding must be 'same' or 'valid', got {padding!r}")
    pad = tuple((k - 1) // 2 for k in window) if padding == SAME else (0, 0, 0)
    out = []
    for ax, (nn, k, s, p) in enumerate(zip(shape, window, stride, pad)):
        span = nn + 2 * p - k
        if span < 0 or span % s != 0:
            raise ShapeError(
                f"maxpool3d: extent {nn} on axis {AXES[ax + 2]!r} is not tileable by "
                f"window {k} stride {s} ({padding} mode)",
                axis=AXES[ax + 2],
            )
        out.append(span // s + 1)
    return tuple(out), pad


def _tap_slices(axis, t, n, s, p, m):
    """Index tuples of the outputs whose tap t lands inside an input extent
    n, and of the input voxels it lands on; None when there are none."""
    lo = max(0, -((t - p) // s))
    hi = min(m, (n - 1 + p - t) // s + 1)
    if hi <= lo:
        return None
    lead = (slice(None),) * axis
    return lead + (slice(lo, hi),), lead + (slice(lo * s - p + t, (hi - 1) * s - p + t + 1, s),)


def _max_pass(x, axis, k, s, p, m):
    """1-D max over k taps along axis; returns (max, winning tap as int8)."""
    shape = x.shape[:axis] + (m,) + x.shape[axis + 1:]
    out = np.full(shape, -np.inf, dtype=x.dtype)
    tap = np.zeros(shape, dtype=np.int8)
    better = np.empty(shape, dtype=bool)
    bits = np.dtype(f"i{x.dtype.itemsize}")
    for t in range(k):
        sl = _tap_slices(axis, t, x.shape[axis], s, p, m)
        if sl is None:
            continue
        o, i = sl
        xs, dst, b = x[i], out[o], better[o]
        if t == 0:
            # out is still -inf here: every x wins except NaN and -inf
            np.fmax(xs, -np.inf, out=dst)
            continue
        np.greater(xs, dst, out=b)
        # select xs where better by xor-ing bit patterns: np.where and masked
        # copies branch per voxel and mispredict on the mixed masks of ReLU
        # outputs, which made them several times slower
        flip = xs.view(bits) ^ dst.view(bits)
        flip &= -b.view(np.int8)
        dst_bits = dst.view(bits)
        dst_bits ^= flip
        # a later winner has the larger tap, so the last one to win is the max
        np.maximum(tap[o], b.view(np.int8) * np.int8(t), out=tap[o])
    return out, tap


def _max_pass_backward(g, tap, axis, k, s, p, n):
    """Adjoint of _max_pass: add each gradient to the voxel of its winning tap."""
    grad = np.zeros(g.shape[:axis] + (n,) + g.shape[axis + 1:], dtype=g.dtype)
    for t in range(k):
        sl = _tap_slices(axis, t, n, s, p, g.shape[axis])
        if sl is None:
            continue
        o, i = sl
        # fixed tap -> injective output-to-voxel map, slice add is safe
        grad[i] += g[o] * (tap[o] == t)
    return grad


def maxpool3d(x, window=(2, 2, 2), stride=(2, 2, 2), padding=VALID):
    """Max pooling; returns (pooled, route), the route being what
    maxpool3d_backward needs to send each gradient to its window's winner.

    The pool runs as three 1-D passes, width, then height, then depth. Each
    keeps the first strict maximum, so ties go to the first tap in raster
    (depth, height, width) order, a NaN never wins, and a window with no
    value above -inf pools to -inf. The route is a tuple of three int8
    arrays, one per pass, holding the winning tap along that pass's axis;
    callers treat it as opaque. Valid mode requires each spatial extent to
    tile exactly (even extents for the default 2-cube); Same mode skips taps
    beyond the border, so border maxima come only from real voxels.
    """
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeError(f"maxpool3d input must be 5-axis, got ndim={x.ndim}")
    out_sp, pad = _pool_geometry(x.shape[2:], window, stride, padding)
    route = []
    for axis in (4, 3, 2):
        a = axis - 2
        x, tap = _max_pass(x, axis, window[a], stride[a], pad[a], out_sp[a])
        route.append(tap)
    return x, tuple(route)


def maxpool3d_backward(grad_out, argmax, in_shape, window=(2, 2, 2), stride=(2, 2, 2),
                       padding=VALID):
    """Route each output gradient to the voxel that won its window.

    argmax is the route maxpool3d returned; the three 1-D adjoints run in
    reverse pass order (depth, height, width).
    """
    grad_out = np.asarray(grad_out)
    in_shape = tuple(in_shape)
    if len(in_shape) != 5:
        raise ShapeError(f"maxpool3d_backward: in_shape must be 5-axis, got {in_shape}")
    out_sp, pad = _pool_geometry(in_shape[2:], window, stride, padding)
    _check_frame("maxpool3d_backward: grad_out", grad_out.shape, in_shape[:2] + out_sp)
    g = grad_out
    for axis, tap in zip((2, 3, 4), reversed(argmax)):
        a = axis - 2
        g = _max_pass_backward(g, tap, axis, window[a], stride[a], pad[a], in_shape[axis])
    return g


def upsample_nearest(x, factor=2):
    """Replicate every voxel over a factor^3 block."""
    x = np.asarray(x)
    y = x.repeat(factor, axis=2).repeat(factor, axis=3).repeat(factor, axis=4)
    return y


def upsample_nearest_backward(grad_out, factor=2):
    """Adjoint of replication: sum each factor^3 block."""
    g = np.asarray(grad_out)
    n, c, d, h, w = g.shape
    if d % factor or h % factor or w % factor:
        raise ShapeError("upsample backward: grad extents not divisible by factor")
    g = g.reshape(n, c, d // factor, factor, h // factor, factor, w // factor, factor)
    return g.sum(axis=(3, 5, 7))


def concat_channels(xs):
    """Concatenate along the channel axis; all inputs share (n, d, h, w)."""
    xs = [np.asarray(x) for x in xs]
    if not xs:
        raise ShapeError("concat_channels: empty input sequence")
    head = xs[0]
    for i, x in enumerate(xs[1:], start=1):
        if x.shape[0] != head.shape[0] or x.shape[2:] != head.shape[2:]:
            raise ShapeError(
                f"concat_channels: input {i} has frame {x.shape[0], *x.shape[2:]}, "
                f"expected {head.shape[0], *head.shape[2:]}"
            )
    if len(xs) == 1:
        return head.copy()
    return np.concatenate(xs, axis=1)


def concat_channels_backward(grad_out, channel_counts):
    """Slice the gradient back per input, in order."""
    grads = []
    start = 0
    for c in channel_counts:
        grads.append(np.ascontiguousarray(grad_out[:, start:start + c]))
        start += c
    if start != grad_out.shape[1]:
        raise ShapeError(
            f"concat_channels_backward: channel counts sum to {start}, "
            f"gradient has {grad_out.shape[1]}"
        )
    return grads


def relu(x):
    return np.maximum(x, 0)


def relu_backward(grad_out, x):
    return grad_out * (x > 0)


def sigmoid(x):
    # evaluate on the negative half-line only, so exp never overflows
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(grad_out, y):
    return grad_out * y * (1.0 - y)


def _as_generator(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def dropout(x, rate, rng):
    """Inverted dropout: zero each voxel with probability rate, scale survivors.

    rng is an integer seed or a numpy Generator. Returns (output, keep mask).
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    x = np.asarray(x)
    if rate == 0.0:
        return x.copy(), np.ones_like(x)
    gen = _as_generator(rng)
    mask = (gen.random(x.shape) >= rate).astype(x.dtype)
    return x * mask * (1.0 / (1.0 - rate)), mask


def dropout_backward(grad_out, mask, rate):
    if rate == 0.0:
        return np.asarray(grad_out).copy()
    return grad_out * mask * (1.0 / (1.0 - rate))
