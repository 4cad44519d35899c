"""Primitive layer operations: forward and exact reverse-mode backward.

Convolution is cross-correlation (no kernel flip), summed directly in the
spatial domain. It runs one batch item and one (dz, dy) kernel row at a
time: the kw shifted input slices of the row are stacked into one
(kw*in_c, voxels) matrix, and one (out_c, kw*in_c) matmul consumes it. For
stride 1 the rows run dy-major: each (dy, dx) slice is copied once across
all do+kd-1 padded depth planes, and the kd rows of that dy are views of
the one buffer at depth offsets dz; those kd views are made once per call
and stay valid as the buffer is refilled for each item and dy. Each item's
padded input is one np.zeros allocation with the item copied into its
interior by one slice assignment, not np.pad, whose generic set-up costs
several times that copy at desk shapes. So the scratch beyond the output
is one item's: its padded input, that buffer of kw*in_c*(do+kd-1)*ho*width
values with width the padded width (not a full im2col matrix), the row
product and its accumulator; 1-cube kernels read the input directly,
without a copy. The weight gradient adds the items' row products in
order, which gives the bits of one batched product summed over the batch.
Direct summation keeps structural zeros exact: a weight tap that meets
only zero or out-of-range voxels gets a gradient of exactly 0.0, and such
a tap adds nothing to the output. For stride 1 the input gradient is the
same row-wise correlation, of the gradient with the flipped,
channel-transposed kernel.

Max pooling runs as three 1-D passes (width, then height, then depth). The
forward computes values only and returns its input as the route; the
backward runs the passes again on that input, recording the winning tap of
each, then routes the gradient. The input must therefore not be modified
between the two; see ``maxpool3d``. A stride-1 same-mode pass runs each tap
as one shifted slice of the flattened array, so numpy starts one loop per
tap rather than one per row. The shift wraps the taps of the outputs at one
end of the axis into the neighbouring row, plane, channel or batch item;
those outputs form one slab, which the forward puts back and the backward
zeroes before its shifted add. The backward works on one slab of whole
(batch, channel) planes at a time, about _POOL_SLAB voxels: pooling never
mixes planes, so this is exact, and its tap arrays and scratch stay one
slab's.

ReLU and dropout backwards read one bit per voxel: relu_backward takes
the bool mask x > 0, not x, and dropout's keep mask is bool.

All functions are pure: they never mutate arguments, and they allocate
their outputs, except concat_channels_backward, whose pieces are views of
its gradient. Dropout takes an explicit seed or Generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import AXES

SAME = "same"
VALID = "valid"
# voxels per slab of whole planes that maxpool3d_backward works on at a
# time. Measured on the desk pools: 2^16 and 2^17 ran the (2, 48, 16-cube)
# backward fastest, and 2^16 gives the lower peak of a training step.
_POOL_SLAB = 1 << 16


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
    """Zero-pad the last three (spatial) axes by pad, plus `below` extra rows
    at the bottom.

    Returns x itself when there is nothing to pad, else a new C-contiguous
    array: one zeroed allocation and one slice copy of x into its interior.
    """
    pd, ph, pw = pad
    if pd == 0 and ph == 0 and pw == 0 and below == 0:
        return x
    *lead, d, h, w = x.shape
    xp = np.zeros((*lead, d + 2 * pd, h + 2 * ph + below, w + 2 * pw), dtype=x.dtype)
    xp[..., pd:pd + d, ph:ph + h, pw:pw + w] = x
    return xp


def _rows(x, pad, kernel, stride, out_spatial):
    """Column matrices of a correlation over x zero-padded by pad, one batch
    item at a time.

    Returns (width, rows): rows(b) yields (dz, dy, cols) for each kernel row
    of batch item b, where cols is (kw*c, voxels), the kw input slices of the
    row shifted by dx and stacked tap-major along the channel axis. The
    voxels run over a (do, ho, width) grid. For stride 1 the grid is wide:
    each output row runs on over the kw-1 padded columns after it, so width
    is the padded width and every slice is one contiguous run per plane; no
    output uses the columns past wo.

    Stride-1 rows come dy-major and share the depth axis. For each (dy, dx)
    the shifted slice is copied once across all do+kd-1 padded planes into
    one (kw, c, do+kd-1, ho*width) buffer, so the kd rows of that dy are
    views of it at depth offsets dz, with a uniform row stride that matmul
    reads without a copy. The buffer and its kd views are built once per
    call: each item and each dy refill the buffer in place, so the same
    views then show that row. Its scratch is kw*c*(do+kd-1)*ho*width values,
    for one item. Strided rows come dz-major, copied into one reused buffer
    of kw*c*do*ho*wo values. With kw == 1 and no padding, cols is a view of
    x. Each item is padded on its own by _pad_input.
    """
    c, w = x.shape[1], x.shape[4]
    kd, kh, kw = kernel
    sd, sh, sw = stride
    do, ho, wo = out_spatial
    flat = stride == (1, 1, 1)
    # one extra zero row keeps the last kernel row's runs inside their plane
    below = 1 if flat and kw > 1 else 0
    width = w + 2 * pad[2] if flat else wo
    if kw > 1 and flat:
        depth = do + kd - 1
        buf = np.empty((kw, c, depth, ho * width), dtype=x.dtype)
        # buf is refilled in place, so these views stay valid
        views = [buf[:, :, dz:dz + do].reshape(kw * c, -1) for dz in range(kd)]
    elif kw > 1:
        buf = np.empty((kw, c, do, ho, wo), dtype=x.dtype)

    def rows(b):
        xp = _pad_input(x[b], pad, below)
        if kw == 1:
            for dz in range(kd):
                for dy in range(kh):
                    cols = xp[:, dz:dz + sd * do:sd, dy:dy + sh * ho:sh, :sw * wo:sw]
                    yield dz, dy, cols.reshape(c, -1)
            return
        if flat:
            planes = xp.reshape(c, depth, -1)
            for dy in range(kh):
                for dx in range(kw):
                    start = dy * width + dx
                    buf[dx] = planes[:, :, start:start + ho * width]
                for dz in range(kd):
                    yield dz, dy, views[dz]
            return
        for dz in range(kd):
            for dy in range(kh):
                for dx in range(kw):
                    buf[dx] = xp[:, dz:dz + sd * do:sd, dy:dy + sh * ho:sh, dx:dx + sw * wo:sw]
                yield dz, dy, buf.reshape(kw * c, -1)

    return width, rows


def _row_weights(weights):
    """(out_c, in_c, kd, kh, kw) -> (kd, kh, out_c, kw*in_c), the layout _rows stacks."""
    out_c, in_c, kd, kh, kw = weights.shape
    return weights.transpose(2, 3, 0, 4, 1).reshape(kd, kh, out_c, kw * in_c)


def _correlate(x, pad, weights, stride, out_spatial):
    """Cross-correlation of x zero-padded by pad, (n, out_c) + out_spatial.

    Items run one at a time: the row sums of one item go into one
    (out_c, voxels) accumulator, and each row's matmul into one `part`
    buffer of that size, so the scratch beyond the output is one item's.
    The accumulator is the item's slice of the output unless the wide
    stride-1 grid needs cropping.
    """
    n = x.shape[0]
    out_c, _, kd, kh, _ = weights.shape
    do, ho, wo = out_spatial
    wrows = _row_weights(weights)
    width, rows = _rows(x, pad, weights.shape[2:], stride, out_spatial)
    out = np.empty((n, out_c) + tuple(out_spatial), dtype=x.dtype)
    items = out.reshape(n, out_c, -1)
    wide = np.empty((out_c, do * ho * width), dtype=x.dtype) if width != wo else None
    part = np.empty((out_c, do * ho * width), dtype=x.dtype) if kd * kh > 1 else None
    for b in range(n):
        acc = items[b] if wide is None else wide
        for i, (dz, dy, cols) in enumerate(rows(b)):
            np.matmul(wrows[dz, dy], cols, out=part if i else acc)
            if i:
                acc += part
        if wide is not None:
            out[b] = wide.reshape(out_c, do, ho, width)[..., :wo]
    return out


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

    The weight gradient is summed per kernel row like the forward, one
    batch item at a time, and the items are added in order, which gives the
    bits of a sum over the batch axis. Each row's product is formed as
    (cols @ gy.T).T: with OpenBLAS it gave the same f64 bits at 1 to 4
    threads, where gy @ cols.T gave other bits at 1 thread than at 2. For
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
        pd, ph, pw = spec.pad
        d, h, w = x.shape[2:]
        grad_x = np.empty(x.shape, dtype=x.dtype)
        wcols = _row_weights(weights).transpose(0, 1, 3, 2)
    else:
        flipped = weights[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        back_pad = tuple(k - 1 - p for k, p in zip(spec.kernel, spec.pad))
        grad_x = _correlate(grad_out, back_pad, flipped, (1, 1, 1), x.shape[2:])
    width, rows = _rows(x, spec.pad, spec.kernel, spec.stride, out_sp)
    # a zero gradient on the unused columns keeps their products exactly 0
    wide = np.zeros((out_c, do, ho, width), dtype=x.dtype) if width != wo else None
    # row products in the layout they come in, (kd, kh, kw*in_c, out_c)
    gw = np.empty((kd, kh, kw * in_c, out_c), dtype=x.dtype)
    for b in range(n):
        if wide is None:
            gy = grad_out[b].reshape(out_c, -1)
        else:
            wide[..., :wo] = grad_out[b]
            gy = wide.reshape(out_c, -1)
        if strided:
            grad_xp = np.zeros((in_c, d + 2 * pd, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        for dz, dy, cols in rows(b):
            if b:
                gw[dz, dy] += np.matmul(cols, gy.T)
            else:
                np.matmul(cols, gy.T, out=gw[dz, dy])
            if strided:
                gcols = np.matmul(wcols[dz, dy], gy).reshape(kw, in_c, do, ho, wo)
                for dx in range(kw):
                    # fixed tap -> injective output-to-voxel map, slice add is safe
                    grad_xp[:, dz:dz + sd * do:sd, dy:dy + sh * ho:sh,
                            dx:dx + sw * wo:sw] += gcols[dx]
        if strided:
            grad_x[b] = grad_xp[:, pd:pd + d, ph:ph + h, pw:pw + w]
    grad_w = np.ascontiguousarray(gw.reshape(kd, kh, kw, in_c, out_c).transpose(4, 3, 0, 1, 2))
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


def _shift_slices(axis, off, shape):
    """Tap offset off along axis of a C-contiguous array as one flat run:
    (o, i, wrapped), o and i the flat slices that pair output j with voxel
    j + off * (row length), and wrapped the index tuple of the output slab
    whose voxel the shift took from the neighbouring row, plane, channel or
    batch item: axis index n-off..n for off > 0, 0..-off for off < 0."""
    n, size = shape[axis], math.prod(shape)
    d = off * math.prod(shape[axis + 1:])
    lead = (slice(None),) * axis
    if off >= 0:
        return (slice(0, size - d),), (slice(d, size),), lead + (slice(n - off, n),)
    return (slice(-d, size),), (slice(0, size + d),), lead + (slice(0, -off),)


def _max_pass(x, axis, k, s, p, m, record):
    """1-D max over k taps along axis of a NaN-free x; returns (max, tap),
    tap being the winning tap as int8 when record is set, else None.

    The running max starts at -inf, and each tap's slice goes through
    np.maximum(slice, running, out=running), which keeps the running value
    on ties, ±0 included, so the first strict maximum wins.

    A stride-1 pass that keeps its extent (same mode) runs each tap as one
    flat shifted run over the whole array, not one slice per row. The
    outputs whose voxel the run wrapped in from the neighbouring row, plane,
    channel or batch item form one slab (_shift_slices); its running maxima
    and taps are kept before the tap and put back after it. Such a pass
    starts from a copy of tap 0, which is what the maximum against -inf
    gives, with -inf in tap 0's wrapped slab.
    """
    n = x.shape[axis]
    shape = x.shape[:axis] + (m,) + x.shape[axis + 1:]
    flat = s == 1 and m == n
    # a flat pass's tap 0, when it lands inside the input, sets every output
    out = np.empty(shape, x.dtype) if flat and n > p else np.full(shape, -np.inf, x.dtype)
    tap = np.zeros(shape, dtype=np.int8) if record else None
    better = np.empty(shape, dtype=bool) if record else None
    views = (x, out, tap, better)
    if flat:  # reshape copies x only when x is not C-contiguous
        views = tuple(None if a is None else a.reshape(-1) for a in views)
    xv, outv, tapv, betterv = views
    for t in range(k):
        sl = _tap_slices(axis, t, n, s, p, m)
        if sl is None:
            continue
        o, i, wrapped = _shift_slices(axis, t - p, shape) if flat else sl + (None,)
        xs, dst = xv[i], outv[o]
        if flat and t == 0:
            np.copyto(dst, xs)
            out[wrapped] = -np.inf
            continue
        kept = [(a, a[wrapped].copy()) for a in (out, tap) if a is not None] if flat else []
        if record and t:
            b = betterv[o]
            np.greater(xs, dst, out=b)
            # a later winner has the larger tap, so the last one to win is the max
            np.maximum(tapv[o], b.view(np.int8) * np.int8(t), out=tapv[o])
        np.maximum(xs, dst, out=dst)
        for a, v in kept:
            a[wrapped] = v
    return out, tap


def _max_passes(x, window, stride, pad, out_sp, record):
    """The three 1-D passes (width, height, depth); returns (pooled, taps),
    taps holding each pass's tap array in pass order."""
    x = np.fmax(x, -np.inf)  # a NaN pools as -inf, so it never wins
    taps = []
    for axis in (4, 3, 2):
        a = axis - 2
        x, tap = _max_pass(x, axis, window[a], stride[a], pad[a], out_sp[a], record)
        taps.append(tap)
    return x, taps


def _max_pass_backward(g, tap, axis, k, s, p, n, grad=None):
    """Adjoint of _max_pass: add each gradient to the voxel of its winning tap.

    The result goes into grad when one is given (it is zeroed first), else
    into a new array.

    A pass that ran as flat shifted runs routes the same way: each tap's
    share g * (tap == t) goes into one buffer, the wrapped slab's share is
    set to -0.0, which leaves any sum's bits as they are, ±0 included, and
    one flat shifted add moves the buffer onto the gradient.
    """
    shape = g.shape[:axis] + (n,) + g.shape[axis + 1:]
    if grad is None:
        grad = np.zeros(shape, dtype=g.dtype)
    else:
        grad[...] = 0
    flat = s == 1 and g.shape[axis] == n
    if flat:
        share = np.empty(shape, dtype=g.dtype)
        winner = np.empty(shape, dtype=bool)
        gradv, sharev = grad.reshape(-1), share.reshape(-1)
    for t in range(k):
        sl = _tap_slices(axis, t, n, s, p, g.shape[axis])
        if sl is None:
            continue
        if flat:
            o, i, wrapped = _shift_slices(axis, t - p, shape)
            np.multiply(g, np.equal(tap, t, out=winner), out=share)
            share[wrapped] = -0.0
            gradv[i] += sharev[o]
        else:
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
    value above -inf pools to -inf. The forward computes values only: the
    route is x itself, not a copy, and maxpool3d_backward recomputes the
    winners from it, so x must not be modified before the backward. Valid
    mode requires each spatial extent to tile exactly (even extents for the
    default 2-cube); Same mode skips taps beyond the border, so border
    maxima come only from real voxels.
    """
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeError(f"maxpool3d input must be 5-axis, got ndim={x.ndim}")
    out_sp, pad = _pool_geometry(x.shape[2:], window, stride, padding)
    pooled, _ = _max_passes(x, window, stride, pad, out_sp, record=False)
    return pooled, x


def maxpool3d_backward(grad_out, route, in_shape, window=(2, 2, 2), stride=(2, 2, 2),
                       padding=VALID):
    """Route each output gradient to the voxel that won its window.

    route is what maxpool3d returned beside its output: its input. The
    three passes run again on it, recording each pass's winning tap, and
    the three 1-D adjoints then run in reverse pass order (depth, height,
    width).

    Pooling never mixes the (batch, channel) planes, so the recompute and
    the adjoints run over one slab of whole planes at a time, about
    _POOL_SLAB voxels, and the last adjoint of each slab writes into its
    planes of the one output array. The tap arrays and the scratch of a
    pass are therefore one slab's, not the whole input's.
    """
    grad_out = np.asarray(grad_out)
    in_shape = tuple(in_shape)
    if len(in_shape) != 5:
        raise ShapeError(f"maxpool3d_backward: in_shape must be 5-axis, got {in_shape}")
    out_sp, pad = _pool_geometry(in_shape[2:], window, stride, padding)
    _check_frame("maxpool3d_backward: route", np.shape(route), in_shape)
    _check_frame("maxpool3d_backward: grad_out", grad_out.shape, in_shape[:2] + out_sp)
    planes = (1, in_shape[0] * in_shape[1])  # batch and channel axes as one
    route = np.asarray(route).reshape(planes + in_shape[2:])
    grad_out = grad_out.reshape(planes + out_sp)
    grad = np.empty(planes + in_shape[2:], dtype=grad_out.dtype)
    step = max(1, _POOL_SLAB // math.prod(in_shape[2:]))
    for lo in range(0, planes[1], step):
        slab = (slice(None), slice(lo, lo + step))
        taps = _max_passes(route[slab], window, stride, pad, out_sp, record=True)[1]
        g = grad_out[slab]
        for axis, tap in zip((2, 3, 4), reversed(taps)):
            a = axis - 2
            g = _max_pass_backward(g, tap, axis, window[a], stride[a], pad[a], in_shape[axis],
                                   grad[slab] if axis == 4 else None)
    return grad.reshape(in_shape)


def upsample_nearest(x):
    """Replicate every voxel over a 2-cube block, doubling each spatial
    extent (the factor the U skeleton halves by at every level)."""
    return np.asarray(x).repeat(2, axis=2).repeat(2, axis=3).repeat(2, axis=4)


def upsample_nearest_backward(grad_out):
    """Adjoint of replication: sum each 2-cube block.

    Eight strided adds, a width pair at a time, onto +0.0 in (z, y) raster
    order: the same bits as numpy's sum over the block axes of a reshape
    for every output larger than one voxel, at about a tenth of its time."""
    g = np.asarray(grad_out)
    n, c, d, h, w = g.shape
    if d % 2 or h % 2 or w % 2:
        raise ShapeError("upsample backward: grad extents must be even")
    out = np.zeros((n, c, d // 2, h // 2, w // 2), g.dtype)
    for z in (0, 1):
        for y in (0, 1):
            out += g[:, :, z::2, y::2, 0::2] + g[:, :, z::2, y::2, 1::2]
    return out


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
    return np.concatenate(xs, axis=1)


def concat_channels_backward(grad_out, channel_counts):
    """Slice the gradient back per input, in order: views of grad_out."""
    grads = []
    start = 0
    for c in channel_counts:
        grads.append(grad_out[:, start:start + c])
        start += c
    if start != grad_out.shape[1]:
        raise ShapeError(
            f"concat_channels_backward: channel counts sum to {start}, "
            f"gradient has {grad_out.shape[1]}"
        )
    return grads


def relu(x):
    return np.maximum(x, 0)


def relu_backward(grad_out, mask):
    """grad_out where the bool mask (the ReLU input > 0) is set, else 0."""
    return grad_out * mask


def sigmoid(x):
    # exp of -|x| never overflows; np.minimum keeps a NaN's sign, unlike -abs
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_backward(grad_out, y):
    return grad_out * y * (1.0 - y)


def dropout(x, rate, rng):
    """Inverted dropout: zero each voxel with probability rate, scale survivors.

    rng is an integer seed or a numpy Generator. Returns (output, keep
    mask), the mask a bool array, 1 byte per voxel: a product with it
    promotes it to x's dtype, so x * mask gives the bits of a float mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    x = np.asarray(x)
    mask = np.random.default_rng(rng).random(x.shape) >= rate
    return x * mask * (1.0 / (1.0 - rate)), mask


def dropout_backward(grad_out, mask, rate):
    return grad_out * mask * (1.0 / (1.0 - rate))
