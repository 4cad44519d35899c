"""Primitive layer semantics: forward examples, exact backward adjoints,
finite-difference oracles, shape algebra."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uception import ops
from uception.errors import ShapeError
from uception.gradcheck import probe
from uception.ops import SAME, VALID, ConvSpec


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConvSpec:
    def test_same_stride1_preserves_extents(self):
        for k in (1, 3, 5, 7):
            spec = ConvSpec(1, 1, (k, k, k), (1, 1, 1), SAME)
            assert spec.out_spatial((9, 10, 11)) == (9, 10, 11)

    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("s", [1, 2])
    def test_output_formula_all_architecture_combos(self, k, s):
        spec = ConvSpec(2, 3, (k, k, k), (s, s, s), SAME)
        for n in (8, 12, 16):
            pad = (k - 1) // 2
            expect = (n + 2 * pad - k) // s + 1
            assert spec.out_spatial((n, n, n)) == (expect,) * 3

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ConvSpec(1, 1, (2, 2, 2))

    def test_kernel_larger_than_valid_input(self):
        spec = ConvSpec(1, 1, (5, 5, 5), padding=VALID)
        with pytest.raises(ShapeError):
            spec.out_spatial((4, 8, 8))


class TestConv3d:
    def test_identity_kernel_returns_input_bitexact(self):
        x = rng().standard_normal((2, 1, 4, 5, 6)).astype(np.float32)
        spec = ConvSpec(1, 1, (1, 1, 1))
        y = ops.conv3d(x, np.ones((1, 1, 1, 1, 1), np.float32), [0.0], spec)
        assert np.array_equal(y, x)

    def test_all_ones_cube_sums_receptive_field(self):
        spec = ConvSpec(1, 1, (3, 3, 3), padding=VALID)
        y = ops.conv3d(np.ones((1, 1, 3, 3, 3)), np.ones((1, 1, 3, 3, 3)), [0.0], spec)
        assert y.shape == (1, 1, 1, 1, 1)
        assert y.item() == pytest.approx(27.0)

    def test_zero_weights_annihilate(self):
        x = rng(1).standard_normal((1, 3, 4, 4, 4))
        spec = ConvSpec(3, 2, (3, 3, 3))
        y = ops.conv3d(x, np.zeros(spec.weight_shape()), np.zeros(2), spec)
        assert not y.any()

    def test_bias_broadcasts_per_channel(self):
        x = np.zeros((1, 1, 2, 2, 2))
        spec = ConvSpec(1, 3, (1, 1, 1))
        y = ops.conv3d(x, np.zeros(spec.weight_shape()), [1.0, -2.0, 0.5], spec)
        assert np.allclose(y[0, 0], 1.0) and np.allclose(y[0, 1], -2.0)

    def test_channel_mismatch_names_axis(self):
        x = np.zeros((1, 2, 4, 4, 4))
        spec = ConvSpec(3, 1, (1, 1, 1))
        with pytest.raises(ShapeError) as err:
            ops.conv3d(x, np.zeros(spec.weight_shape()), [0.0], spec)
        assert "channel" in str(err.value)

    def test_weight_shape_mismatch(self):
        x = np.zeros((1, 2, 4, 4, 4))
        spec = ConvSpec(2, 2, (3, 3, 3))
        with pytest.raises(ShapeError):
            ops.conv3d(x, np.zeros((2, 2, 1, 1, 1)), [0.0, 0.0], spec)

    def test_linear_in_input_and_weights(self):
        g = rng(2)
        spec = ConvSpec(2, 2, (3, 3, 3))
        x1, x2 = g.standard_normal((2, 1, 2, 6, 6, 6))
        w = g.standard_normal(spec.weight_shape())
        a, b = 1.7, -0.4
        lhs = ops.conv3d(a * x1 + b * x2, w, None, spec)
        rhs = a * ops.conv3d(x1, w, None, spec) + b * ops.conv3d(x2, w, None, spec)
        assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-7)
        w2 = g.standard_normal(spec.weight_shape())
        lhs = ops.conv3d(x1, a * w + b * w2, None, spec)
        rhs = a * ops.conv3d(x1, w, None, spec) + b * ops.conv3d(x1, w2, None, spec)
        assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-7)

    def test_stride2_same_halves_even_extents(self):
        spec = ConvSpec(1, 1, (3, 3, 3), (2, 2, 2), SAME)
        x = rng(3).standard_normal((1, 1, 8, 12, 16))
        assert ops.conv3d(x, rng(4).standard_normal(spec.weight_shape()), None,
                          spec).shape == (1, 1, 4, 6, 8)


class TestConv3dBackward:
    def test_zero_grad_out_zeroes_everything(self):
        g = rng(5)
        spec = ConvSpec(2, 3, (3, 3, 3))
        x = g.standard_normal((1, 2, 5, 5, 5))
        w = g.standard_normal(spec.weight_shape())
        gx, gw, gb = ops.conv3d_backward(x, w, np.zeros((1, 3, 5, 5, 5)), spec)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_adjoint_passes_grad(self):
        g = rng(6)
        spec = ConvSpec(1, 1, (1, 1, 1))
        x = g.standard_normal((1, 1, 4, 4, 4))
        grad = g.standard_normal((1, 1, 4, 4, 4))
        gx, _, _ = ops.conv3d_backward(x, np.ones((1, 1, 1, 1, 1)), grad, spec)
        assert np.array_equal(gx, grad)

    def test_grad_bias_sums_output_channel(self):
        g = rng(7)
        spec = ConvSpec(1, 2, (1, 1, 1))
        x = g.standard_normal((2, 1, 3, 3, 3))
        grad = g.standard_normal((2, 2, 3, 3, 3))
        _, _, gb = ops.conv3d_backward(x, g.standard_normal(spec.weight_shape()),
                                       grad, spec)
        assert np.allclose(gb, grad.sum(axis=(0, 2, 3, 4)))

    def test_matches_finite_differences(self):
        # random 5-cube input, 3-cube kernel, 64-bit central differences
        g = rng(8)
        spec = ConvSpec(2, 2, (3, 3, 3))
        x = g.standard_normal((1, 2, 5, 5, 5))
        w = 0.5 * g.standard_normal(spec.weight_shape())
        b = 0.1 * g.standard_normal(2)
        r = g.standard_normal((1, 2, 5, 5, 5))

        def scalar():
            return float((ops.conv3d(x, w, b, spec) * r).sum())

        gx, gw, gb = ops.conv3d_backward(x, w, r, spec)
        err = probe(scalar, {"x": x, "w": w, "b": b}, {"x": gx, "w": gw, "b": gb})
        assert err <= 1e-4

    def test_grad_shape_mismatch_rejected(self):
        spec = ConvSpec(1, 1, (3, 3, 3))
        x = np.zeros((1, 1, 6, 6, 6))
        with pytest.raises(ShapeError):
            ops.conv3d_backward(x, np.zeros(spec.weight_shape()),
                                np.zeros((1, 1, 5, 5, 5)), spec)


class TestMaxPool:
    def test_constant_input_halves_extents(self):
        y, _ = ops.maxpool3d(np.full((1, 1, 6, 6, 6), 3.25))
        assert y.shape == (1, 1, 3, 3, 3)
        assert np.all(y == 3.25)

    def test_block_maxima_against_brute_force(self):
        x = np.arange(64, dtype=np.float64).reshape(1, 1, 4, 4, 4)
        y, _ = ops.maxpool3d(x)
        # independent oracle: loop the 8 blocks directly
        expect = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expect[i, j, k] = x[0, 0, 2*i:2*i+2, 2*j:2*j+2, 2*k:2*k+2].max()
        assert np.array_equal(y[0, 0], expect)

    def test_shape_algebra(self):
        y, _ = ops.maxpool3d(np.zeros((1, 3, 8, 8, 8)))
        assert y.shape == (1, 3, 4, 4, 4)

    def test_odd_extent_rejected_with_axis(self):
        with pytest.raises(ShapeError) as err:
            ops.maxpool3d(np.zeros((1, 1, 5, 4, 4)))
        assert "depth" in str(err.value)

    def test_backward_routes_to_argmax_voxel(self):
        g = rng(9)
        x = g.standard_normal((1, 2, 4, 4, 4))
        y, argmax = ops.maxpool3d(x)
        grad = g.standard_normal(y.shape)
        gx = ops.maxpool3d_backward(grad, argmax, x.shape)
        # each 2-cube block receives exactly its output grad at its max
        assert np.allclose(gx.sum(), grad.sum())
        assert np.count_nonzero(gx) == grad.size

    def test_same_mode_3cube_preserves_extents(self):
        x = rng(10).standard_normal((1, 1, 4, 4, 4))
        y, _ = ops.maxpool3d(x, (3, 3, 3), (1, 1, 1), SAME)
        assert y.shape == x.shape
        assert np.all(y >= x)  # window contains the voxel itself

    def test_backward_rejects_wrongly_shaped_grad(self):
        x = rng(17).standard_normal((1, 2, 4, 4, 4))
        _, route = ops.maxpool3d(x)
        with pytest.raises(ShapeError) as err:
            ops.maxpool3d_backward(np.ones((1, 2, 2, 2, 1)), route, x.shape)
        assert err.value.axis == "width" and "width" in str(err.value)

    def test_backward_channel_mismatch_names_axis(self):
        x = rng(18).standard_normal((1, 2, 4, 4, 4))
        _, route = ops.maxpool3d(x)
        with pytest.raises(ShapeError) as err:
            ops.maxpool3d_backward(np.ones((1, 3, 2, 2, 2)), route, x.shape)
        assert err.value.axis == "channel" and "channel" in str(err.value)

    def test_four_axis_input_rejected(self):
        with pytest.raises(ShapeError):
            ops.maxpool3d(np.zeros((2, 4, 4, 4)))

    def test_unknown_padding_rejected(self):
        x = np.zeros((1, 1, 4, 4, 4))
        with pytest.raises(ShapeError) as err:
            ops.maxpool3d(x, (3, 3, 3), (1, 1, 1), "full")
        assert "full" in str(err.value)


class TestUpsample:
    def test_pool_of_upsample_is_identity(self):
        x = rng(11).standard_normal((1, 2, 3, 4, 5))
        y, _ = ops.maxpool3d(ops.upsample_nearest(x))
        assert np.array_equal(y, x)

    def test_single_voxel_replication(self):
        y = ops.upsample_nearest(np.full((1, 1, 1, 1, 1), 7.0))
        assert y.shape == (1, 1, 2, 2, 2)
        assert np.all(y == 7.0)

    def test_backward_sums_blocks_and_matches_fd(self):
        g = rng(12)
        x = g.standard_normal((1, 1, 3, 3, 3))
        r = g.standard_normal((1, 1, 6, 6, 6))

        def scalar():
            return float((ops.upsample_nearest(x) * r).sum())

        gx = ops.upsample_nearest_backward(r)
        err = probe(scalar, {"x": x}, {"x": gx})
        assert err <= 1e-4


class TestConcat:
    def test_single_input_roundtrip(self):
        x = rng(13).standard_normal((1, 4, 2, 2, 2))
        assert np.array_equal(ops.concat_channels([x]), x)

    def test_channel_algebra(self):
        a = np.zeros((1, 2, 4, 4, 4))
        b = np.zeros((1, 3, 4, 4, 4))
        assert ops.concat_channels([a, b]).shape == (1, 5, 4, 4, 4)

    def test_slicing_recovers_inputs_bitexact(self):
        g = rng(14)
        parts = [g.standard_normal((2, c, 3, 3, 3)) for c in (1, 4, 2)]
        y = ops.concat_channels(parts)
        grads = ops.concat_channels_backward(y, [1, 4, 2])
        for part, back in zip(parts, grads):
            assert np.array_equal(part, back)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ops.concat_channels([np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 1, 4, 4, 5))])


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(np.zeros((1, 1, 1, 1, 1))).item() == pytest.approx(0.5)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = ops.sigmoid(np.array([[-1e4, 1e4]]))
        assert np.isfinite(y).all()
        assert 0.0 <= y.min() and y.max() <= 1.0

    def test_relu_backward_masks_nonpositive(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        g = np.ones_like(x)
        assert np.array_equal(ops.relu_backward(g, x), [0, 0, 0, 1, 1])

    def test_relu_fd_away_from_kink(self):
        g = rng(15)
        x = g.standard_normal((1, 2, 4, 4, 4))
        x[np.abs(x) < 0.05] += 0.1
        r = g.standard_normal(x.shape)

        def scalar():
            return float((ops.relu(x) * r).sum())

        err = probe(scalar, {"x": x}, {"x": ops.relu_backward(r, x)})
        assert err <= 1e-4


class TestDropout:
    def test_rate_zero_is_identity_with_ones_mask(self):
        x = rng(16).standard_normal((1, 1, 3, 3, 3))
        y, mask = ops.dropout(x, 0.0, 1)
        assert np.array_equal(y, x)
        assert np.all(mask == 1.0)

    def test_same_seed_same_mask(self):
        x = np.ones((1, 1, 4, 4, 4))
        y1, m1 = ops.dropout(x, 0.4, 99)
        y2, m2 = ops.dropout(x, 0.4, 99)
        assert np.array_equal(m1, m2) and np.array_equal(y1, y2)

    def test_survivors_scaled_by_keep_probability(self):
        x = np.ones((1, 1, 4, 4, 4))
        y, mask = ops.dropout(x, 0.25, 3)
        kept = y[mask == 1.0]
        assert np.allclose(kept, 1.0 / 0.75)
        assert not y[mask == 0.0].any()

    def test_expectation_approaches_identity(self):
        # mean over many seeded draws within 3 standard errors
        value = 2.0
        x = np.full((1, 1, 4, 4, 4), value)
        rate = 0.3
        n = 10_000
        gen = np.random.default_rng(1234)
        acc = 0.0
        for _ in range(n):
            y, _ = ops.dropout(x, rate, gen)
            acc += y.mean()
        mean = acc / n
        # variance of one kept/dropped draw: x^2 * rate/(1-rate), pooled
        # over every voxel of every draw
        se = np.sqrt(value ** 2 * rate / (1 - rate) / (n * x.size))
        assert abs(mean - value) <= 3 * se

    def test_rate_one_rejected(self):
        with pytest.raises(ShapeError):
            ops.dropout(np.zeros((1, 1, 2, 2, 2)), 1.0, 0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2), c=st.integers(1, 3),
    d=st.integers(4, 8).filter(lambda v: v % 2 == 0),
    k=st.sampled_from([1, 3]), s=st.sampled_from([1, 2]),
)
def test_conv_shape_property(n, c, d, k, s):
    spec = ConvSpec(c, 2, (k, k, k), (s, s, s), SAME)
    x = np.zeros((n, c, d, d, d), dtype=np.float32)
    w = np.zeros(spec.weight_shape(), dtype=np.float32)
    y = ops.conv3d(x, w, None, spec)
    pad = (k - 1) // 2
    assert y.shape == (n, 2) + (((d + 2 * pad - k) // s + 1),) * 3


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 5))
def test_concat_backward_splits_exactly(channels, seed):
    g = np.random.default_rng(seed)
    parts = [g.standard_normal((1, c, 2, 2, 2)) for c in channels]
    y = ops.concat_channels(parts)
    assert y.shape[1] == sum(channels)
    back = ops.concat_channels_backward(y, channels)
    for p, b in zip(parts, back):
        assert np.array_equal(p, b)


# ---------------------------------------------------------------------------
# properties against naive references: a per-window loop for the pool and an
# f64 per-offset loop for the conv, written independently of ops' kernels


def _pool_ref(x, window, stride, padding):
    """Per-window loop: the first tap in raster order that beats the running
    maximum (from -inf, compared with >) wins. Returns (pooled, winner), the
    winner a flat input index, or -1 when no voxel beats -inf and tap 0 lies
    outside the input."""
    n, c = x.shape[:2]
    pad = [(k - 1) // 2 if padding == SAME else 0 for k in window]
    out_sp = [(e + 2 * p - k) // s + 1 for e, k, s, p in zip(x.shape[2:], window, stride, pad)]
    y = np.empty((n, c, *out_sp), dtype=x.dtype)
    win = np.empty(y.shape, dtype=np.int64)
    for b, ch, z, v, u in np.ndindex(*y.shape):
        best, at = x.dtype.type(-np.inf), None
        for tz, ty, tx in np.ndindex(*window):
            pos = (z * stride[0] - pad[0] + tz, v * stride[1] - pad[1] + ty,
                   u * stride[2] - pad[2] + tx)
            inside = all(0 <= q < e for q, e in zip(pos, x.shape[2:]))
            if at is None:
                at = pos if inside else -1  # tap 0 wins unless beaten
            if inside and x[(b, ch) + pos] > best:
                best, at = x[(b, ch) + pos], pos
        y[b, ch, z, v, u] = best
        win[b, ch, z, v, u] = -1 if at == -1 else np.ravel_multi_index((b, ch) + at, x.shape)
    return y, win


POOL_GEOMETRIES = [((2, 2, 2), (2, 2, 2), VALID), ((2, 2, 2), (1, 1, 1), VALID),
                   ((3, 3, 3), (1, 1, 1), SAME), ((3, 3, 3), (1, 1, 1), VALID),
                   ((3, 3, 3), (2, 2, 2), SAME), ((3, 3, 3), (2, 2, 2), VALID)]
# ReLU zeros of both signs, repeats, infinities and NaN
POOL_VALUES = np.array([0.0, 0.0, -0.0, 1.0, 1.0, 2.5, -1.0, np.inf, -np.inf, np.nan])


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(POOL_GEOMETRIES), dtype=st.sampled_from([np.float32, np.float64]),
       n=st.integers(1, 2), c=st.integers(1, 2),
       outs=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2 ** 16))
def test_pool_matches_per_window_loop(geometry, dtype, n, c, outs, seed):
    window, stride, padding = geometry
    pad = [(k - 1) // 2 if padding == SAME else 0 for k in window]
    extents = tuple((m - 1) * s + k - 2 * p for m, k, s, p in zip(outs, window, stride, pad))
    g = np.random.default_rng(seed)
    x = g.choice(POOL_VALUES, size=(n, c) + extents).astype(dtype)
    y, route = ops.maxpool3d(x, window, stride, padding)
    y_ref, winner = _pool_ref(x, window, stride, padding)
    assert y.dtype == x.dtype and y.tobytes() == y_ref.tobytes()
    # distinct integer gradients: sums are exact in any order, so each one
    # must land on its window's winner bit for bit
    grad = g.integers(1, 2 ** 20, size=y.shape).astype(dtype)
    gx = ops.maxpool3d_backward(grad, route, x.shape, window, stride, padding)
    gx_ref = np.zeros(x.size, dtype=dtype)
    np.add.at(gx_ref, winner[winner >= 0], grad[winner >= 0])
    assert gx.tobytes() == gx_ref.reshape(x.shape).tobytes()


def _conv_ref(x, w, b, grad, spec):
    """f64 per-offset loop: forward, and the three gradients against grad."""
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    pad = spec.pad
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
    out_sp = spec.out_spatial(x.shape[2:])
    y = np.zeros((x.shape[0], spec.out_channels) + out_sp)
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for off in np.ndindex(*spec.kernel):
        sl = (slice(None), slice(None)) + tuple(
            slice(o, o + s * m, s) for o, s, m in zip(off, spec.stride, out_sp))
        y += np.einsum("oi,nidhw->nodhw", w[(slice(None), slice(None)) + off], xp[sl])
        gw[(slice(None), slice(None)) + off] = np.einsum("nodhw,nidhw->oi", grad, xp[sl])
        gxp[sl] += np.einsum("oi,nodhw->nidhw", w[(slice(None), slice(None)) + off], grad)
    crop = (slice(None), slice(None)) + tuple(
        slice(p, p + e) for p, e in zip(pad, x.shape[2:]))
    return y + b[None, :, None, None, None], gxp[crop], gw, grad.sum(axis=(0, 2, 3, 4))


def _rel(a, ref):
    return np.abs(a - ref).max() / max(np.abs(ref).max(), 1e-300)


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1, 3, 5, 7]), s=st.sampled_from([1, 2]),
       padding=st.sampled_from([SAME, VALID]), n=st.integers(1, 2),
       in_c=st.integers(1, 4), out_c=st.integers(1, 4),
       extra=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
       seed=st.integers(0, 2 ** 16))
def test_conv_matches_per_offset_loop(k, s, padding, n, in_c, out_c, extra, seed):
    spec = ConvSpec(in_c, out_c, (k, k, k), (s, s, s), padding)
    extents = tuple((k if padding == VALID else 1) + e for e in extra)
    g = np.random.default_rng(seed)
    x = np.maximum(g.standard_normal((n, in_c) + extents), 0.0)  # ReLU zeros
    w = g.standard_normal(spec.weight_shape())
    b = g.standard_normal(out_c)
    grad = g.standard_normal((n, out_c) + spec.out_spatial(extents))
    y_ref, gx_ref, gw_ref, gb_ref = _conv_ref(x, w, b, grad, spec)
    y = ops.conv3d(x, w, b, spec)
    gx, gw, gb = ops.conv3d_backward(x, w, grad, spec)
    for got, ref in ((y, y_ref), (gx, gx_ref), (gw, gw_ref), (gb, gb_ref)):
        assert got.shape == ref.shape and got.dtype == np.float64
        assert _rel(got, ref) <= 1e-12


class TestStructuralZeros:
    """Direct summation keeps a weight tap that meets no live voxel exactly
    inert, which the model gradcheck relies on. An FFT kernel does not: its
    rounding turns these exact zeros into noise."""

    spec = ConvSpec(2, 3, (7, 7, 7))
    voxel = (1, 0, 2)

    def setup_method(self):
        g = rng(19)
        self.x = np.zeros((1, 2, 4, 4, 4))
        self.x[(0, 0) + self.voxel] = 1.7       # channel 0: one nonzero voxel
        self.x[0, 1] = g.standard_normal((4, 4, 4))
        self.w = g.standard_normal(self.spec.weight_shape())
        self.grad = g.standard_normal((1, 3, 4, 4, 4))
        self.grad[:, :, 2:] = 0.0                 # a zero slab of grad_out

    def _expected_channel0_grad(self):
        # tap t pairs the voxel with output voxel - t + pad, when that is inside
        expect = np.zeros((3,) + self.spec.kernel)
        for t in np.ndindex(*self.spec.kernel):
            p = tuple(v - tt + 3 for v, tt in zip(self.voxel, t))
            if all(0 <= q < 4 for q in p):
                expect[(slice(None),) + t] = self.grad[(0, slice(None)) + p] * 1.7
        return expect

    def test_unpaired_taps_get_exact_zero_gradient(self):
        _, gw, _ = ops.conv3d_backward(self.x, self.w, self.grad, self.spec)
        expect = self._expected_channel0_grad()
        assert (expect == 0).sum() > expect.size // 2
        assert np.all(gw[:, 0][expect == 0] == 0.0)
        assert np.array_equal(gw[:, 0], expect)

    def test_perturbing_unpaired_taps_keeps_forward_bits(self):
        # taps t with voxel - t + pad outside the output pair with nothing
        t = np.indices(self.spec.kernel)
        unpaired = np.zeros(self.spec.kernel, dtype=bool)
        for ax, v in enumerate(self.voxel):
            unpaired |= (v - t[ax] + 3 < 0) | (v - t[ax] + 3 > 3)
        w2 = self.w.copy()
        w2[:, 0][:, unpaired] *= 3.0
        y1 = ops.conv3d(self.x, self.w, None, self.spec)
        y2 = ops.conv3d(self.x, w2, None, self.spec)
        assert unpaired.any() and y1.tobytes() == y2.tobytes()
