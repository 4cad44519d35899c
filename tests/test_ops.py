"""Primitive layer semantics: forward examples, exact backward adjoints,
finite-difference oracles, shape algebra."""
import tracemalloc

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


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConvScratchMemory:
    """Peak allocation of one float32 conv call at the desk's largest
    stride-1 shapes (batch 2, 16-cube). The batch items run one at a time,
    so the scratch beyond the output is one item's: its padded input, one
    depth-extended row buffer of kw*c*(d+kd-1)*ho*width values, the row
    product and its accumulator. An im2col matrix of kd*kh*kw*c*d*h*w
    values would be 7 times (3-cube) to 26 times (7-cube) the row buffer."""

    MARGIN = 1.10  # measured peak plus 10 %

    # The case ids are fixed to the names the cases first had (shape, then
    # the bounds measured for the whole-batch kernel), so re-measured bounds
    # keep each case under its name.
    @pytest.mark.parametrize("in_c, out_c, k, fwd_mb, bwd_mb", [
        (33, 16, 3, 4.05, 4.31),  # U-net 3D, widest level-0 conv
        (4, 4, 5, 0.96, 0.96),    # Uception 5-cube branch, level 0
        (4, 4, 7, 1.39, 1.39),    # Uception 7-cube branch, level 0
    ], ids=["33-16-3-6.97-7.49", "4-4-5-1.63-1.63", "4-4-7-2.48-2.48"])
    def test_peak_stays_near_measured(self, in_c, out_c, k, fwd_mb, bwd_mb):
        g = rng(9)
        spec = ConvSpec(in_c, out_c, (k, k, k))
        x = g.standard_normal((2, in_c, 16, 16, 16)).astype(np.float32)
        w = g.standard_normal(spec.weight_shape()).astype(np.float32)
        grad = g.standard_normal((2, out_c, 16, 16, 16)).astype(np.float32)
        assert _peak_bytes(ops.conv3d, x, w, None, spec) <= fwd_mb * 1e6 * self.MARGIN
        assert (_peak_bytes(ops.conv3d_backward, x, w, grad, spec)
                <= bwd_mb * 1e6 * self.MARGIN)


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

    def test_backward_rejects_route_of_other_shape(self):
        x = rng(19).standard_normal((1, 2, 4, 4, 4))
        y, _ = ops.maxpool3d(x)
        with pytest.raises(ShapeError) as err:
            ops.maxpool3d_backward(np.ones(y.shape), y, x.shape)
        assert err.value.axis == "depth" and "route" in str(err.value)

    def test_four_axis_input_rejected(self):
        with pytest.raises(ShapeError):
            ops.maxpool3d(np.zeros((2, 4, 4, 4)))

    def test_unknown_padding_rejected(self):
        x = np.zeros((1, 1, 4, 4, 4))
        with pytest.raises(ShapeError) as err:
            ops.maxpool3d(x, (3, 3, 3), (1, 1, 1), "full")
        assert "full" in str(err.value)


class TestPoolScratchMemory:
    """Peak allocation of one float32 pool call at (2, 48, 16-cube), the
    widest Deep Block input at level 0. The forward keeps values only; the
    backward recomputes the passes to record each pass's winning taps
    (three int8 arrays) before routing the gradient, one slab of planes at
    a time, so its scratch is one slab's beside the output."""

    MARGIN = 1.10  # measured peak plus 10 %

    # The case ids are fixed to the names the cases first had (the bounds
    # measured for the whole-array backward), so re-measured bounds keep
    # each case under its name.
    @pytest.mark.parametrize("window, stride, padding, fwd_mb, bwd_mb", [
        ((3, 3, 3), (1, 1, 1), SAME, 3.25, 2.67),   # Deep Block pooled branch
        ((2, 2, 2), (2, 2, 2), VALID, 2.36, 2.13),  # Reduction Block, U-net down
    ], ids=["window0-stride0-same-3.25-6.33", "window1-stride1-valid-2.36-3.72"])
    def test_peak_stays_near_measured(self, window, stride, padding, fwd_mb, bwd_mb):
        g = rng(9)
        x = g.standard_normal((2, 48, 16, 16, 16)).astype(np.float32)
        y, route = ops.maxpool3d(x, window, stride, padding)
        grad = g.standard_normal(y.shape).astype(np.float32)
        assert (_peak_bytes(ops.maxpool3d, x, window, stride, padding)
                <= fwd_mb * 1e6 * self.MARGIN)
        assert (_peak_bytes(ops.maxpool3d_backward, grad, route, x.shape, window, stride,
                            padding) <= bwd_mb * 1e6 * self.MARGIN)


@pytest.mark.parametrize("window, stride, padding", [
    ((3, 3, 3), (1, 1, 1), SAME), ((2, 2, 2), (2, 2, 2), VALID)])
def test_pool_leaves_arguments_alone(window, stride, padding):
    # the route is the caller's input, which the backward reads again
    g = rng(21)
    x = g.choice(POOL_VALUES, size=(2, 3, 4, 4, 4)).astype(np.float32)
    x_bits = x.tobytes()
    y, route = ops.maxpool3d(x, window, stride, padding)
    assert route is x and x.tobytes() == x_bits
    grad = g.standard_normal(y.shape).astype(np.float32)
    grad_bits = grad.tobytes()
    gx = ops.maxpool3d_backward(grad, route, x.shape, window, stride, padding)
    assert x.tobytes() == x_bits and grad.tobytes() == grad_bits
    again = ops.maxpool3d_backward(grad, route, x.shape, window, stride, padding)
    assert again.tobytes() == gx.tobytes()


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

    @pytest.mark.parametrize("shape", [(2, 32, 16, 16, 16), (2, 64, 8, 8, 8), (1, 2, 6, 6, 6),
                                       (1, 3, 4, 6, 8)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bits_match_a_reshape_sum(self, shape, dtype):
        # the pinned digests were made with numpy's sum over the block axes
        g = rng(14).standard_normal(shape).astype(dtype)
        g[..., ::3] = 0.0
        g[:, 0] = -0.0  # all-negative-zero blocks sum to +0.0
        n, c, d, h, w = shape
        want = g.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2).sum(axis=(3, 5, 7))
        assert ops.upsample_nearest_backward(g).tobytes() == want.tobytes()


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

    def test_backward_pieces_are_views_of_the_gradient(self):
        g = rng(17).standard_normal((2, 7, 3, 3, 3))
        start = 0
        for c, piece in zip((1, 4, 2), ops.concat_channels_backward(g, [1, 4, 2])):
            assert np.shares_memory(piece, g)
            assert piece.tobytes() == g[:, start:start + c].tobytes()
            start += c


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(np.zeros((1, 1, 1, 1, 1))).item() == pytest.approx(0.5)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        y = ops.sigmoid(np.array([[-1e4, 1e4]]))
        assert np.isfinite(y).all()
        assert 0.0 <= y.min() and y.max() <= 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bytes_match_the_two_half_line_formula(self, dtype):
        info = np.finfo(dtype)
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, info.smallest_subnormal,
                      -info.smallest_subnormal, info.tiny, -info.tiny, info.max, -info.max,
                      1e-3, -1e-3, 0.5, -0.5, 20.0, -20.0, 100.0, -100.0], dtype=dtype)
        x = np.concatenate([x, rng(18).standard_normal(64).astype(dtype) * 8])
        # the earlier formula: each half-line evaluated on its own
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        got = ops.sigmoid(x)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_relu_backward_masks_nonpositive(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        g = np.ones_like(x)
        assert np.array_equal(ops.relu_backward(g, x > 0), [0, 0, 0, 1, 1])

    def test_relu_fd_away_from_kink(self):
        g = rng(15)
        x = g.standard_normal((1, 2, 4, 4, 4))
        x[np.abs(x) < 0.05] += 0.1
        r = g.standard_normal(x.shape)

        def scalar():
            return float((ops.relu(x) * r).sum())

        err = probe(scalar, {"x": x}, {"x": ops.relu_backward(r, x > 0)})
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


@settings(max_examples=25, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       extents=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
       seed=st.integers(0, 2 ** 16))
def test_flat_pool_runs_match_per_window_loop(dtype, extents, seed):
    # stride 1, same mode: each tap runs as one flat shift over the whole
    # array, which wraps across rows, planes, channels and batch items
    window, stride = (3, 3, 3), (1, 1, 1)
    g = np.random.default_rng(seed)
    x = g.choice(POOL_VALUES, size=(2, 2) + extents).astype(dtype)
    y, route = ops.maxpool3d(x, window, stride, SAME)
    y_ref, winner = _pool_ref(x, window, stride, SAME)
    assert y.tobytes() == y_ref.tobytes()
    # small signed integers and zeros: every sum is exact in any order
    grad = g.integers(-2 ** 12, 2 ** 12, size=y.shape).astype(dtype)
    gx = ops.maxpool3d_backward(grad, route, x.shape, window, stride, SAME)
    gx_ref = np.zeros(x.size, dtype=dtype)
    np.add.at(gx_ref, winner[winner >= 0], grad[winner >= 0])
    assert gx.tobytes() == gx_ref.reshape(x.shape).tobytes()


@pytest.mark.parametrize("window, stride, padding", [
    ((3, 3, 3), (1, 1, 1), SAME), ((2, 2, 2), (2, 2, 2), VALID)])
def test_pool_backward_over_a_partial_slab_matches_per_window_loop(window, stride, padding):
    # 26 planes of 16-cube: the backward runs whole slabs of planes and then
    # one partial slab, each into its planes of the one output
    shape = (2, 13, 16, 16, 16)
    per_slab = ops._POOL_SLAB // (16 ** 3)
    assert 1 < per_slab < 26 and 26 % per_slab
    g = rng(41)
    x = g.choice(POOL_VALUES, size=shape).astype(np.float32)
    y, route = ops.maxpool3d(x, window, stride, padding)
    y_ref, winner = _pool_ref(x, window, stride, padding)
    assert y.tobytes() == y_ref.tobytes()
    grad = g.integers(-2 ** 12, 2 ** 12, size=y.shape).astype(np.float32)
    gx = ops.maxpool3d_backward(grad, route, x.shape, window, stride, padding)
    gx_ref = np.zeros(x.size, dtype=np.float32)
    np.add.at(gx_ref, winner[winner >= 0], grad[winner >= 0])
    assert gx.shape == x.shape and gx.flags.c_contiguous
    assert gx.tobytes() == gx_ref.reshape(x.shape).tobytes()


@pytest.mark.parametrize("corner", list(np.ndindex(2, 2, 2, 2, 2)))
def test_border_gradient_stays_in_its_window(corner):
    # an inf at a border output turns into NaN on the non-winners of its
    # window (inf * 0); none of it may reach the next row, plane, channel or
    # batch item that a flat shifted run wraps into
    shape = (2, 2, 3, 4, 5)
    pos = tuple(c * (e - 1) for c, e in zip(corner, shape))
    x = rng(31).standard_normal(shape).astype(np.float32)
    y, route = ops.maxpool3d(x, (3, 3, 3), (1, 1, 1), SAME)
    grad = np.zeros(y.shape, dtype=np.float32)
    grad[pos] = np.inf
    with np.errstate(invalid="ignore"):
        gx = ops.maxpool3d_backward(grad, route, x.shape, (3, 3, 3), (1, 1, 1), SAME)
    inside = np.zeros(shape, dtype=bool)
    inside[pos[:2] + tuple(slice(max(q - 1, 0), q + 2) for q in pos[2:])] = True
    assert np.isinf(gx[inside]).sum() == 1
    assert np.all(gx[~inside] == 0.0)


# window pairs whose winner only the tie rule decides: the first tap must win
# (np.maximum has to keep the running value on ties, ±0 included), a NaN
# never wins, and a window with nothing above -inf routes to its tap 0,
# which lies outside the input at a same-mode border
TIE_PAIRS = [(-0.0, 0.0), (0.0, -0.0), (np.nan, -np.inf), (-np.inf, -np.inf)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window, stride, padding", [
    ((3, 3, 3), (1, 1, 1), SAME), ((2, 2, 2), (2, 2, 2), VALID)])
@pytest.mark.parametrize("axis", [2, 3, 4])
@pytest.mark.parametrize("pair", TIE_PAIRS)
def test_pool_ties_follow_first_tap(pair, axis, window, stride, padding, dtype):
    # the pair sits at positions 0 and 1 along axis, every other voxel is -inf
    extents = [1 if padding == SAME else 2] * 3
    extents[axis - 2] = 2
    x = np.full((1, 1, *extents), -np.inf, dtype=dtype)
    first, second = (0,) * 5, tuple(int(a == axis) for a in range(5))
    x[first], x[second] = pair
    y, route = ops.maxpool3d(x, window, stride, padding)
    y_ref, winner = _pool_ref(x, window, stride, padding)
    assert y.tobytes() == y_ref.tobytes()
    if pair[0] == 0.0:
        assert np.all(np.signbit(y) == np.signbit(pair[0]))
    grad = (np.arange(1, y.size + 1) * 0.1).astype(dtype).reshape(y.shape)
    gx = ops.maxpool3d_backward(grad, route, x.shape, window, stride, padding)
    gx_ref = np.zeros(x.size, dtype=dtype)
    np.add.at(gx_ref, winner[winner >= 0], grad[winner >= 0])
    assert gx.tobytes() == gx_ref.reshape(x.shape).tobytes()
    assert gx[second] == 0.0


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, s", [(1, 1), (3, 1), (5, 1), (3, 2)])
def test_weight_gradient_adds_items_in_order(k, s, dtype):
    # the batch items run one at a time; adding their row products in
    # order must give the bits of one batched product summed over items
    n, in_c, out_c = 3, 3, 4
    spec = ConvSpec(in_c, out_c, (k, k, k), (s, s, s))
    g = rng(43)
    x = np.maximum(g.standard_normal((n, in_c, 6, 6, 6)), 0.0).astype(dtype)
    w = g.standard_normal(spec.weight_shape()).astype(dtype)
    do, ho, wo = out_sp = spec.out_spatial(x.shape[2:])
    grad = g.standard_normal((n, out_c) + out_sp).astype(dtype)
    _, gw, _ = ops.conv3d_backward(x, w, grad, spec)
    width, rows = ops._rows(x, spec.pad, spec.kernel, spec.stride, out_sp)
    gy = np.zeros((n, out_c, do, ho, width), dtype=dtype)
    gy[..., :wo] = grad
    gy = gy.reshape(n, out_c, -1)
    items = [[(dz, dy, cols.copy()) for dz, dy, cols in rows(b)] for b in range(n)]
    want = np.empty_like(w)
    for r, (dz, dy, _) in enumerate(items[0]):
        cols = np.stack([items[b][r][2] for b in range(n)])
        prod = np.matmul(cols, gy.transpose(0, 2, 1)).transpose(0, 2, 1).sum(axis=0)
        want[:, :, dz, dy] = prod.reshape(out_c, k, in_c).transpose(0, 2, 1)
    assert gw.tobytes() == want.tobytes()


PAD_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]


@settings(max_examples=80, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 4),
                       st.integers(1, 4), st.integers(1, 4)),
       layout=st.sampled_from(["c", "transposed", "strided"]),
       pad=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
       below=st.integers(0, 1), seed=st.integers(0, 2 ** 16))
def test_pad_input_matches_np_pad(dtype, shape, layout, pad, below, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal(shape).astype(dtype)
    special = g.random(shape) < 0.3
    x[special] = g.choice(np.array(PAD_SPECIALS, dtype=dtype), special.sum())
    if layout == "transposed":
        x = np.ascontiguousarray(x.transpose(4, 3, 2, 1, 0)).transpose(4, 3, 2, 1, 0)
    elif layout == "strided":
        big = np.zeros(tuple(2 * e for e in shape), dtype=dtype)
        big[::2, 1::2, ::2, 1::2, ::2] = x
        x = big[::2, 1::2, ::2, 1::2, ::2]
    got = ops._pad_input(x, pad, below)
    if pad == (0, 0, 0) and below == 0:
        assert got is x
        return
    pd, ph, pw = pad
    want = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph + below), (pw, pw)))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous  # _rows reshapes it into planes without a copy
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k, s", [(5, 1), (3, 2)])
def test_conv_pads_without_np_pad(monkeypatch, k, s):
    """At desk shapes np.pad's generic set-up costs several times the copy it
    makes, so the per-call conv path keeps to one allocation and one copy."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.pad called in the conv path")

    spec = ConvSpec(2, 3, (k, k, k), (s, s, s))
    g = rng(23)
    x = g.standard_normal((1, 2, 6, 6, 6))
    w = g.standard_normal(spec.weight_shape())
    grad = g.standard_normal((1, 3) + spec.out_spatial(x.shape[2:]))
    monkeypatch.setattr(np, "pad", refuse)
    ops.conv3d(x, w, np.zeros(3), spec)
    ops.conv3d_backward(x, w, grad, spec)


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
