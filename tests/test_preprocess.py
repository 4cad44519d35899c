"""Resampling, intensity conditioning, tiling and the threshold baseline."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uception.errors import NumericError, ShapeError
from uception.preprocess import (
    AllZeroVolumeWarning,
    clip_normalize,
    crop_to,
    pad_to_multiple,
    reassemble,
    resample_nearest_indices,
    resample_trilinear,
    threshold_baseline,
    tile_patches,
)
from uception.volume import Volume


def vol(data, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(data, dtype=np.float32), spacing)


class TestResample:
    def test_identity_at_same_spacing_bitexact(self):
        data = np.random.default_rng(0).random((5, 6, 7)).astype(np.float32)
        v = vol(data, (0.8, 1.3, 2.1))
        out = resample_trilinear(v, (0.8, 1.3, 2.1))
        assert np.array_equal(out.data, data)

    def test_clinical_dims_resample_to_isotropic(self):
        # 448x448x128 voxels at (0.5, 0.5, 0.8): expect 224x224x102 at 1 mm
        # (volume axes here are (d, h, w) = (128, 448, 448) at (0.8, 0.5, 0.5));
        # use a constant volume so only geometry is exercised at this size
        v = vol(np.ones((128, 448, 448), dtype=np.float32), (0.8, 0.5, 0.5))
        out = resample_trilinear(v, (1.0, 1.0, 1.0))
        assert out.extents == (102, 224, 224)
        assert out.spacing == (1.0, 1.0, 1.0)
        assert np.all(out.data == 1.0)

    def test_two_voxel_ramp_midpoint(self):
        # centers at 0.5 and 1.5 mm; doubling the spacing puts the single
        # output center at 1.0 mm: exactly halfway up the ramp
        v = vol(np.array([[[0.0, 1.0]]]), (1.0, 1.0, 1.0))
        out = resample_trilinear(v, (1.0, 1.0, 2.0))
        assert out.extents == (1, 1, 1)
        assert out.data.item() == pytest.approx(0.5)

    def test_range_preserved_by_convex_weights(self):
        g = np.random.default_rng(1)
        data = g.random((9, 9, 9)).astype(np.float32)
        v = vol(data, (1.0, 1.0, 1.0))
        out = resample_trilinear(v, (0.7, 1.4, 0.9))
        assert out.data.min() >= data.min() - 1e-6
        assert out.data.max() <= data.max() + 1e-6

    def test_degenerate_target_rejected(self):
        v = vol(np.ones((2, 2, 2)))
        with pytest.raises(ShapeError):
            resample_trilinear(v, (100.0, 1.0, 1.0))

    def test_nearest_indices_invert_identity(self):
        idx = resample_nearest_indices((6, 6, 6), (1, 1, 1), (6, 6, 6), (1, 1, 1))
        for ax in idx:
            assert np.array_equal(ax, np.arange(6))


class TestClipNormalize:
    def test_constant_positive_becomes_ones(self):
        out = clip_normalize(vol(np.full((3, 3, 3), 7.5)))
        assert np.all(out.data == 1.0)

    def test_max_exactly_one_min_nonnegative(self):
        g = np.random.default_rng(2)
        out = clip_normalize(vol(g.random((6, 6, 6)) * 100))
        assert out.data.max() == 1.0
        assert out.data.min() >= 0.0

    def test_percentile_clip_against_sort_oracle(self):
        data = np.arange(1000, dtype=np.float32).reshape(10, 10, 10)
        out = clip_normalize(vol(data))
        # sort-based oracle: linear-interpolated 99.9th percentile
        flat = np.sort(data.reshape(-1))
        pos = 99.9 / 100 * (flat.size - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        expect_ceiling = flat[lo] + (pos - lo) * (flat[hi] - flat[lo])
        expect = np.minimum(data, np.float32(expect_ceiling))
        expect = expect / expect.max()
        assert np.allclose(out.data, expect)
        assert out.data.max() == 1.0

    def test_negative_voxels_clip_to_zero(self):
        data = np.linspace(-5.0, 5.0, 27).reshape(3, 3, 3)
        out = clip_normalize(vol(data)).data
        assert out.min() == 0.0 and out.max() == 1.0
        assert not out[data <= 0].any()
        # the positive voxels scale as in the same ramp with its negatives zeroed
        want = clip_normalize(vol(np.maximum(data, 0.0))).data
        assert np.array_equal(out[data > 0], want[data > 0])

    def test_all_zero_returned_with_warning(self):
        with pytest.warns(AllZeroVolumeWarning):
            out = clip_normalize(vol(np.zeros((2, 2, 2))))
        assert not out.data.any()

    @pytest.mark.parametrize("data", [
        np.array([-1.0, -2.0, 0.0, 0.0, -1.0, 0.0, -2.0, 0.0]),  # peak 0: was -inf/NaN
        -np.arange(1.0, 9.0),  # all negative: was 1.0 ... 7.94, outside [0, 1]
    ])
    def test_no_positive_peak_is_numeric_error(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning on the way
            with pytest.raises(NumericError, match="not positive"):
                clip_normalize(vol(data.reshape(2, 2, 2)))


class TestTiling:
    def test_128_cube_gives_8_patches(self):
        data = np.zeros((128, 128, 128), dtype=np.float32)
        padded, tiles = tile_patches(data, 64)
        assert padded == (128, 128, 128)
        assert len(tiles) == 8

    def test_100_cube_pads_to_128_and_crops_back(self):
        g = np.random.default_rng(3)
        data = g.random((100, 100, 100)).astype(np.float32)
        padded, tiles = tile_patches(data, 64)
        assert padded == (128, 128, 128)
        assert len(tiles) == 8
        out = crop_to(reassemble(tiles, padded), (100, 100, 100))
        assert np.array_equal(out, data)

    def test_roundtrip_bitexact(self):
        g = np.random.default_rng(4)
        data = g.random((48, 32, 16)).astype(np.float32)
        padded, tiles = tile_patches(data, 16)
        assert np.array_equal(reassemble(tiles, padded), data)

    def test_partition_covers_once(self):
        data = np.ones((20, 20, 20), dtype=np.float32)
        padded, tiles = tile_patches(data, 16)
        cover = np.zeros(padded, dtype=np.int32)
        for (z, y, x), block in tiles:
            cover[z:z + 16, y:y + 16, x:x + 16] += 1
        assert np.all(cover == 1)

    def test_overlap_rejected(self):
        t = np.zeros((4, 4, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            reassemble([((0, 0, 0), t), ((0, 0, 2), t)], (4, 4, 8))

    def test_pad_to_multiple_noop_when_aligned(self):
        data = np.zeros((8, 8, 8))
        assert pad_to_multiple(data, 4) is data


class TestThresholdBaseline:
    def test_constant_volume_all_ones(self):
        assert threshold_baseline(vol(np.full((3, 3, 3), 5.0))).all()

    def test_fraction_zero_catches_everything_nonnegative(self):
        g = np.random.default_rng(5)
        assert threshold_baseline(vol(g.random((4, 4, 4))), 0.0).all()

    def test_ramp_thresholds_at_fraction(self):
        data = np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4)
        mask = threshold_baseline(vol(data), 0.7)
        assert np.array_equal(mask, data >= 0.7 * data.max())


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(3, 20), h=st.integers(3, 20), w=st.integers(3, 20),
    patch=st.sampled_from([4, 8, 16]), seed=st.integers(0, 100),
)
def test_tile_reassemble_bijection_property(d, h, w, patch, seed):
    data = np.random.default_rng(seed).random((d, h, w)).astype(np.float32)
    padded, tiles = tile_patches(data, patch)
    assert all(e % patch == 0 for e in padded)
    out = crop_to(reassemble(tiles, padded), (d, h, w))
    assert np.array_equal(out, data)
