"""Phantom generator: determinism, sparsity, ball-volume sanity."""
import hashlib

import numpy as np
import pytest

from uception.errors import DataError, ShapeError
from uception.phantom import (PhantomSpec, _gaussian_blur, _stamp_ball,
                              generate_phantom, write_phantom_dataset)
from uception.preprocess import resample_trilinear
from uception.volume import load_metaimage, volume_to_mask


def test_same_seed_identical_volumes():
    spec = PhantomSpec(seed=7)
    img1, tru1 = generate_phantom(spec)
    img2, tru2 = generate_phantom(spec)
    assert np.array_equal(img1.data, img2.data)
    assert np.array_equal(tru1.data, tru2.data)


def test_different_seeds_differ():
    img1, _ = generate_phantom(PhantomSpec(seed=0))
    img2, _ = generate_phantom(PhantomSpec(seed=1))
    assert not np.array_equal(img1.data, img2.data)


def test_default_spec_is_sparse():
    for seed in range(5):
        _, tru = generate_phantom(PhantomSpec(seed=seed))
        assert volume_to_mask(tru).mean() < 0.05


@pytest.mark.parametrize("radius", [2.0, 2.8])
def test_stamped_ball_matches_sphere_volume(radius):
    # a ball centred on a voxel covers within 20% of 4/3 pi r^3 voxels,
    # all at the stamped value, and stamping it again changes nothing
    grid = np.zeros((16, 16, 16))
    _stamp_ball(grid, (8.0, 8.0, 8.0), radius, 0.7)
    count = int((grid > 0).sum())
    expect = 4.0 / 3.0 * np.pi * radius ** 3
    assert abs(count - expect) / expect <= 0.20
    assert set(np.unique(grid)) == {0.0, 0.7}
    again = grid.copy()
    _stamp_ball(again, (8.0, 8.0, 8.0), radius, 0.7)
    assert np.array_equal(again, grid)


def test_truth_is_binary_and_image_nonnegative():
    img, tru = generate_phantom(PhantomSpec(seed=11))
    assert set(np.unique(tru.data)) <= {0.0, 1.0}
    assert img.data.min() >= 0.0


def test_foreground_bound_enforced():
    dense = PhantomSpec(extents=(16, 16, 16), tubes=30, radius_range=(2.5, 3.0),
                        seed=0)
    with pytest.raises(DataError):
        generate_phantom(dense)


def test_bad_spec_rejected():
    with pytest.raises(ShapeError):
        PhantomSpec(tubes=0)
    with pytest.raises(ShapeError):
        PhantomSpec(radius_range=(0.0, 1.0))


@pytest.mark.parametrize("setting", [
    {"noise": float("nan")}, {"noise": -0.1}, {"noise": float("inf")},
    {"radius_range": (1.0, float("inf"))}, {"radius_range": (2.0, 1.0)},
    {"radius_range": (float("nan"), 3.0)}, {"radius_range": (-1.0, 3.0)},
    {"spacing": (1.0, float("nan"), 1.0)}, {"spacing": (1.0, 0.0, 1.0)},
    {"spacing": (1.0, 1.0)}, {"spacing": (float("inf"), 1.0, 1.0)},
    {"spacing": (1.0, 1.0, -0.5)}, {"extents": (7, 8, 8)}, {"extents": (8, 8)},
    {"tubes": -1}, {"seed": -1}, {"blobs": -1},
])
def test_non_finite_or_negative_settings_rejected(setting):
    with pytest.raises(ShapeError):
        PhantomSpec(**setting)


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("shape", [(8, 8, 8), (8, 13, 10), (21, 9, 16), (43, 41, 46)])
def test_gaussian_bits_match_scipy(sigma, shape):
    ndimage = pytest.importorskip("scipy.ndimage")
    x = np.random.default_rng(int(sigma * 10) + shape[1]).random(shape)
    assert np.array_equal(_gaussian_blur(x, sigma), ndimage.gaussian_filter(x, sigma))


def test_dataset_writer_split_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    w1 = write_phantom_dataset(out1, 3, 1, 2, PhantomSpec(extents=(16, 16, 16), tubes=1, radius_range=(1.2, 1.4), blobs=1, seed=5))
    w2 = write_phantom_dataset(out2, 3, 1, 2, PhantomSpec(extents=(16, 16, 16), tubes=1, radius_range=(1.2, 1.4), blobs=1, seed=5))
    assert len(w1["train"]) == 3 and len(w1["val"]) == 1 and len(w1["test"]) == 2
    for split in ("train", "val", "test"):
        for (img1, seg1), (img2, seg2) in zip(w1[split], w2[split]):
            with open(img1, "rb") as f1, open(img2, "rb") as f2:
                assert f1.read() == f2.read()
            with open(seg1, "rb") as f1, open(seg2, "rb") as f2:
                assert f1.read() == f2.read()


def test_dataset_files_load_as_pairs(tmp_path):
    w = write_phantom_dataset(tmp_path, 1, 1, 1, PhantomSpec(extents=(16, 16, 16), tubes=1, radius_range=(1.2, 1.4), blobs=1))
    img_path, seg_path = w["test"][0]
    img, _ = load_metaimage(img_path)
    seg, _ = load_metaimage(seg_path)
    assert img.extents == seg.extents == (16, 16, 16)
    assert volume_to_mask(seg).any()


def test_empty_dataset_rejected(tmp_path):
    with pytest.raises(DataError):
        write_phantom_dataset(tmp_path, 0, 0, 0)


def _sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestGoldenPhantom:
    """Pins the exact bytes of two phantoms and of one trilinear resample,
    so a change to how the background or the resampler blends cannot move
    a dataset."""

    def test_default_spec_bytes(self):
        img, tru = generate_phantom(PhantomSpec(seed=0))
        assert _sha256(img.data) == (
            "a6a0bc71723d65b06dd6d2d0c8a4c2e57cd753797763b852353c044a5254ba81")
        assert _sha256(tru.data) == (
            "091a57449e308ce3d7a5151710d4ec839ffaf0f4ad4f22bcd046ef0ea453af24")

    def test_anisotropic_phantom_and_resample_bytes(self):
        spec = PhantomSpec(seed=7, spacing=(0.9, 0.85, 0.95), extents=(43, 41, 46))
        img, _ = generate_phantom(spec)
        assert _sha256(img.data) == (
            "35fc15c04afa4c653d2d873950458e36444c81f66efcb8fa078eb448be70978e")
        iso = resample_trilinear(img, (1.0, 1.0, 1.0))
        assert iso.data.shape == (39, 35, 44)
        assert _sha256(iso.data) == (
            "2eba5c7ff8ed569fffe12a11c13ad6a79bb6c48cc7afa09b923743990183ffe4")
