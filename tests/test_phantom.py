"""Phantom generator: determinism, sparsity, cylinder-volume sanity."""
import hashlib

import numpy as np
import pytest

from uception.errors import DataError, ShapeError
from uception.phantom import (PhantomSpec, _gaussian_blur, generate_phantom,
                              write_phantom_dataset)
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


def test_straight_tube_matches_cylinder_volume():
    # noise 0, one straight axis-aligned tube of radius 2 through a 64-cube:
    # voxel count within 20% of pi * r^2 * length
    spec = PhantomSpec(extents=(64, 64, 64), tubes=1, radius_range=(2.0, 2.0),
                       noise=0.0, blobs=0, straight_axis=0, seed=3)
    _, tru = generate_phantom(spec)
    count = int(volume_to_mask(tru).sum())
    expect = np.pi * 2.0 ** 2 * 64
    assert abs(count - expect) / expect <= 0.20


def test_truth_is_binary_and_image_nonnegative():
    img, tru = generate_phantom(PhantomSpec(seed=11))
    assert set(np.unique(tru.data)) <= {0.0, 1.0}
    assert img.data.min() >= 0.0


def test_foreground_bound_enforced():
    dense = PhantomSpec(extents=(16, 16, 16), tubes=30, radius_range=(2.5, 3.0),
                        seed=0, max_foreground=0.05)
    with pytest.raises(DataError):
        generate_phantom(dense)


def test_bad_spec_rejected():
    with pytest.raises(ShapeError):
        PhantomSpec(tubes=0)
    with pytest.raises(ShapeError):
        PhantomSpec(radius_range=(0.0, 1.0))
    with pytest.raises(ShapeError):
        PhantomSpec(straight_axis=5)


@pytest.mark.parametrize("setting", [
    {"noise": float("nan")}, {"noise": -0.1}, {"curvature": float("inf")},
    {"curvature": -0.2}, {"walk_step": 0.0}, {"walk_step": float("nan")},
    {"blur_sigma": float("inf")}, {"blur_sigma": float("nan")}, {"blur_sigma": -1.0},
    {"radius_range": (1.0, float("inf"))}, {"radius_range": (2.0, 1.0)},
    {"blob_radius_range": (float("nan"), 3.0)}, {"blob_radius_range": (-1.0, 3.0)},
    {"spacing": (1.0, float("nan"), 1.0)}, {"spacing": (1.0, 0.0, 1.0)},
    {"spacing": (1.0, 1.0)}, {"max_foreground": float("nan")},
])
def test_non_finite_or_negative_settings_rejected(setting):
    with pytest.raises(ShapeError):
        PhantomSpec(**setting)


def test_blur_radius_must_stay_below_the_smallest_extent():
    PhantomSpec(extents=(8, 9, 10), blur_sigma=1.74)  # radius 7
    with pytest.raises(ShapeError, match="smallest extent 8"):
        PhantomSpec(extents=(8, 9, 10), blur_sigma=1.88)  # radius 8


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
