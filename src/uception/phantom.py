"""Synthetic vascular phantoms.

Random-walk tubes of varying radius stand in for vessels; bright
spherical distractors, a smooth background field, a point-spread blur and
Gaussian noise make plain intensity thresholding imperfect the same way
it is on real angiography: thin tubes sit below the bright-max threshold
and distractors sit above it. Ground truth stays binary and unblurred.

Everything is deterministic per seed, byte for byte, and needs numpy
only: the blur is a separable Gaussian that reproduces the bits of
``scipy.ndimage.gaussian_filter``.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .preprocess import trilinear_blend
from .volume import Volume, save_metaimage


# fixed generator settings; no workflow varies them
WALK_STEP = 1.5                  # length over which the direction jitter acts
CURVATURE = 0.35                 # direction jitter per walk step
BLOB_RADIUS_RANGE = (2.5, 4.0)   # distractor radii
BLUR_SIGMA = 0.3                 # point-spread blur; kernel radius 1
MAX_FOREGROUND = 0.05            # sparsity bound on the truth


@dataclass(frozen=True)
class PhantomSpec:
    """What one phantom holds: `extents` (3 voxel counts, each >= 8),
    `tubes` random-walk vessels with radii spread over `radius_range`,
    `blobs` bright distractors, Gaussian `noise` of that standard
    deviation, the voxel `spacing` written with the volumes, and the RNG
    `seed`. The walk, distractor radii, blur and sparsity bound are the
    module constants above.
    """
    extents: tuple[int, int, int] = (48, 48, 48)
    tubes: int = 3
    radius_range: tuple[float, float] = (1.2, 2.8)
    noise: float = 0.015
    blobs: int = 3
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if len(self.extents) != 3 or any(int(e) < 8 for e in self.extents):
            raise ConfigError(f"phantom extents must be 3 values >= 8, got {self.extents}")
        for name, least in (("tubes", 1), ("blobs", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"phantom {name} must be >= {least}, got {getattr(self, name)}")
        for name in ("noise", "radius_range", "spacing"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            strict = name != "noise"
            if not (np.isfinite(values) & (values > 0 if strict else values >= 0)).all():
                raise ConfigError(f"phantom {name} must be finite and {'>' if strict else '>='}"
                                  f" 0, got {getattr(self, name)}")
        lo, hi = self.radius_range
        if not lo <= hi:
            raise ConfigError(f"bad phantom radius_range {self.radius_range}")
        if len(self.spacing) != 3:
            raise ConfigError(f"phantom spacing must be 3 values, got {self.spacing}")


def _stamp_ball(grid, center, radius, value):
    """Max-blend a solid ball (voxel centers within radius) into grid."""
    shape = grid.shape
    r = float(radius)
    lo = [max(0, int(math.floor(c - r))) for c in center]
    hi = [min(shape[i], int(math.ceil(center[i] + r)) + 1) for i in range(3)]
    if any(l >= h for l, h in zip(lo, hi)):
        return
    zz, yy, xx = np.ogrid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    inside = ((zz - center[0]) ** 2 + (yy - center[1]) ** 2
              + (xx - center[2]) ** 2) <= r * r
    box = grid[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]]
    np.maximum(box, np.where(inside, value, 0.0).astype(grid.dtype), out=box)


def _unit(v):
    n = float(np.linalg.norm(v))
    return v / n if n > 0 else np.array([1.0, 0.0, 0.0])


def _tube_intensity(radius, rng):
    # thin tubes render dimmer (partial-volume-like), thick ones brighter;
    # most of the band sits below 70% of the distractor-set maximum
    base = 0.45 + 0.11 * min(max(radius, 1.0), 3.0)
    return base + rng.uniform(-0.03, 0.03)


def _walk_tube(intensity_map, extents, rng, radius):
    ext = np.asarray(extents, dtype=np.float64)
    value = _tube_intensity(radius, rng)
    substep = 0.5
    pos = np.array([rng.uniform(0.15 * e, 0.85 * e) for e in ext])
    direction = _unit(rng.normal(size=3))
    length = 2.0 * float(ext.max())
    traveled = 0.0
    while traveled <= length:
        _stamp_ball(intensity_map, pos, radius, value)
        pos = pos + direction * substep
        traveled += substep
        if np.any(pos < -radius) or np.any(pos > ext + radius):
            break
        direction = _unit(direction + CURVATURE * substep / WALK_STEP
                          * rng.normal(size=3))


def _gaussian_blur(x, sigma):
    """Separable Gaussian correlation over every axis, reflect mode, f64.

    The taps are built as scipy.ndimage's ``_gaussian_kernel1d`` builds
    them (radius int(4 sigma + 0.5)), and each output sums as scipy's
    symmetric correlation does: ``w0 * x[i]``, then ``(x[i-j] + x[i+j]) *
    w[j]`` from the outermost pair in, so the result carries the bits of
    ``scipy.ndimage.gaussian_filter(x, sigma)`` as long as the radius
    stays below every extent, where both reflect the same way: BLUR_SIGMA
    gives radius 1, and every PhantomSpec extent is at least 8.
    """
    radius = int(4.0 * sigma + 0.5)
    taps = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    w = w / w.sum()
    for axis in range(x.ndim):
        n = x.shape[axis]
        pad = [(0, 0)] * x.ndim
        pad[axis] = (radius, radius)
        xp = np.moveaxis(np.pad(x, pad, mode="symmetric"), axis, 0)
        out = xp[radius:radius + n] * w[radius]
        for j in range(radius, 0, -1):
            lo, hi = radius - j, radius + j
            out += (xp[lo:lo + n] + xp[hi:hi + n]) * w[hi]
        x = np.moveaxis(out, 0, axis)
    return x


def _smooth_background(extents, rng):
    coarse = rng.uniform(0.0, 1.0, size=(4, 4, 4))
    grids = [np.linspace(0.0, 3.0, n) for n in extents]
    lo = [np.floor(g).astype(int).clip(0, 2) for g in grids]
    fr = [g - l for g, l in zip(grids, lo)]
    return 0.12 + 0.10 * trilinear_blend(coarse, lo, [l + 1 for l in lo], fr)


def generate_phantom(spec: PhantomSpec):
    """Build one (image, truth) pair of Volumes from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    extents = tuple(int(e) for e in spec.extents)
    structures = np.zeros(extents, dtype=np.float64)
    # stratified radii: every phantom mixes thin and thick tubes
    lo, hi = spec.radius_range
    radii = np.linspace(lo, hi, spec.tubes) if spec.tubes > 1 else np.array([(lo + hi) / 2])
    radii = np.clip(radii + rng.uniform(-0.1, 0.1, spec.tubes), lo, hi)
    for radius in radii:
        _walk_tube(structures, extents, rng, float(radius))
    # each tube ball is stamped once, at a value of at least 0.53
    # (_tube_intensity), so the truth is exactly the nonzero voxels
    # before the blobs go in
    truth = structures > 0
    for _ in range(spec.blobs):
        radius = rng.uniform(*BLOB_RADIUS_RANGE)
        center = [rng.uniform(radius, e - radius) for e in extents]
        # distractor: brighter than any vessel, never in the truth; the
        # tight range pins the volume maximum the baseline normalizes by
        _stamp_ball(structures, center, radius, rng.uniform(0.98, 1.02))
    fg = truth.mean()
    if fg >= MAX_FOREGROUND:
        raise ConfigError(
            f"phantom foreground fraction {fg:.3f} violates sparsity bound "
            f"{MAX_FOREGROUND}"
        )
    structures = _gaussian_blur(structures, BLUR_SIGMA)
    image = np.maximum(_smooth_background(extents, rng), structures)
    if spec.noise > 0:
        image = image + spec.noise * rng.standard_normal(extents)
    image = np.maximum(image, 0.0)
    return (Volume(image.astype(np.float32), spec.spacing),
            Volume(truth.astype(np.float32), spec.spacing))


def write_phantom_dataset(out_dir, n_train, n_val, n_test, spec=None):
    """Write (image, truth) MetaImage pairs for a train/val/test split.

    File i of each split is generated from a seed derived from
    (spec.seed, split index, i), so any file is reproducible in isolation.
    Returns the written paths keyed by split.
    """
    if min(n_train, n_val, n_test) < 0 or n_train + n_val + n_test == 0:
        raise ConfigError("dataset needs a positive number of volumes")
    if n_train == 0:
        raise ConfigError("dataset needs at least one training volume")
    spec = spec or PhantomSpec()
    # every volume is generated before anything is written, so a volume
    # that breaks the sparsity bound leaves no directory behind
    volumes = {}
    for split_idx, (split, count) in enumerate(
            (("train", n_train), ("val", n_val), ("test", n_test))):
        seeds = (np.random.SeedSequence([int(spec.seed), split_idx, i]).generate_state(1)[0]
                 for i in range(count))
        volumes[split] = [generate_phantom(replace(spec, seed=int(seed))) for seed in seeds]
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    for split, pairs in volumes.items():
        written[split] = []
        for i, (image, truth) in enumerate(pairs):
            img_path = os.path.join(out_dir, f"{split}_{i:03d}_img.mha")
            seg_path = os.path.join(out_dir, f"{split}_{i:03d}_seg.mha")
            save_metaimage(image, img_path, "MET_FLOAT")
            save_metaimage(truth, seg_path, "MET_UCHAR")
            written[split].append((img_path, seg_path))
    return written
