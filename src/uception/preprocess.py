"""Volume preprocessing: isotropic resampling, intensity conditioning,
patch tiling and the intensity-threshold baseline segmenter.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import NumericError, ShapeError
from .volume import Volume


class AllZeroVolumeWarning(UserWarning):
    """clip_normalize left an all-zero volume unchanged."""


def _axis_fractional_index(n_out, ratio, n_in):
    # voxel centers sit at (i + 0.5) * spacing; identical spacing maps j -> j
    f = (np.arange(n_out, dtype=np.float64) + 0.5) * ratio - 0.5
    return np.clip(f, 0.0, n_in - 1)


def resample_trilinear(volume, target_spacing=(1.0, 1.0, 1.0)):
    """Resample to a new spacing; each output voxel is sampled at its
    physical center by trilinear interpolation, clamped at the edges.

    Output extents are round(extent * spacing / target) per axis.
    """
    target = tuple(float(t) for t in target_spacing)
    if len(target) != 3 or any(t <= 0 for t in target):
        raise ShapeError(f"target spacing must be 3 positive reals, got {target_spacing}")
    src = volume.data.astype(np.float64)
    out_ext = []
    fids = []
    for ax in range(3):
        n_in = src.shape[ax]
        s, t = volume.spacing[ax], target[ax]
        n_out = int(round(n_in * s / t))
        if n_out < 1:
            raise ShapeError(
                f"resampling axis {ax} from {n_in} voxels at {s} mm to {t} mm "
                "yields an empty volume"
            )
        out_ext.append(n_out)
        fids.append(_axis_fractional_index(n_out, t / s, n_in))
    lo = [np.floor(f).astype(np.intp) for f in fids]
    hi = [np.minimum(l + 1, src.shape[ax] - 1) for ax, l in enumerate(lo)]
    fr = [f - l for f, l in zip(fids, lo)]
    return Volume(trilinear_blend(src, lo, hi, fr).astype(np.float32), target)


def trilinear_blend(src, lo, hi, frac):
    """Blend src at every (z, y, x) point of three per-axis sample grids:
    lo and hi index each axis's lower and upper corner, frac weighs hi."""
    shapes = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
    (iz0, iy0, ix0), (iz1, iy1, ix1), (fz, fy, fx) = (
        [np.reshape(a, s) for a, s in zip(axes, shapes)] for axes in (lo, hi, frac))
    c00 = src[iz0, iy0, ix0] * (1 - fx) + src[iz0, iy0, ix1] * fx
    c01 = src[iz0, iy1, ix0] * (1 - fx) + src[iz0, iy1, ix1] * fx
    c10 = src[iz1, iy0, ix0] * (1 - fx) + src[iz1, iy0, ix1] * fx
    c11 = src[iz1, iy1, ix0] * (1 - fx) + src[iz1, iy1, ix1] * fx
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    return c0 * (1 - fz) + c1 * fz


def clip_normalize(volume):
    """Clip to [0, the 99.9th percentile], then divide by the post-clip
    maximum so the output lies in [0, 1] with max exactly 1: the bright
    tail saturates and negative voxels (a signed image) map to 0.

    An all-zero volume has no usable scale: it is returned unchanged and
    an AllZeroVolumeWarning is emitted. Any other volume whose post-clip
    maximum is not positive (no bright tail to scale by) raises
    NumericError.
    """
    data = volume.data
    if data.size == 0:
        raise ShapeError("cannot normalize an empty volume")
    if not data.any():
        warnings.warn("all-zero volume left unnormalized", AllZeroVolumeWarning,
                      stacklevel=2)
        return Volume(data.copy(), volume.spacing)
    clipped = np.clip(data, 0, np.float32(np.percentile(data, 99.9)))
    peak = clipped.max()
    if not peak > 0:
        raise NumericError(f"cannot normalize a volume whose clipped maximum is {peak}, "
                           "not positive")
    return Volume(clipped / peak, volume.spacing)


def resample_nearest_indices(target_extents, target_spacing, source_extents,
                             source_spacing):
    """Per-axis nearest-neighbour gather indices mapping a source grid onto
    a target grid by physical voxel-center position (the inverse resample
    used to carry masks back to their original spacing)."""
    return tuple(np.rint(_axis_fractional_index(n_t, s_t / s_s, n_s)).astype(np.intp)
                 for n_t, s_t, n_s, s_s in zip(target_extents, target_spacing,
                                               source_extents, source_spacing))


def pad_to_multiple(data, multiple):
    """Zero-pad at the high end of every axis up to the next multiple."""
    pads = [(0, (-n) % multiple) for n in data.shape]
    if any(p[1] for p in pads):
        return np.pad(data, pads)
    return data


def tile_patches(volume, patch=64):
    """Non-overlapping patch partition of the zero-padded volume.

    Returns (padded extents, list of (origin, patch array)). Origins index
    the padded volume; together the patches cover it exactly once.
    """
    if patch < 1:
        raise ShapeError(f"patch extent must be positive, got {patch}")
    data = pad_to_multiple(np.asarray(volume.data if isinstance(volume, Volume) else volume),
                           patch)
    tiles = []
    for z in range(0, data.shape[0], patch):
        for y in range(0, data.shape[1], patch):
            for x in range(0, data.shape[2], patch):
                tiles.append(((z, y, x),
                              np.ascontiguousarray(data[z:z + patch, y:y + patch,
                                                        x:x + patch])))
    return data.shape, tiles


def reassemble(tiles, padded_extents, dtype=np.float32):
    """Inverse of tile_patches over the padded extents."""
    out = np.zeros(padded_extents, dtype=dtype)
    filled = np.zeros(padded_extents, dtype=bool)
    for (z, y, x), block in tiles:
        dz, dy, dx = block.shape
        region = (slice(z, z + dz), slice(y, y + dy), slice(x, x + dx))
        if filled[region].any():
            raise ShapeError(f"overlapping patch at origin {(z, y, x)}")
        out[region] = block
        filled[region] = True
    if not filled.all():
        raise ShapeError("patches do not cover the padded extents")
    return out


def crop_to(data, extents):
    return np.ascontiguousarray(data[: extents[0], : extents[1], : extents[2]])


def threshold_baseline(volume, fraction=0.70):
    """Binary mask of voxels at or above fraction * max intensity."""
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
    return data >= fraction * data.max()
