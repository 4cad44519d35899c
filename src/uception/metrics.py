"""Overlap and distance metrics for sparse binary segmentation.

The soft Dice coefficient doubles as the training objective (its negative
is the loss); hard Dice, sensitivity and the average Hausdorff distance
evaluate thresholded masks. The average Hausdorff distance ships with two
independent routes, which must agree: exact nearest-voxel distances from
separable passes (numpy only; the bits of
``scipy.ndimage.distance_transform_edt`` at the voxels averaged) and a
brute-force nearest-neighbour scan.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, ShapeError


def _check_pair(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    return pred, truth


def _as_bool_mask(x, what):
    x = np.asarray(x)
    if x.dtype == bool:
        return x
    vals = np.unique(x)
    if not np.isin(vals, (0, 1)).all():
        raise ShapeError(f"{what} must be strictly binary, found values {vals[:5]}")
    return x.astype(bool)


def soft_dice(pred, truth, smooth=0.0):
    """(2*sum(P*T) + smooth) / (sum(P) + sum(T) + smooth).

    truth must be strictly binary; pred holds probabilities in [0, 1].
    With smooth 0 and both masks empty the pair agrees perfectly: 1.0.
    """
    pred, truth = _check_pair(pred, truth)
    if smooth < 0:
        raise ShapeError(f"smooth must be >= 0, got {smooth}")
    t = _as_bool_mask(truth, "ground truth")
    p = pred.astype(np.float64, copy=False)
    num = 2.0 * float(p[t].sum()) + smooth
    den = float(p.sum()) + float(t.sum()) + smooth
    if den == 0.0:
        return 1.0
    return num / den


def soft_dice_backward(pred, truth, smooth=0.0):
    """Gradient of soft_dice with respect to the prediction.

    d/dP_i = 2*T_i/den - num/den^2 with num = 2*sum(P*T) + smooth and
    den = sum(P) + sum(T) + smooth.
    """
    pred, truth = _check_pair(pred, truth)
    t = _as_bool_mask(truth, "ground truth")
    p = pred.astype(np.float64, copy=False)
    num = 2.0 * p[t].sum() + smooth
    den = p.sum() + t.sum() + smooth
    if den == 0.0:
        return np.zeros_like(p)
    grad = np.full(p.shape, -num / den ** 2, dtype=np.float64)
    grad[t] += 2.0 / den
    return grad.astype(pred.dtype, copy=False)


def confusion_counts(pred_mask, truth_mask):
    p, t = _check_pair(pred_mask, truth_mask)
    p = _as_bool_mask(p, "prediction mask")
    t = _as_bool_mask(t, "truth mask")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    return tp, fp, fn


def hard_dice(pred_mask, truth_mask):
    """2TP / (2TP + FP + FN); two empty masks agree perfectly (1.0)."""
    tp, fp, fn = confusion_counts(pred_mask, truth_mask)
    den = 2 * tp + fp + fn
    if den == 0:
        return 1.0
    return 2.0 * tp / den


def sensitivity(pred_mask, truth_mask):
    """TP / (TP + FN). Undefined (error) when the ground truth is empty."""
    tp, _, fn = confusion_counts(pred_mask, truth_mask)
    if tp + fn == 0:
        raise EmptyMaskError("sensitivity is undefined for an empty ground truth")
    return tp / (tp + fn)


def _mask_coords_mm(mask, spacing):
    return np.argwhere(mask).astype(np.float64) * np.asarray(spacing, dtype=np.float64)


def _directed_mean_brute(from_mm, to_mm, chunk=2048):
    mins = []
    for start in range(0, from_mm.shape[0], chunk):
        block = from_mm[start:start + chunk]
        d2 = ((block[:, None, :] - to_mm[None, :, :]) ** 2).sum(axis=2)
        mins.append(np.sqrt(d2.min(axis=1)))
    return float(np.mean(np.concatenate(mins)))


def _parabola_min(values, source, index, pos, extent, step, bound_where=True):
    """Lower ``values[k]`` to the minimum over offsets d of
    ``source[index[k] +- d] + (d * step)^2``, in place.

    ``pos[k]`` is entry k's place on the scanned axis of length ``extent``
    and is sorted, so the entries that offset d can reach on either side
    are a suffix and a prefix. A candidate is never below its
    (d * step)^2, so the scan stops once that reaches the largest value
    still open to improvement (over the columns ``bound_where`` marks):
    the work grows with the largest distance needed, not with the extent.
    """
    for d in range(1, extent):
        t = d * step
        c = t * t
        if not c < values.max(where=bound_where, initial=0.0):
            break
        lo = np.searchsorted(pos, d)
        hi = np.searchsorted(pos, extent - d)
        np.minimum(values[lo:], source[index[lo:] - d] + c, out=values[lo:])
        np.minimum(values[:hi], source[index[:hi] + d] + c, out=values[:hi])
    return values


def _nearest_distances(features, queries, spacing, chunk=2 ** 17):
    """Euclidean distance in mm from each True voxel of ``queries`` (C
    order) to the nearest True voxel of ``features`` (not empty).

    Separable exact passes (Felzenszwalb & Huttenlocher, Theory of
    Computing 2012), evaluated only where they are needed: a binary pass
    along axis 0 gives (dz * s0)^2 everywhere, the parabola minimum along
    axis 1 runs on the (z, y) rows that hold a query, ``chunk`` values at a
    time, and the one along axis 2 at the query voxels alone. Each squared
    sum is rounded as ``((dz*s0)^2 + (dy*s1)^2) + (dx*s2)^2``; rounding is
    monotone, so every pass keeps the float minimum and the result carries
    the bits of ``scipy.ndimage.distance_transform_edt(~features,
    sampling=spacing)`` at the queries.
    """
    nz, ny, nx = features.shape
    s0, s1, s2 = spacing
    z = np.arange(nz, dtype=np.int32)[:, None, None]
    above = np.maximum.accumulate(np.where(features, z, -2 * nz), axis=0)
    below = np.minimum.accumulate(np.where(features, z, 3 * nz)[::-1], axis=0)[::-1]
    dz = np.minimum(z - above, below - z)
    g = dz * s0
    g *= g
    g[dz >= nz] = np.inf  # a column without features
    del above, below, dz
    g = g.reshape(nz * ny, nx)
    feature_columns = features.any(axis=(0, 1))

    qz, qy, qx = np.nonzero(queries)
    key = qz * ny + qy  # each query's (z, y) row; non-decreasing
    rows = np.unique(key)
    dist = np.empty(len(key))
    per_chunk = max(1, chunk // nx)
    for start in range(0, len(rows), per_chunk):
        part = rows[start:start + per_chunk]
        q = slice(np.searchsorted(key, part[0]), np.searchsorted(key, part[-1], "right"))
        by_y = np.argsort(part % ny, kind="stable")
        h = _parabola_min(g[part[by_y]], g, part[by_y], part[by_y] % ny, ny, s1,
                          bound_where=feature_columns).reshape(-1)
        rank = np.empty_like(by_y)
        rank[by_y] = np.arange(len(by_y))
        by_x = np.argsort(qx[q], kind="stable")
        x = qx[q][by_x]
        at = rank[np.searchsorted(part, key[q][by_x])] * nx + x
        dist[q][by_x] = np.sqrt(_parabola_min(h[at], h, at, x, nx, s2))
    return dist


def _directed_mean_edt(frm, to, spacing):
    """Mean over frm's voxels of the distance to the nearest voxel of to."""
    dist = np.zeros(np.count_nonzero(frm))
    dist[~to[frm]] = _nearest_distances(to, frm & ~to, spacing)
    return float(dist.mean())


def average_hausdorff(pred_mask, truth_mask, spacing=(1.0, 1.0, 1.0), method="edt"):
    """Symmetric mean of directed mean nearest-neighbour distances, in mm.

    0.5 * (mean over P of min distance to T + mean over T of min distance
    to P), Euclidean in physical units. ``method`` selects the exact
    nearest-voxel route ('edt', up to 3 axes) or the brute-force oracle
    ('brute');
    the two agree (bit-for-bit wherever spacing products are exactly
    representable, e.g. 1 mm isotropic).
    """
    p, t = _check_pair(pred_mask, truth_mask)
    p = _as_bool_mask(p, "prediction mask")
    t = _as_bool_mask(t, "truth mask")
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != p.ndim:
        raise ShapeError(f"spacing has {len(spacing)} entries for a {p.ndim}-axis mask")
    if any(s <= 0 for s in spacing):
        raise ShapeError(f"spacing must be strictly positive, got {spacing}")
    if not p.any():
        raise EmptyMaskError("average Hausdorff needs a non-empty prediction mask")
    if not t.any():
        raise EmptyMaskError("average Hausdorff needs a non-empty truth mask")
    if method == "edt":
        if p.ndim > 3:
            raise ShapeError(f"the 'edt' route takes masks of up to 3 axes, got {p.ndim}")
        lift = (1,) * (3 - p.ndim)  # unit leading axes leave every distance as it is
        p, t = p.reshape(lift + p.shape), t.reshape(lift + t.shape)
        spacing = (1.0,) * len(lift) + spacing
        mean_p = _directed_mean_edt(p, t, spacing)
        mean_t = _directed_mean_edt(t, p, spacing)
    elif method == "brute":
        pc = _mask_coords_mm(p, spacing)
        tc = _mask_coords_mm(t, spacing)
        mean_p = _directed_mean_brute(pc, tc)
        mean_t = _directed_mean_brute(tc, pc)
    else:
        raise ShapeError(f"unknown method {method!r}; expected 'edt' or 'brute'")
    return 0.5 * (mean_p + mean_t)


@dataclass
class SegReport:
    """Evaluation record for one prediction/ground-truth pair."""

    dice: float
    sensitivity: float
    avg_hausdorff_mm: float
    voxel_spacing: tuple[float, float, float]
    name: str = ""

    def to_record(self):
        lines = []
        if self.name:
            lines.append(f"volume = {self.name}")
        lines.append(f"dice = {self.dice:.6f}")
        lines.append(f"sensitivity = {self.sensitivity:.6f}")
        lines.append(f"avg_hausdorff_mm = {self.avg_hausdorff_mm:.6f}")
        lines.append("spacing_mm = {} {} {}".format(*self.voxel_spacing))
        return "\n".join(lines) + "\n"


def evaluate_masks(pred_mask, truth_mask, spacing=(1.0, 1.0, 1.0), name=""):
    """Build a SegReport; an empty mask yields a NaN sensitivity or
    distance where that metric is undefined, not a crash."""
    return SegReport(dice=hard_dice(pred_mask, truth_mask),
                     sensitivity=_nan_if_empty(sensitivity, pred_mask, truth_mask),
                     avg_hausdorff_mm=_nan_if_empty(average_hausdorff, pred_mask,
                                                    truth_mask, spacing),
                     voxel_spacing=tuple(float(x) for x in spacing), name=name)


def _nan_if_empty(metric, *args):
    try:
        return metric(*args)
    except EmptyMaskError:
        return float("nan")


def summarize_reports(reports):
    """Mean +/- std rows in the order Dice, Sensitivity, Avg. Hausdorff."""
    rows = [
        ("Dice", [r.dice for r in reports]),
        ("Sensitivity", [r.sensitivity for r in reports]),
        ("Avg. Hausdorff Dist.[mm]", [r.avg_hausdorff_mm for r in reports]),
    ]
    lines = []
    for label, values in rows:
        arr = np.asarray(values, dtype=np.float64)
        finite = arr[np.isfinite(arr)]
        if finite.size == 0:
            lines.append(f"{label}\tnan\tnan")
            continue
        mean = finite.mean()
        std = finite.std(ddof=1) if finite.size > 1 else 0.0
        lines.append(f"{label}\t{mean:.4f}\t{std:.4f}")
    return "\n".join(lines) + "\n"
