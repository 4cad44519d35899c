"""Overlap and distance metrics for sparse binary segmentation.

The soft Dice coefficient doubles as the training objective (its negative
is the loss); hard Dice, sensitivity and the average Hausdorff distance
evaluate thresholded masks. The average Hausdorff distance ships with two
independent routes, an exact Euclidean distance transform and a brute
force nearest-neighbour scan, which must agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt

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


def average_hausdorff(pred_mask, truth_mask, spacing=(1.0, 1.0, 1.0), method="edt"):
    """Symmetric mean of directed mean nearest-neighbour distances, in mm.

    0.5 * (mean over P of min distance to T + mean over T of min distance
    to P), Euclidean in physical units. ``method`` selects the exact
    distance-transform route ('edt') or the brute-force oracle ('brute');
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
        dist_to_t = distance_transform_edt(~t, sampling=spacing)
        dist_to_p = distance_transform_edt(~p, sampling=spacing)
        mean_p = float(dist_to_t[p].mean())
        mean_t = float(dist_to_p[t].mean())
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
