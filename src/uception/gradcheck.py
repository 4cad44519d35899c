"""Central finite-difference verification of every analytic backward pass.

Each check projects the operation's output against a fixed random
weighting r, giving a scalar L whose analytic gradient comes from the
backward pass with grad_out = r. Central differences probe every entry of
small arrays and a seeded sample of large ones. All checks run in the
64-bit numeric mode.

Every layer, block and model check is built by ``_layer_case``: it runs the
layer the way training does, through ``layers.call`` in TRAIN mode and
``layers.back`` on that cache, so the checked backward reads the caches
training keeps (ReLU and dropout masks, the pool route). The blocks and
models check ``layers.Concat`` inside them; only the bare
``ops.concat_channels`` and the soft-Dice loss, which are not layers,
build their own cases. A case is (scalar_fn, arrays, analytic), plus
(cap, h) for the layer cases, and ``probe_case`` probes it.
The relative error metric is |a - f| / max(1e-8, |a| + |f|), reported as
the maximum over all probed entries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers, ops
from .blocks import DeepBlock, ReductionBlock
from .layers import TRAIN, Context, Conv3d, Dropout, MaxPool3d, ReLU, Sigmoid, UpsampleNearest
from .metrics import soft_dice, soft_dice_backward
from .models import UceptionCfg, Uception, UNet3d
from .ops import SAME, VALID, ConvSpec

DEFAULT_TOL = 1e-4
MODEL_TOL = 1e-3
DICE_TOL = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_rel_error <= self.tolerance


def rel_error(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))


def _sample_flat_indices(size, cap, rng):
    if size <= cap:
        return np.arange(size)
    return rng.choice(size, size=cap, replace=False)


def probe(scalar_fn, arrays, analytic, cap=160, h=1e-5, seed=7):
    """Max relative error between analytic gradients and central FD.

    arrays: label -> array probed in place; analytic: label -> gradient.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for label, arr in arrays.items():
        grad = analytic[label]
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in _sample_flat_indices(flat.size, cap, rng):
            orig = flat[i]
            step = h * max(1.0, abs(orig))
            flat[i] = orig + step
            fp = scalar_fn()
            flat[i] = orig - step
            fm = scalar_fn()
            flat[i] = orig
            fd = (fp - fm) / (2.0 * step)
            worst = max(worst, float(rel_error(gflat[i], fd)))
    return worst


def probe_case(case, corrupt=False):
    """Probe a check's case; corrupt adds 0.05 to every analytic gradient
    (a self-test that a wrong backward is caught)."""
    scalar_fn, arrays, analytic, *steps = case
    if corrupt:
        analytic = {label: g + 0.05 for label, g in analytic.items()}
    return probe(scalar_fn, arrays, analytic, *steps)


def _check_concat():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((1, 2, 3, 3, 3))
    b = rng.standard_normal((1, 3, 3, 3, 3))
    r = rng.standard_normal((1, 5, 3, 3, 3))

    def scalar():
        return float((ops.concat_channels([a, b]) * r).sum())

    ga, gb = ops.concat_channels_backward(r, [2, 3])
    return scalar, {"a": a, "b": b}, {"a": ga, "b": gb}


def _check_soft_dice(smooth):
    rng = np.random.default_rng(20)
    p = rng.uniform(0.05, 0.95, size=(1, 1, 4, 4, 4))
    t = (rng.random((1, 1, 4, 4, 4)) < 0.3).astype(np.float64)
    if smooth == 0.0 and t.sum() == 0:
        t.flat[0] = 1.0

    def scalar():
        return soft_dice(p, t, smooth)

    return scalar, {"p": p}, {"p": soft_dice_backward(p, t, smooth)}


def _layer_case(layer, in_c, ext, seed, cap=160, h=1e-5):
    """Case for a layer, block or model on a (1, in_c, ext, ext, ext) input.

    He weights, then biases, x and r draw from default_rng(seed); every
    forward is a TRAIN-mode layers.call that replays one dropout stream,
    also seeded seed, and the analytic side is one layers.back.
    """
    rng = np.random.default_rng(seed)
    layers.init_params(layer, rng)
    params = layers.parameters(layer)
    # zero-bias ReLU units sit exactly on the kink wherever their inputs
    # vanish (common after ReLU); move every bias well away from it
    for name, arr in params.items():
        if name.endswith(".b"):
            arr[...] = np.sign(rng.standard_normal(arr.shape)) * rng.uniform(
                0.05, 0.2, arr.shape)
    x = rng.standard_normal((1, in_c, ext, ext, ext))

    def run():
        return layers.call(layer, x, Context(mode=TRAIN, rng=seed))

    y0, cache = run()
    r = rng.standard_normal(y0.shape)

    def scalar():
        y, _ = run()
        return float((y * r).sum())

    grads = {}
    gx = layers.back(layer, r, cache, grads)
    return scalar, {"x": x, **params}, {"x": gx, **grads}, cap, h


def _conv(kernel, stride, padding, in_c, out_c):
    spec = ConvSpec(in_c, out_c, (kernel,) * 3, (stride,) * 3, padding)
    return Conv3d("conv", spec, np.float64)


def _pool(window, stride, padding):
    return MaxPool3d((window,) * 3, (stride,) * 3, padding)


# deep stacks shift thousands of downstream pre-activations per probe; the
# miniatures take a smaller step, which keeps every probe on one side of the
# ReLU kinks
_MINI = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.25)

CHECKS = [  # (name, case builder, tolerance), in report order
    ("relu", lambda: _layer_case(ReLU(), 2, 4, 17), DEFAULT_TOL),
    ("sigmoid", lambda: _layer_case(Sigmoid(), 2, 4, 18), DEFAULT_TOL),
    ("dropout", lambda: _layer_case(Dropout(0.3), 2, 4, 19), DEFAULT_TOL),
    ("conv-1cube", lambda: _layer_case(_conv(1, 1, SAME, 2, 3), 2, 5, 11), DEFAULT_TOL),
    ("conv-3cube-same", lambda: _layer_case(_conv(3, 1, SAME, 2, 2), 2, 6, 11), DEFAULT_TOL),
    ("conv-3cube-stride2", lambda: _layer_case(_conv(3, 2, SAME, 2, 2), 2, 6, 11), DEFAULT_TOL),
    ("conv-3cube-valid", lambda: _layer_case(_conv(3, 1, VALID, 2, 2), 2, 6, 11), DEFAULT_TOL),
    ("conv-5cube-same", lambda: _layer_case(_conv(5, 1, SAME, 1, 2), 1, 6, 11), DEFAULT_TOL),
    ("conv-7cube-same", lambda: _layer_case(_conv(7, 1, SAME, 1, 1), 1, 8, 11), DEFAULT_TOL),
    ("maxpool-2cube-stride2", lambda: _layer_case(_pool(2, 2, VALID), 2, 4, 13), DEFAULT_TOL),
    ("maxpool-3cube-same", lambda: _layer_case(_pool(3, 1, SAME), 2, 4, 13), DEFAULT_TOL),
    ("upsample-nearest", lambda: _layer_case(UpsampleNearest(), 2, 3, 15), DEFAULT_TOL),
    ("concat-channels", _check_concat, DEFAULT_TOL),
    ("soft-dice-smooth0", lambda: _check_soft_dice(0.0), DICE_TOL),
    ("soft-dice-smooth1", lambda: _check_soft_dice(1.0), DICE_TOL),
    ("deep-block",
     lambda: _layer_case(DeepBlock("deep", 2, 2, 0.25, np.float64), 2, 6, 21, cap=60),
     DEFAULT_TOL),
    ("reduction-block",
     lambda: _layer_case(ReductionBlock("red", 3, 2, 0.25, np.float64), 3, 6, 21, cap=60),
     DEFAULT_TOL),
    ("uception-miniature",
     lambda: _layer_case(Uception(_MINI, np.float64), 1, 8, 42, cap=24, h=1e-6), MODEL_TOL),
    ("unet3d-miniature",
     lambda: _layer_case(UNet3d(_MINI, dtype=np.float64), 1, 8, 42, cap=24, h=1e-6), MODEL_TOL),
]


def run_suite(corrupt=None):
    """Run every gradient check; returns a list of CheckResult.

    corrupt names one check whose analytic gradients are deliberately
    perturbed (a self-test that failures are detected and attributed).
    """
    names = [name for name, _, _ in CHECKS]
    if corrupt is not None and corrupt not in names:
        raise ValueError(f"unknown check {corrupt!r}; valid names: {', '.join(names)}")
    return [CheckResult(name, probe_case(make(), corrupt=name == corrupt), tol)
            for name, make, tol in CHECKS]


def format_results(results):
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{status}\t{r.name}\tmax_rel_err={r.max_rel_error:.3e}"
                     f"\ttol={r.tolerance:.0e}")
    return "\n".join(lines) + "\n"
