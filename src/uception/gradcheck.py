"""Central finite-difference verification of every analytic backward pass.

Each check projects the operation's output against a fixed random
weighting r, giving a scalar L whose analytic gradient comes from the
backward pass with grad_out = r. Central differences probe every entry of
small arrays and a seeded sample of large ones. All checks run in the
64-bit numeric mode.

Every check builds a probe case, (scalar_fn, arrays, analytic) plus
(cap, h) for the block and model checks, and ``probe_case`` probes it.
The relative error metric is |a - f| / max(1e-8, |a| + |f|), reported as
the maximum over all probed entries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers, ops
from .blocks import DeepBlock, DeepBlockCfg, ReductionBlock, ReductionBlockCfg
from .layers import Context, TRAIN
from .metrics import soft_dice, soft_dice_backward
from .models import UceptionCfg, build_uception, build_unet3d_baseline
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


def _rand(shape, rng, scale=1.0):
    return (scale * rng.standard_normal(shape)).astype(np.float64)


def _check_conv(kernel, stride, padding, in_c, out_c, ext):
    rng = np.random.default_rng(11)
    spec = ConvSpec(in_c, out_c, (kernel,) * 3, (stride,) * 3, padding)
    x = _rand((1, in_c, ext, ext, ext), rng)
    w = _rand(spec.weight_shape(), rng, scale=0.5)
    b = _rand((out_c,), rng, scale=0.1)
    r = _rand((1, out_c) + spec.out_spatial((ext,) * 3), rng)

    def scalar():
        return float((ops.conv3d(x, w, b, spec) * r).sum())

    gx, gw, gb = ops.conv3d_backward(x, w, r, spec)
    return scalar, {"x": x, "w": w, "b": b}, {"x": gx, "w": gw, "b": gb}


def _check_maxpool(window, stride, padding):
    rng = np.random.default_rng(13)
    x = _rand((1, 2, 4, 4, 4), rng)

    def scalar():
        y, _ = ops.maxpool3d(x, window, stride, padding)
        return float((y * r).sum())

    y0, argmax = ops.maxpool3d(x, window, stride, padding)
    r = _rand(y0.shape, np.random.default_rng(14))
    gx = ops.maxpool3d_backward(r, argmax, x.shape, window, stride, padding)
    return scalar, {"x": x}, {"x": gx}


def _check_upsample():
    rng = np.random.default_rng(15)
    x = _rand((1, 2, 3, 3, 3), rng)
    r = _rand((1, 2, 6, 6, 6), rng)

    def scalar():
        return float((ops.upsample_nearest(x, 2) * r).sum())

    gx = ops.upsample_nearest_backward(r, 2)
    return scalar, {"x": x}, {"x": gx}


def _check_concat():
    rng = np.random.default_rng(16)
    a = _rand((1, 2, 3, 3, 3), rng)
    b = _rand((1, 3, 3, 3, 3), rng)
    r = _rand((1, 5, 3, 3, 3), rng)

    def scalar():
        return float((ops.concat_channels([a, b]) * r).sum())

    ga, gb = ops.concat_channels_backward(r, [2, 3])
    return scalar, {"a": a, "b": b}, {"a": ga, "b": gb}


def _check_relu():
    rng = np.random.default_rng(17)
    x = _rand((1, 2, 4, 4, 4), rng)
    # keep probes away from the kink at zero
    x[np.abs(x) < 1e-2] += 0.05
    r = _rand(x.shape, rng)

    def scalar():
        return float((ops.relu(x) * r).sum())

    return scalar, {"x": x}, {"x": ops.relu_backward(r, x)}


def _check_sigmoid():
    rng = np.random.default_rng(18)
    x = _rand((1, 2, 4, 4, 4), rng)
    r = _rand(x.shape, rng)

    def scalar():
        return float((ops.sigmoid(x) * r).sum())

    return scalar, {"x": x}, {"x": ops.sigmoid_backward(r, ops.sigmoid(x))}


def _check_dropout():
    rng = np.random.default_rng(19)
    x = _rand((1, 2, 4, 4, 4), rng)
    r = _rand(x.shape, rng)
    rate = 0.3

    def scalar():
        y, _ = ops.dropout(x, rate, 123)
        return float((y * r).sum())

    _, mask = ops.dropout(x, rate, 123)
    return scalar, {"x": x}, {"x": ops.dropout_backward(r, mask, rate)}


def _check_soft_dice(smooth):
    rng = np.random.default_rng(20)
    p = rng.uniform(0.05, 0.95, size=(1, 1, 4, 4, 4))
    t = (rng.random((1, 1, 4, 4, 4)) < 0.3).astype(np.float64)
    if smooth == 0.0 and t.sum() == 0:
        t.flat[0] = 1.0

    def scalar():
        return soft_dice(p, t, smooth)

    return scalar, {"p": p}, {"p": soft_dice_backward(p, t, smooth)}


def _randomize_biases(params, rng):
    # zero-bias ReLU units sit exactly on the kink wherever their inputs
    # vanish (common after ReLU); move every bias well away from it
    for name, arr in params.items():
        if name.endswith(".b"):
            arr[...] = np.sign(rng.standard_normal(arr.shape)) * rng.uniform(
                0.05, 0.2, arr.shape)


def _graph_check(graph, in_c, ext, rng, cap, h, ctx_seed):
    """Case for a built block or model: biases, then x, then r draw from
    rng, and every forward replays one train-mode dropout stream (ctx_seed)."""
    _randomize_biases(graph.parameters(), rng)
    x = _rand((1, in_c, ext, ext, ext), rng)

    def run():
        ctx = Context(mode=TRAIN, rng=np.random.default_rng(ctx_seed))
        return layers.call(graph, x, ctx)

    y0, cache = run()
    r = _rand(y0.shape, rng)

    def scalar():
        y, _ = run()
        return float((y * r).sum())

    grads = {}
    gx = layers.back(graph, r, cache, grads)
    return scalar, {"x": x, **graph.parameters()}, {"x": gx, **grads}, cap, h


def _check_block(block, ext):
    rng = np.random.default_rng(21)
    layers.init_params(block, rng)
    return _graph_check(block, block.cfg.in_channels, ext, rng, cap=60, h=1e-5, ctx_seed=31)


def _check_deep_block():
    cfg = DeepBlockCfg(in_channels=2, branch_depth=2, dropout_rate=0.25)
    return _check_block(DeepBlock("deep", cfg, dtype=np.float64), 6)


def _check_reduction_block():
    cfg = ReductionBlockCfg(in_channels=3, branch_depth=2, dropout_rate=0.25)
    return _check_block(ReductionBlock("red", cfg, dtype=np.float64), 6)


def _check_miniature(build):
    cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.25)
    model = build(cfg, seed=3, dtype=np.float64)
    # deep stacks shift thousands of downstream pre-activations per probe;
    # a smaller step keeps every probe on one side of the ReLU kinks
    return _graph_check(model, cfg.input_channels, 8, np.random.default_rng(42),
                        cap=24, h=1e-6, ctx_seed=41)


CHECKS = [  # (name, case builder, tolerance), in report order
    ("relu", _check_relu, DEFAULT_TOL),
    ("sigmoid", _check_sigmoid, DEFAULT_TOL),
    ("dropout", _check_dropout, DEFAULT_TOL),
    ("conv-1cube", lambda: _check_conv(1, 1, SAME, 2, 3, 5), DEFAULT_TOL),
    ("conv-3cube-same", lambda: _check_conv(3, 1, SAME, 2, 2, 6), DEFAULT_TOL),
    ("conv-3cube-stride2", lambda: _check_conv(3, 2, SAME, 2, 2, 6), DEFAULT_TOL),
    ("conv-3cube-valid", lambda: _check_conv(3, 1, VALID, 2, 2, 6), DEFAULT_TOL),
    ("conv-5cube-same", lambda: _check_conv(5, 1, SAME, 1, 2, 6), DEFAULT_TOL),
    ("conv-7cube-same", lambda: _check_conv(7, 1, SAME, 1, 1, 8), DEFAULT_TOL),
    ("maxpool-2cube-stride2", lambda: _check_maxpool((2, 2, 2), (2, 2, 2), VALID),
     DEFAULT_TOL),
    ("maxpool-3cube-same", lambda: _check_maxpool((3, 3, 3), (1, 1, 1), SAME),
     DEFAULT_TOL),
    ("upsample-nearest", _check_upsample, DEFAULT_TOL),
    ("concat-channels", _check_concat, DEFAULT_TOL),
    ("soft-dice-smooth0", lambda: _check_soft_dice(0.0), DICE_TOL),
    ("soft-dice-smooth1", lambda: _check_soft_dice(1.0), DICE_TOL),
    ("deep-block", _check_deep_block, DEFAULT_TOL),
    ("reduction-block", _check_reduction_block, DEFAULT_TOL),
    ("uception-miniature", lambda: _check_miniature(build_uception), MODEL_TOL),
    ("unet3d-miniature", lambda: _check_miniature(build_unet3d_baseline), MODEL_TOL),
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
