"""Outside-in span tracer and the per-layer metrics built from its spans.

Spans are recorded from the benchmark's side only: ``trace_modules`` and
``trace_model`` replace the public functions and methods each layer
exposes, at the name its caller resolves, with wrappers that open and
close a span around the call. Nothing inside the package changes, and
``Tracer.restore`` puts every replaced attribute back.

A span's self time is its duration minus the durations of its direct
children; summed over every span of an operation, self times add up to
the root span exactly, so the root's self time is the untraced gap.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

import opcount
from uception import blocks, metrics, models, ops, phantom, preprocess, training, volume

CONV_KEYS = ("k1", "k3s1", "k3s2", "k5", "k7")
POOL_KEYS = ("w3", "w2")
# stage names registered by the desk Uception (D=4, L=2) and its U-net baseline
STAGES = ("stem", "enc0.deep", "enc0.red", "enc1.deep", "enc1.red", "bottleneck.deep",
          "dec1.deep", "dec0.deep", "enc0", "enc1", "bottleneck", "dec1", "dec0", "head")

# span names whose self time carries another meaning than the call itself
ALIASES = {
    "models.model": "models.plumbing",
    "training.train_epoch": "training.batch_assembly",
    "training.predict_volume": "training.predict_self",
    "bench.op": "trace.gap",
}

_ABSENT = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int      # operation (step or volume) the span belongs to


class Tracer:
    """In-memory spans plus per-name counters, and the attribute patches
    that produce them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.op = -1
        self._stack = []
        self._saved = []

    def open(self, name):
        self.spans.append(Span(name, self.clock(), 0.0,
                               self._stack[-1] if self._stack else -1, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = self.clock()

    def count(self, name, values):
        row = self.counters.setdefault(name, {})
        for key, v in values.items():
            row[key] = row.get(key, 0) + v

    def wrap(self, owner, attr, describe):
        """Replace owner.attr by a traced call. ``describe`` is the span name,
        or a function of the call's arguments returning (name, counters)."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if isinstance(describe, str):
                name = describe
            else:
                name, counters = describe(*args, **kwargs)
                self.count(name, counters)
            idx = self.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(owner, attr, traced)

    def restore(self):
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def reset(self):
        self.spans, self.counters = [], {}

    def summary(self):
        """name -> {"calls", "self_s", "total_s"}; roots are spans without parent."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for s, c in zip(self.spans, child):
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += s.end - s.start - c
            row["total_s"] += s.end - s.start
        return out


# ---------------------------------------------------------------------------
# what each wrapped call is named and counts


def conv_key(spec):
    k, s = spec.kernel[0], spec.stride[0]
    return f"k{k}s{s}" if k == 3 else f"k{k}"


def _cost(c):
    return {"flop": c.flop, "byte": c.byte}


def _conv(x, weights, bias, spec):
    x = np.asarray(x)
    return (f"ops.conv3d.{conv_key(spec)}",
            _cost(opcount.conv3d_cost(x.shape, spec, x.dtype.itemsize)))


def _conv_backward(x, weights, grad_out, spec):
    x = np.asarray(x)
    return (f"ops.conv3d_backward.{conv_key(spec)}",
            _cost(opcount.conv3d_backward_cost(x.shape, spec, x.dtype.itemsize)))


def _pool(x, window=(2, 2, 2), stride=(2, 2, 2), padding=ops.VALID):
    x = np.asarray(x)
    return (f"ops.maxpool3d.w{window[0]}",
            _cost(opcount.maxpool3d_cost(x.shape, window, stride, padding == ops.SAME,
                                         x.dtype.itemsize)))


def _pool_backward(grad_out, argmax, in_shape, window=(2, 2, 2), stride=(2, 2, 2),
                   padding=ops.VALID):
    itemsize = np.asarray(grad_out).dtype.itemsize
    return (f"ops.maxpool3d_backward.w{window[0]}",
            _cost(opcount.maxpool3d_backward_cost(in_shape, window, stride,
                                                  padding == ops.SAME, itemsize)))


def _tiles(vol, patch=64):
    shape = np.shape(vol.data if isinstance(vol, volume.Volume) else vol)
    padded = [-(-n // patch) * patch for n in shape]
    return "preprocess.tile_patches", {"useful_vox": int(np.prod(shape)),
                                       "tiled_vox": int(np.prod(padded))}


def trace_modules(tracer):
    """Wrap the module- and class-level layer boundaries; undo with
    tracer.restore()."""
    t = tracer
    # ops: layers, blocks and models all call through the ops module
    t.wrap(ops, "conv3d", _conv)
    t.wrap(ops, "conv3d_backward", _conv_backward)
    t.wrap(ops, "maxpool3d", _pool)
    t.wrap(ops, "maxpool3d_backward", _pool_backward)
    for fn in ("relu", "relu_backward", "dropout", "dropout_backward", "sigmoid",
               "sigmoid_backward"):
        t.wrap(ops, fn, "ops.elementwise")
    t.wrap(ops, "concat_channels", "ops.concat")
    t.wrap(ops, "concat_channels_backward", "ops.concat")
    # blocks: class methods, so every instance is covered
    for cls, label in ((blocks.DeepBlock, "deep"), (blocks.ReductionBlock, "reduction")):
        t.wrap(cls, "forward", f"blocks.{label}.fwd")
        t.wrap(cls, "backward", f"blocks.{label}.bwd")
    t.wrap(models, "load_checkpoint", "models.checkpoint_load")
    # training imports these names directly, so they are wrapped in its namespace
    t.wrap(training, "sample_patch", "training.sample_patch")
    t.wrap(training, "soft_dice", "metrics.soft_dice")
    t.wrap(training, "soft_dice_backward", "metrics.soft_dice")
    t.wrap(training, "adam_step", "optim.adam_step")
    t.wrap(training, "tile_patches", _tiles)
    t.wrap(training, "reassemble", "preprocess.reassemble")
    t.wrap(training, "train_epoch", "training.train_epoch")
    t.wrap(training, "predict_volume", "training.predict_volume")
    # called by the benchmark's own segment and set-up code through the module
    for fn in ("resample_trilinear", "clip_normalize", "threshold_baseline"):
        t.wrap(preprocess, fn, f"preprocess.{fn}")
    for fn in ("read_metaimage", "write_metaimage"):
        t.wrap(volume, fn, f"volume.{fn}")
    t.wrap(metrics, "evaluate_masks", "metrics.evaluate_masks")
    t.wrap(phantom, "generate_phantom", "phantom.generate")


def trace_model(tracer, model):
    """Wrap one model's stages, then the model itself, whose self time is
    the plumbing between stages (upsample, skip concat and their adjoints)."""
    for name, stage in model._stages:
        tracer.wrap(stage, "forward", f"models.stage.{name}.fwd")
        tracer.wrap(stage, "backward", f"models.stage.{name}.bwd")
    tracer.wrap(model, "forward", "models.model")
    tracer.wrap(model, "backward", "models.model")


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metric_units():
    """Ordered per-layer metric name -> unit; BENCHMARK.json lists the same."""
    m = {}
    for op, keys in (("conv3d", CONV_KEYS), ("conv3d_backward", CONV_KEYS),
                     ("maxpool3d", POOL_KEYS), ("maxpool3d_backward", POOL_KEYS)):
        for k in keys:
            base = f"ops.{op}.{k}"
            m.update({f"{base}.s": "s", f"{base}.calls": "count",
                      f"{base}.gflop": "GFLOP", f"{base}.gbyte": "GB"})
    m["ops.elementwise.s"] = "s"
    m["ops.concat.s"] = "s"
    for kind in ("deep", "reduction"):
        m[f"blocks.{kind}.fwd_s"] = "s"
        m[f"blocks.{kind}.bwd_s"] = "s"
    for stage in STAGES:
        m[f"models.stage.{stage}.fwd_s"] = "s"
        m[f"models.stage.{stage}.bwd_s"] = "s"
    for name in ("models.plumbing_s", "models.checkpoint_load_s",
                 "training.sample_patch_s", "training.batch_assembly_s",
                 "training.predict_self_s", "optim.adam_step_s"):
        m[name] = "s"
    m["optim.adam_step_calls"] = "count"
    for name in ("metrics.soft_dice_s", "metrics.evaluate_masks_s",
                 "preprocess.resample_trilinear_s", "preprocess.clip_normalize_s",
                 "preprocess.tile_patches_s", "preprocess.reassemble_s",
                 "preprocess.threshold_baseline_s", "volume.read_metaimage_s",
                 "volume.write_metaimage_s", "phantom.generate_s"):
        m[name] = "s"
    m["preprocess.tile_useful_ratio"] = "ratio"
    m["trace.op_s"] = "s"
    m["trace.gap_s"] = "s"
    m["trace_overhead_frac"] = "ratio"
    return m


def layer_values(tracer, per):
    """Per-layer values from the tracer's spans, each divided by ``per``
    (operations or set-ups). Raises if a span has no metric to land in."""
    known = layer_metric_units()
    out = {}
    for name, row in tracer.summary().items():
        base = ALIASES.get(name, name)
        sep = "." if base.startswith("ops.") else "_"
        key = f"{base}{sep}s"
        if key not in known:
            raise KeyError(f"span {name!r} has no per-layer metric {key!r}")
        out[key] = out.get(key, 0.0) + row["self_s"] / per
        if f"{base}{sep}calls" in known:
            out[f"{base}{sep}calls"] = out.get(f"{base}{sep}calls", 0) + row["calls"] / per
        counters = tracer.counters.get(name, {})
        if "flop" in counters:
            out[f"{base}.gflop"] = counters["flop"] / per / 1e9
            out[f"{base}.gbyte"] = counters["byte"] / per / 1e9
        if "tiled_vox" in counters:
            out["preprocess.tile_useful_ratio"] = counters["useful_vox"] / counters["tiled_vox"]
    return out
