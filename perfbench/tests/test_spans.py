"""The outside-in tracer: self-time accounting, no effect on results, and
a clean restore of every wrapped attribute."""
import numpy as np
import pytest

import spans
from uception import blocks, metrics, models, ops, phantom, preprocess, training, volume
from uception.models import UceptionCfg, build_unet3d_baseline, build_uception
from uception.optim import AdamState
from uception.phantom import PhantomSpec

MODULE_OWNERS = (ops, training, preprocess, volume, metrics, phantom, models,
                 blocks.DeepBlock, blocks.ReductionBlock)
BUILDERS = {"uception": build_uception, "unet3d": build_unet3d_baseline}


def tiny_model(kind):
    cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.18)
    return BUILDERS[kind](cfg, seed=0, dtype=np.float64)


@pytest.fixture(scope="module")
def data():
    spec = PhantomSpec(extents=(24, 24, 24), tubes=1, blobs=1, seed=3)
    image, truth = phantom.generate_phantom(spec)
    return [training.preprocess_pair(image, truth)[:2]]


def run(model, data, tracer=None):
    """Two training steps, then a tiled prediction on an extent that is
    not a multiple of the patch. Every step is one traced operation."""
    adam = AdamState(lr=0.0025)
    losses = []
    for i in range(2):
        if tracer is not None:
            tracer.op = i
            root = tracer.open("bench.op")
        losses.append(training.train_epoch(model, data, adam, batch=2, patch=8,
                                           seed=[0, 0, i], min_fg_frac=0.02,
                                           patches_per_epoch=2))
        if tracer is not None:
            tracer.close(root)
    prob = training.predict_volume(model, data[0][0][:18, :17, :20], 8)
    return losses, prob


def traced_run(model, data):
    tracer = spans.Tracer()
    spans.trace_modules(tracer)
    spans.trace_model(tracer, model)
    try:
        return tracer, run(model, data, tracer)
    finally:
        tracer.restore()


def test_self_times_and_gaps_sum_to_root():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")          # 0 .. 10
    a = tracer.open("a")                # 1 .. 4
    g = tracer.open("g")                # 2 .. 3
    tracer.close(g)
    tracer.close(a)
    b = tracer.open("b")                # 5 .. 7
    tracer.close(b)
    tracer.close(root)
    s = {k: v["self_s"] for k, v in tracer.summary().items()}
    assert s == {"root": 5.0, "a": 2.0, "g": 1.0, "b": 2.0}
    assert sum(s.values()) == tracer.summary()["root"]["total_s"]


@pytest.mark.parametrize("kind", ["uception", "unet3d"])
def test_traced_self_times_sum_to_operation(kind, data):
    tracer, _ = traced_run(tiny_model(kind), data)
    self_s = [s.end - s.start for s in tracer.spans]
    root_of = []
    for i, s in enumerate(tracer.spans):
        if s.parent >= 0:
            self_s[s.parent] -= s.end - s.start
        root_of.append(i if s.parent < 0 else root_of[s.parent])
    assert min(self_s) >= 0.0
    roots = sorted(set(root_of))
    assert [tracer.spans[r].name for r in roots] == \
        ["bench.op", "bench.op", "training.predict_volume"]
    for r in roots:
        in_tree = sum(t for t, root in zip(self_s, root_of) if root == r)
        assert in_tree == pytest.approx(tracer.spans[r].end - tracer.spans[r].start, rel=1e-9)
    # every span lands in a published per-layer metric
    values = spans.layer_values(tracer, 2)
    assert set(values) <= set(spans.layer_metric_units())
    assert values["preprocess.tile_useful_ratio"] == pytest.approx(18 * 17 * 20 / 24 ** 3)


@pytest.mark.parametrize("kind", ["uception", "unet3d"])
def test_tracing_leaves_f64_results_bit_identical(kind, data):
    losses, prob = run(tiny_model(kind), data)
    _, (t_losses, t_prob) = traced_run(tiny_model(kind), data)
    assert t_losses == losses
    assert np.array_equal(t_prob, prob)


def test_every_wrapped_attribute_is_restored(data):
    model = tiny_model("uception")
    owners = MODULE_OWNERS + (model,) + tuple(stage for _, stage in model._stages)
    before = [dict(vars(o)) for o in owners]
    tracer, _ = traced_run(model, data)
    assert tracer.spans, "nothing was traced"
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is saved[k] for k in saved), owner
