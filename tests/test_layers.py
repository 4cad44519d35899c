"""The one dispatch point: every parent reaches a child through
layers.call and layers.back, an INFER forward keeps no arrays, and a
backward after an INFER forward is refused with a clear error."""
import ast
import os

import numpy as np
import pytest

from uception import layers
from uception.blocks import DeepBlock, ReductionBlock
from uception.errors import ShapeError
from uception.layers import TRAIN, Context
from uception.models import UceptionCfg, build_uception, build_unet3d_baseline

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "uception")


def _model(build):
    return build(UceptionCfg(base_depth=2, levels=1, dropout_rate=0.25), seed=0), 1, 8


def _block(cls, in_c):
    block = cls("blk", in_channels=in_c, branch_depth=2, dropout_rate=0.25)
    return layers.init_params(block, np.random.default_rng(0)), in_c, 6


GRAPHS = {  # name -> () -> (graph, input channels, extent)
    "uception": lambda: _model(build_uception),
    "unet3d": lambda: _model(build_unet3d_baseline),
    "deep-block": lambda: _block(DeepBlock, 2),
    "reduction-block": lambda: _block(ReductionBlock, 3),
}


def _input(in_c, ext):
    return np.random.default_rng(1).standard_normal((1, in_c, ext, ext, ext)).astype(
        np.float32)


def _arrays(cache):
    """Every ndarray reachable from a cache through tuples and lists."""
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, (list, tuple)):
        for v in cache:
            yield from _arrays(v)


@pytest.mark.parametrize("name", GRAPHS)
def test_infer_forward_keeps_no_arrays(name):
    graph, in_c, ext = GRAPHS[name]()
    x = _input(in_c, ext)
    _, cache = graph.forward(x, Context())
    assert not list(_arrays(cache))
    _, cache = graph.forward(x, Context(mode=TRAIN, rng=2))
    assert list(_arrays(cache))  # the walk does reach a TRAIN cache's arrays


@pytest.mark.parametrize("name", GRAPHS)
def test_backward_after_infer_forward_is_refused(name):
    graph, in_c, ext = GRAPHS[name]()
    x = _input(in_c, ext)
    y, cache = graph.forward(x, Context())
    with pytest.raises(ShapeError, match="backward needs a TRAIN-mode forward"):
        graph.backward(np.ones_like(y), cache, {})
    y, cache = layers.call(graph, x, Context())
    assert cache is layers.DROPPED
    with pytest.raises(ShapeError, match="backward needs a TRAIN-mode forward"):
        layers.back(graph, np.ones_like(y), cache, {})


def _dispatches(tree):
    """(enclosing class/def names, call node) of every x.forward(...) and
    x.backward(...) call in a parsed module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in ("forward", "backward")):
                found.append((scope, child))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_call_and_back_dispatch_to_a_layer():
    allowed = {("layers.py", ("call",), "forward"),
               ("layers.py", ("back",), "backward")}
    seen, offenders = set(), []
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PKG, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for scope, node in _dispatches(tree):
            site = (fname, scope, node.func.attr)
            if site in allowed:
                seen.add(site)
            else:
                offenders.append(f"{fname}:{node.lineno} .{node.func.attr}(")
    assert not offenders
    assert seen == allowed


def test_train_caches_of_relu_and_dropout_are_bool():
    # their backwards read only a sign and a keep bit: 1 byte per voxel
    x = np.random.default_rng(3).standard_normal((2, 2, 4, 4, 4)).astype(np.float32)
    x[0, 0, 0, 0, :2] = (0.0, -0.0)
    unit = layers.conv_unit("u", 2, 3, 3, dropout_rate=0.25)
    layers.init_params(unit, np.random.default_rng(0))
    _, (_, relu_cache, drop_cache) = unit.forward(x, Context(mode=TRAIN, rng=5))
    assert relu_cache.dtype == bool and drop_cache.dtype == bool
    _, mask = layers.ReLU().forward(x, Context(mode=TRAIN))
    assert mask.dtype == bool and np.array_equal(mask, x > 0)
    assert layers.ReLU().forward(x, Context())[1] is None  # INFER computes no mask
