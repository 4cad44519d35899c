"""Deep and Reduction block contracts: channel algebra, extent behavior,
zero-weight annihilation, the structured errors a wrong input raises.
The blocks' finite-difference checks are the gradcheck suite's
deep-block and reduction-block rows."""
import numpy as np
import pytest

from uception import layers
from uception.blocks import DeepBlock, ReductionBlock
from uception.errors import ShapeError
from uception.layers import Context


def rng(seed=0):
    return np.random.default_rng(seed)


def apply(block, x, seed):
    """He-initialize block from seed, then one INFER call on x."""
    layers.init_params(block, rng(seed))
    return layers.call(block, x, Context())[0]


class TestDeepBlock:
    def test_channel_algebra_and_extent_preserved(self):
        block = DeepBlock("deep", in_channels=1, branch_depth=2, dtype=np.float64)
        y = apply(block, rng(1).standard_normal((1, 1, 8, 8, 8)), 2)
        assert y.shape == (1, 8, 8, 8, 8) and block.out_channels == 8  # 4 * D channels

    def test_all_zero_weights_annihilate(self):
        block = DeepBlock("deep", in_channels=2, branch_depth=3, dtype=np.float64)
        x = rng(3).standard_normal((1, 2, 6, 6, 6))
        y, _ = block.forward(x, Context())
        assert not y.any()

    def test_channel_mismatch_rejected(self):
        block = DeepBlock("deep", in_channels=2, branch_depth=2)
        with pytest.raises(ShapeError) as err:
            block.forward(np.zeros((1, 3, 4, 4, 4)), Context())
        assert err.value.axis == "channel"

    def test_branch_structure_parameter_names(self):
        block = DeepBlock("blk", in_channels=2, branch_depth=2)
        names = set(layers.parameters(block))
        assert names == {
            "blk.a.conv1.w", "blk.a.conv1.b",
            "blk.b.conv1.w", "blk.b.conv1.b", "blk.b.conv5.w", "blk.b.conv5.b",
            "blk.c.conv1.w", "blk.c.conv1.b", "blk.c.conv7.w", "blk.c.conv7.b",
            "blk.d.conv1.w", "blk.d.conv1.b",
        }
        assert layers.parameters(block)["blk.b.conv5.w"].shape == (2, 2, 5, 5, 5)
        assert layers.parameters(block)["blk.c.conv7.w"].shape == (2, 2, 7, 7, 7)


class TestReductionBlock:
    def test_channel_algebra_and_halved_extents(self):
        block = ReductionBlock("reduction", in_channels=4, branch_depth=3, dtype=np.float64)
        y = apply(block, rng(4).standard_normal((1, 4, 16, 16, 16)), 5)
        assert y.shape == (1, 10, 8, 8, 8) and block.out_channels == 10  # in + 2 * D

    def test_three_reductions_reach_bottleneck(self):
        x = rng(6).standard_normal((1, 2, 64, 64, 64)).astype(np.float32)
        ch = 2
        for lv in range(3):
            block = ReductionBlock("reduction", in_channels=ch, branch_depth=1)
            x = apply(block, x, 7)
            ch = block.out_channels
        assert x.shape[2:] == (8, 8, 8)

    def test_odd_extent_rejected(self):
        block = ReductionBlock("red", in_channels=1, branch_depth=1)
        with pytest.raises(ShapeError) as err:
            block.forward(np.zeros((1, 1, 5, 4, 4)), Context())
        assert "odd" in str(err.value) or "depth" in str(err.value)
        assert err.value.axis == "depth"

    def test_pool_branch_passes_channels_through(self):
        block = ReductionBlock("red", in_channels=3, branch_depth=2, dtype=np.float64)
        x = rng(8).standard_normal((1, 3, 4, 4, 4))
        y, _ = block.forward(x, Context())
        # conv branches have zero weights; the first 3 channels are the pool
        pooled = y[:, :3]
        assert pooled.any()
        assert not y[:, 3:].any()
