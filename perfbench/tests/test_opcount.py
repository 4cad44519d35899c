"""The op-count model against hand counts for one small geometry per kernel.

Geometry: batch 1, 2 input channels, 3 output channels, 4-cube input,
float32 ("same" padding), so in = 2*64 = 128 values and a full-size
output is 3*64 = 192 values.
"""
import pytest

import opcount
from uception.ops import ConvSpec

X = (1, 2, 4, 4, 4)


def spec(k, s=1):
    return ConvSpec(2, 3, (k, k, k), (s, s, s))


@pytest.mark.parametrize("k, s, flop, byte", [
    # MACs = 3*2*k^3*out_vox; flop = 2*MACs + out values; byte = 4*(in + w + b + out)
    (1, 1, 2 * 3 * 2 * 1 * 64 + 192, 4 * (128 + 6 + 3 + 192)),         # 960, 1316
    (3, 1, 2 * 3 * 2 * 27 * 64 + 192, 4 * (128 + 162 + 3 + 192)),      # 20928, 1940
    (3, 2, 2 * 3 * 2 * 27 * 8 + 24, 4 * (128 + 162 + 3 + 24)),         # 2616, 1268
    (5, 1, 2 * 3 * 2 * 125 * 64 + 192, 4 * (128 + 750 + 3 + 192)),     # 96192, 4292
    (7, 1, 2 * 3 * 2 * 343 * 64 + 192, 4 * (128 + 2058 + 3 + 192)),    # 263616, 9524
])
def test_conv3d_hand_count(k, s, flop, byte):
    assert opcount.conv3d_cost(X, spec(k, s), 4) == opcount.Cost(flop, byte)


@pytest.mark.parametrize("k, s, flop, byte", [
    # flop = 4*MACs + out values; byte = 4*(2*in + 2*w + out + b)
    (1, 1, 4 * 3 * 2 * 1 * 64 + 192, 4 * (256 + 12 + 192 + 3)),
    (3, 1, 4 * 3 * 2 * 27 * 64 + 192, 4 * (256 + 324 + 192 + 3)),
    (3, 2, 4 * 3 * 2 * 27 * 8 + 24, 4 * (256 + 324 + 24 + 3)),
    (5, 1, 4 * 3 * 2 * 125 * 64 + 192, 4 * (256 + 1500 + 192 + 3)),
    (7, 1, 4 * 3 * 2 * 343 * 64 + 192, 4 * (256 + 4116 + 192 + 3)),
])
def test_conv3d_backward_hand_count(k, s, flop, byte):
    assert opcount.conv3d_backward_cost(X, spec(k, s), 4) == opcount.Cost(flop, byte)


def test_maxpool3d_hand_count():
    # 3-cube stride 1 "same": 128 outputs, 27 compares each, int32 argmax
    assert opcount.maxpool3d_cost(X, (3, 3, 3), (1, 1, 1), True, 4) == \
        opcount.Cost(27 * 128, 4 * (128 + 128) + 4 * 128)
    # 2-cube stride 2 "valid": 2 channels * 2^3 = 16 outputs, 8 compares each
    assert opcount.maxpool3d_cost(X, (2, 2, 2), (2, 2, 2), False, 4) == \
        opcount.Cost(8 * 16, 4 * (128 + 16) + 4 * 16)
    assert opcount.maxpool3d_backward_cost(X, (2, 2, 2), (2, 2, 2), False, 4) == \
        opcount.Cost(16, 4 * (128 + 16) + 4 * 16)
