"""
Inception-style blocks and the Uception network
===============================================

Shows the channel algebra of the two building blocks, assembles the full
architecture plus its capacity-matched plain U-net baseline, and runs the
end-to-end shape contract on a small patch.
"""
import numpy as np

from uception import (
    Context,
    DeepBlock,
    ReductionBlock,
    UceptionCfg,
    build_unet3d_baseline,
    build_uception,
)
from uception.layers import call, init_params

rng = np.random.default_rng(0)

# Deep Block: four parallel branches (1-cube, 5-cube, 7-cube, pooled),
# concatenated: 4*D output channels, extents preserved
deep = init_params(DeepBlock("deep", in_channels=1, branch_depth=2), rng)
x = rng.standard_normal((1, 1, 8, 8, 8)).astype(np.float32)
y, _ = call(deep, x, Context())
print("deep block      :", x.shape, "->", y.shape)

# Reduction Block: pooling plus strided convolutions, halved extents,
# in + 2*D output channels
red = init_params(ReductionBlock("red", in_channels=4, branch_depth=3), rng)
x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
y, _ = call(red, x, Context())
print("reduction block :", x.shape, "->", y.shape)

# the full-size network: branch depth 10, three resolution levels
full = build_uception(UceptionCfg(), seed=0)
print(f"Uception (D=10, L=3): {full.parameter_count():,} parameters")

# the plain 3D U-net baseline is width-matched to the same capacity
unet = build_unet3d_baseline(UceptionCfg(), seed=0)
gap = abs(unet.parameter_count() - full.parameter_count()) / full.parameter_count()
print(f"U-net baseline      : {unet.parameter_count():,} parameters "
      f"({100 * gap:.1f}% from Uception)")

# shape contract on a desk-size configuration: probabilities in (0, 1),
# extents preserved end to end
small = build_uception(UceptionCfg(base_depth=2, levels=2, dropout_rate=0.1), seed=1)
probs, _ = call(small, rng.standard_normal((1, 1, 16, 16, 16)), Context())
print(f"forward (1,1,16,16,16) -> {probs.shape}, "
      f"range ({probs.min():.3f}, {probs.max():.3f})")
