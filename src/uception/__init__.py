"""Desk-scale 3D CNN engine for sparse volumetric vessel segmentation.

A dependency-light numpy implementation of the Uception architecture
(Inception-style blocks inside a 3D U-net), with from-scratch forward and
backward passes verified by finite differences, a phantom generator for
desk-scale experiments, volumetric evaluation metrics, and a MetaImage
reader/writer.

Importing the package sets glibc's heap policy for the whole process
(``host.HEAP_POLICY``), unless the environment already tunes malloc.
"""

__version__ = "0.1.0"

from . import host  # first: the heap policy applies to everything after it
from .blocks import DeepBlock, ReductionBlock
from .layers import Context, INFER, TRAIN
from .metrics import (
    SegReport,
    average_hausdorff,
    evaluate_masks,
    hard_dice,
    sensitivity,
    soft_dice,
    soft_dice_backward,
)
from .models import (
    UceptionCfg,
    UNet3d,
    Uception,
    build_uception,
    build_unet3d_baseline,
    load_checkpoint,
    save_checkpoint,
)
from .ops import ConvSpec, conv3d, conv3d_backward, concat_channels, dropout, maxpool3d, \
    relu, sigmoid, upsample_nearest
from .optim import AdamState, CyclicSchedule, adam_step, cyclic_lr
from .phantom import PhantomSpec, generate_phantom, write_phantom_dataset
from .preprocess import (
    clip_normalize,
    reassemble,
    resample_trilinear,
    threshold_baseline,
    tile_patches,
)
from .training import (
    SnapshotSet,
    TrainConfig,
    parse_config,
    snapshot_average,
    snapshot_update,
    train_epoch,
    validate,
)
from .volume import (
    MetaImageHeader,
    Volume,
    load_metaimage,
    read_metaimage,
    save_metaimage,
    write_metaimage,
)

__all__ = [
    "__version__",
    "AdamState", "Context", "ConvSpec", "CyclicSchedule", "DeepBlock", "INFER",
    "MetaImageHeader", "PhantomSpec", "ReductionBlock", "SegReport", "SnapshotSet",
    "TRAIN", "TrainConfig", "UNet3d", "Uception", "UceptionCfg", "Volume",
    "adam_step", "average_hausdorff", "build_uception", "build_unet3d_baseline",
    "clip_normalize", "concat_channels", "conv3d", "conv3d_backward", "cyclic_lr",
    "dropout", "evaluate_masks", "generate_phantom", "hard_dice",
    "load_checkpoint", "load_metaimage", "maxpool3d", "parse_config", "reassemble",
    "read_metaimage", "relu", "resample_trilinear", "save_checkpoint",
    "save_metaimage", "sensitivity", "sigmoid", "snapshot_average",
    "snapshot_update", "soft_dice", "soft_dice_backward", "threshold_baseline",
    "tile_patches", "train_epoch", "upsample_nearest", "validate",
    "write_metaimage", "write_phantom_dataset",
]
