"""Patch-based training and validation loops, snapshot averaging, the flat
key-value training config, and resumable training state.

Determinism contract: every random choice in an epoch flows from
default_rng([seed, epoch]), so a run is reproducible from (config, data)
alone and a resumed run replays the exact trajectory of an uninterrupted
one without serializing generator state.
"""
from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, ShapeError
from .layers import Context, INFER, TRAIN, back, call
from .metrics import soft_dice, soft_dice_backward
from .models import KINDS, Uception, UceptionCfg, format_record, read_record
from .optim import AdamState, CyclicSchedule, adam_step
from .preprocess import clip_normalize, crop_to, reassemble, resample_trilinear, tile_patches
from .tensor import MODES, check_finite
from .volume import load_metaimage, volume_to_mask


@dataclass
class TrainConfig:
    depth: int = 10
    levels: int = 3
    dropout: float = 0.25
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    cycle_epochs: int = 20
    epochs: int = 40
    batch: int = 2
    patch: int = 64
    seed: int = 0
    smooth: float = 1.0
    min_fg_frac: float = 0.0
    snapshots: int = 5
    model: str = Uception.kind
    patches_per_epoch: int = 0  # 0 = two per training volume
    mode: str = "f32"

    def __post_init__(self):
        """Every setting's range, however the config was made; a message
        starts with the key as a config file spells it."""
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.model not in KINDS:
            raise ConfigError(f"model must be one of {sorted(KINDS)}, got {self.model!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {sorted(MODES)}, got {self.mode!r}")
        for key, least in (("batch", 1), ("epochs", 1), ("seed", 0), ("smooth", 0),
                           ("lr_min", 0), ("patches_per_epoch", 0), ("min_fg_frac", 0)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}, got {getattr(self, key)}")
        UceptionCfg.from_record(vars(self)).check_patch(self.patch)
        CyclicSchedule(self.lr_max, self.lr_min, self.cycle_epochs)
        SnapshotSet(self.snapshots)


_CONFIG_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)}


def parse_config(text) -> TrainConfig:
    """Parse 'key = value' lines; unknown keys list the valid ones, and
    TrainConfig checks the values."""
    return TrainConfig(**read_record(text, _CONFIG_TYPES))


def format_config(cfg: TrainConfig):
    return format_record((f.name, getattr(cfg, f.name)) for f in fields(TrainConfig))


def build_model_from_config(cfg: TrainConfig):
    mc = UceptionCfg.from_record(vars(cfg))
    return KINDS[cfg.model](mc, dtype=MODES[cfg.mode]).init_params(cfg.seed)


# ---------------------------------------------------------------------------
# dataset loading and preprocessing


def preprocess_pair(image_vol, truth_vol):
    """Resample both to 1 mm isotropic spacing, then clip+normalize the image.

    Returns (image array, boolean truth mask, spacing)."""
    img = clip_normalize(resample_trilinear(image_vol))
    seg = resample_trilinear(truth_vol)
    return img.data, volume_to_mask(seg), img.spacing


def load_dataset(data_dir):
    """Discover (image, truth) MetaImage pairs named <split>_NNN_img/_seg."""
    splits = {"train": [], "val": [], "test": []}
    for name in sorted(os.listdir(data_dir)):
        if not (name.endswith("_img.mha") or name.endswith("_img.mhd")):
            continue
        seg_name = name.replace("_img.", "_seg.")
        seg_path = os.path.join(data_dir, seg_name)
        if not os.path.exists(seg_path):
            raise DataError(f"image {name} has no matching truth file {seg_name}")
        split = name.split("_", 1)[0]
        if split not in splits:
            raise DataError(f"file {name}: split prefix must be train/val/test")
        img, _ = load_metaimage(os.path.join(data_dir, name))
        seg, _ = load_metaimage(seg_path)
        splits[split].append((name, img, seg))
    if not splits["train"]:
        raise DataError(f"no training volumes found in {data_dir}")
    return splits


# ---------------------------------------------------------------------------
# patch sampling and the epoch loops


def sample_patch(rng, image, truth, patch, min_fg_frac=0.0):
    """Uniform random patch origin, with optional foreground rejection: up
    to 20 draws, the first to reach min_fg_frac wins."""
    for ax, ext in enumerate(image.shape):
        if ext < patch:
            raise ShapeError(f"volume extent {ext} on axis {ax} is below patch {patch}")
    best = None
    for _ in range(20):
        origin = tuple(int(rng.integers(0, ext - patch + 1)) for ext in image.shape)
        sl = tuple(slice(o, o + patch) for o in origin)
        frac = float(truth[sl].mean())
        if best is None or frac > best[0]:
            best = (frac, sl)
        if min_fg_frac <= 0.0 or frac >= min_fg_frac:
            return image[sl], truth[sl]
    # nothing met the bar; fall back to the densest candidate seen
    _, sl = best
    return image[sl], truth[sl]


def train_epoch(model, dataset, adam: AdamState, *, batch=2, patch=64, seed=0,
                smooth=1.0, min_fg_frac=0.0, patches_per_epoch=0):
    """One epoch of -soft_dice descent over seeded random patches.

    dataset is a list of (image array, truth mask) pairs. Fully
    deterministic given the seed. Returns the mean batch loss.
    """
    if not dataset:
        raise DataError("train_epoch: empty dataset")
    rng = np.random.default_rng(seed)
    total = patches_per_epoch if patches_per_epoch > 0 else 2 * len(dataset)
    params = model.parameters()
    losses = []
    remaining = total
    while remaining > 0:
        take = min(batch, remaining)
        remaining -= take
        xs, ts = [], []
        for _ in range(take):
            vol = rng.integers(0, len(dataset))
            img, tru = sample_patch(rng, dataset[vol][0], dataset[vol][1], patch,
                                    min_fg_frac)
            xs.append(img[None, None])
            ts.append(tru[None, None])
        x = np.concatenate(xs).astype(model.dtype)
        t = np.concatenate(ts)
        ctx = Context(mode=TRAIN, rng=rng)
        y, cache = call(model, x, ctx)
        losses.append(-soft_dice(y, t, smooth))
        grad_y = (-soft_dice_backward(y, t, smooth)).astype(model.dtype)
        grads = {}
        back(model, grad_y, cache, grads)
        adam_step(params, grads, adam)
    return float(np.mean(losses))


def predict_volume(model, image, patch):
    """Tile, infer non-overlapping patches, reassemble, crop: a probability
    volume shaped exactly like the input."""
    padded_shape, tiles = tile_patches(image, patch)
    out_tiles = []
    ctx = Context(mode=INFER)
    for origin, block in tiles:
        y, _ = call(model, block[None, None].astype(model.dtype), ctx)
        out_tiles.append((origin, y[0, 0]))
    prob = reassemble(out_tiles, padded_shape, dtype=model.dtype)
    return check_finite(crop_to(prob, image.shape), "probability volume")


def validate(model, val_set, patch):
    """The validation loss snapshot selection reads: -soft_dice at smooth 0
    of each whole reassembled probability volume, averaged over val_set's
    (image, truth mask) pairs. The training loss uses the config's smooth."""
    return float(np.mean([-soft_dice(predict_volume(model, image, patch), truth, 0.0)
                          for image, truth in val_set]))


# ---------------------------------------------------------------------------
# snapshots


class SnapshotSet:
    """Best-k parameter snapshots ordered by validation loss, with the
    schedule state that picks them: history[e] is epoch e's validation loss,
    and pending is a copy of the last epoch's parameters, kept until the
    next epoch shows whether that loss was a local minimum."""

    def __init__(self, capacity=5):
        if capacity < 1:
            raise ConfigError(f"snapshots (capacity) must be >= 1, got {capacity}")
        self.capacity = capacity
        self.entries = []  # (val_loss, epoch, params dict)
        self.history = []
        self.pending = None

    def __len__(self):
        return len(self.entries)

    @property
    def worst_loss(self):
        if not self.entries:
            raise DataError("no snapshots stored")
        return self.entries[-1][0]


def snapshot_update(snap: SnapshotSet, epoch, val_loss, params):
    """Store a copy of params; keep only the best-capacity snapshots."""
    copied = {k: np.array(v, copy=True) for k, v in params.items()}
    snap.entries.append((float(val_loss), int(epoch), copied))
    snap.entries.sort(key=lambda e: (e[0], e[1]))
    del snap.entries[snap.capacity:]
    return snap


def snapshot_after_epoch(snap: SnapshotSet, val_loss, params):
    """Close an epoch: the previous epoch is captured when its validation
    loss is below both neighbours'; then val_loss is recorded and params
    copied as the new pending set. Returns whether a snapshot was taken."""
    history = snap.history
    captured = len(history) >= 2 and history[-2] > history[-1] < val_loss
    if captured:
        snapshot_update(snap, len(history) - 1, history[-1], snap.pending)
    history.append(float(val_loss))
    snap.pending = {k: v.copy() for k, v in params.items()}
    return captured


def snapshot_fallback(snap: SnapshotSet):
    """With no snapshot captured, keep the last epoch's weights, labelled
    with the epoch they come from."""
    if not snap.entries and snap.history:
        snapshot_update(snap, len(snap.history) - 1, snap.history[-1], snap.pending)


def snapshot_average(snap: SnapshotSet):
    """Element-wise arithmetic mean of the stored parameter vectors."""
    if not snap.entries:
        raise DataError("cannot average an empty snapshot set")
    out = {}
    for name, first in snap.entries[0][2].items():
        acc = np.zeros(first.shape)
        for _, _, params in snap.entries:
            acc += params[name]
        out[name] = (acc / len(snap.entries)).astype(first.dtype)
    return out


# ---------------------------------------------------------------------------
# resumable state


def save_train_state(path, model, adam: AdamState, epoch_done, snap: SnapshotSet):
    """Atomically write meta.* scalars and history, then one group::name
    array per parameter in the groups param, adam_m, adam_v and snap<i>,
    with snapmeta::<i> = [val_loss, epoch]. snap.pending is not stored: at
    every save it equals the parameters."""
    arrays = {"meta.epoch_done": np.array(epoch_done, dtype=np.int64),
              "meta.step": np.array(adam.step, dtype=np.int64),
              "meta.val_history": np.asarray(snap.history, dtype=np.float64)}
    groups = [("param", model.parameters()), ("adam_m", adam.m), ("adam_v", adam.v)]
    for i, (val_loss, epoch, params) in enumerate(snap.entries):
        groups += [("snapmeta", {str(i): np.array([val_loss, float(epoch)])}),
                   (f"snap{i}", params)]
    for group, values in groups:
        for name, arr in values.items():
            arrays[f"{group}::{name}"] = arr
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_train_state(path, model, adam: AdamState, snap: SnapshotSet):
    """Restore model, adam and snap from save_train_state's file; returns
    the last finished epoch. A damaged file raises CheckpointError before
    any of the three is touched."""
    live = model.parameters()
    try:
        groups = {}
        with np.load(path) as data:
            for key in data.files:
                group, _, name = key.rpartition("::")
                groups.setdefault(group, {})[name] = data[key]
        meta, metas = groups.pop(""), groups.pop("snapmeta", {})
        epoch_done, step = int(meta["meta.epoch_done"]), int(meta["meta.step"])
        history = [float(v) for v in meta["meta.val_history"]]
        entries = [(float(metas[str(i)][0]), int(metas[str(i)][1]), groups[f"snap{i}"])
                   for i in range(len(metas))]
    except (zipfile.BadZipFile, NotImplementedError, EOFError, ValueError, KeyError,
            IndexError, TypeError) as exc:  # what a damaged npz raises while parsed
        raise CheckpointError(f"{path}: not a readable training state "
                              f"({type(exc).__name__}: {exc})") from exc
    expected = {"param", "adam_m", "adam_v", *(f"snap{i}" for i in range(len(entries)))}
    if len(history) != epoch_done + 1 or set(groups) != expected:
        raise CheckpointError(f"{path}: {len(history)} validation losses after "
                              f"{epoch_done + 1} epochs; groups {sorted(groups)}")
    for group, values in groups.items():
        if values.keys() != live.keys() or any(
                v.shape != live[k].shape for k, v in values.items()):
            raise CheckpointError(f"{path}: group {group!r} does not match the model")
    model.set_parameters(groups["param"])
    adam.step = step
    adam.m, adam.v = ({k: a.astype(np.float64) for k, a in groups[g].items()}
                      for g in ("adam_m", "adam_v"))
    snap.entries, snap.history = entries, history
    snap.pending = {k: v.copy() for k, v in live.items()}
    return epoch_done
