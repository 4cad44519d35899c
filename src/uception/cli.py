"""Batch command-line entry points: phantom, train, segment, evaluate,
gradcheck.

phantom and train write a manifest.json into their output directory, and
segment writes <mask>.manifest.json beside its mask. Each records the exact
configuration, seed and package version, so their artifacts can be
regenerated by replaying the manifest, and the BLAS core, BLAS thread
variables and heap policy the run had; evaluate and gradcheck write none.
Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric error or
failed check.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__, host
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    MetaImageError,
    NumericError,
    ShapeError,
    UceptionError,
)
from .gradcheck import format_results, run_suite
from .metrics import evaluate_masks, summarize_reports
from .models import load_checkpoint, save_checkpoint
from .phantom import PhantomSpec, write_phantom_dataset
from .preprocess import (
    clip_normalize,
    resample_nearest_indices,
    resample_trilinear,
    threshold_baseline,
)
from .training import (
    SnapshotSet,
    TrainConfig,
    build_model_from_config,
    format_config,
    load_dataset,
    load_train_state,
    parse_config,
    preprocess_pair,
    save_train_state,
    snapshot_after_epoch,
    snapshot_average,
    snapshot_fallback,
    train_epoch,
    predict_volume,
    validate,
)
from .optim import AdamState, CyclicSchedule, cyclic_lr
from .volume import Volume, load_metaimage, save_metaimage, volume_to_mask

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_CONFIG_ERRORS = (ConfigError,)
_IO_ERRORS = (OSError, MetaImageError, DataError, CheckpointError)
_NUMERIC_ERRORS = (NumericError, ShapeError)


def _version_string():
    return f"uception-{__version__}"


def write_manifest(path, command, config, seed, outputs, started):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": _version_string(),
        "started": started,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": sorted(outputs),
        "blas_core": host.blas_core(),
        "blas_threads": {var: os.environ.get(var) for var in host.BLAS_THREAD_VARS},
        "heap_policy": host.HEAP_POLICY,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _refuse_used_out(out_dir):
    """A run writes into an --out of its own: one that exists and holds
    files is refused before anything is touched."""
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise ConfigError(f"--out {out_dir} is not empty; give a new directory")


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# phantom


def cmd_phantom(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    _refuse_used_out(args.out)
    spec = PhantomSpec(extents=(args.extents,) * 3, tubes=args.tubes,
                       blobs=args.blobs, noise=args.noise, seed=args.seed)
    written = write_phantom_dataset(args.out, args.n_train, args.n_val, args.n_test, spec)
    outputs = [p for pair_list in written.values() for pair in pair_list for p in pair]
    config = {
        "extents": args.extents, "tubes": args.tubes, "blobs": args.blobs,
        "noise": args.noise, "n_train": args.n_train, "n_val": args.n_val,
        "n_test": args.n_test,
    }
    write_manifest(os.path.join(args.out, "manifest.json"), "phantom", config, args.seed,
                   outputs, started)
    print(f"wrote {len(outputs)} files to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train


_LOG_HEADER = "# epoch\tlr\ttrain_loss\tval_loss\tsnapshot\n"
# a resumed run may extend the epoch count; every other setting must match
_RESUME_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name != "epochs")


def _truncate_log(log_path, epoch_done):
    """Cut the training log back to the epochs the state file has committed.

    Each epoch appends its log row before it replaces the state file, so a
    crash between the two leaves a row the resumed run writes again. The
    header and the rows of epochs up to epoch_done are kept.
    """
    try:
        with open(log_path, encoding="utf-8") as fh:
            rows = [line for line in fh if not line.startswith("#")
                    and int(line.split("\t", 1)[0]) <= epoch_done]
    except ValueError as exc:  # a row without an epoch number, or bytes that are not text
        raise CheckpointError(f"{log_path}: not a training log ({exc})") from exc
    tmp = f"{log_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_LOG_HEADER)
        fh.writelines(rows)
    os.replace(tmp, log_path)


def run_training(cfg: TrainConfig, data_dir, out_dir, resume=False, echo=print):
    """Drive the full training loop; returns a summary dict. The data is
    loaded and checked before out_dir is made or written."""
    if not resume:
        _refuse_used_out(out_dir)
    splits = load_dataset(data_dir)
    if not splits["val"]:
        raise DataError("training needs at least one validation volume")
    train_set = [preprocess_pair(img, seg)[:2] for _, img, seg in splits["train"]]
    val_set = [preprocess_pair(img, seg)[:2] for _, img, seg in splits["val"]]
    # validation volumes are tiled, so only training volumes must hold a patch
    for (name, _, _), (image, _) in zip(splits["train"], train_set):
        if min(image.shape) < cfg.patch:
            raise ConfigError(f"patch {cfg.patch} does not fit training volume {name}, "
                              f"{image.shape} voxels at 1 mm")
    os.makedirs(out_dir, exist_ok=True)

    model = build_model_from_config(cfg)
    adam = AdamState(lr=cfg.lr_max)
    schedule = CyclicSchedule(cfg.lr_max, cfg.lr_min, cfg.cycle_epochs)
    snap = SnapshotSet(cfg.snapshots)
    state_path = os.path.join(out_dir, "train_state.npz")
    log_path = os.path.join(out_dir, "train_log.tsv")
    config_snapshot = os.path.join(out_dir, "config.used")

    start_epoch = 0
    if resume and os.path.exists(state_path):
        with open(config_snapshot, encoding="utf-8") as fh:
            stored = parse_config(fh.read())
        for f in _RESUME_FIELDS:
            if getattr(stored, f) != getattr(cfg, f):
                raise ConfigError(
                    f"resume config mismatch on {f!r}: state has "
                    f"{getattr(stored, f)}, new config has {getattr(cfg, f)}"
                )
        epoch_done = load_train_state(state_path, model, adam, snap)
        start_epoch = epoch_done + 1
        _truncate_log(log_path, epoch_done)
        echo(f"resuming after epoch {epoch_done}")
    else:
        with open(config_snapshot, "w", encoding="utf-8") as fh:
            fh.write(format_config(cfg))
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(_LOG_HEADER)

    for epoch in range(start_epoch, cfg.epochs):
        adam.lr = cyclic_lr(schedule, epoch)
        train_loss = train_epoch(
            model, train_set, adam, batch=cfg.batch, patch=cfg.patch,
            seed=[cfg.seed, epoch], smooth=cfg.smooth, min_fg_frac=cfg.min_fg_frac,
            patches_per_epoch=cfg.patches_per_epoch,
        )
        val_loss = validate(model, val_set, cfg.patch)
        captured = snapshot_after_epoch(snap, val_loss, model.parameters())
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{epoch}\t{adam.lr:.8g}\t{train_loss:.6f}\t{val_loss:.6f}"
                     f"\t{captured:d}\n")
        save_train_state(state_path, model, adam, epoch, snap)
        echo(f"epoch {epoch}: lr={adam.lr:.2e} train={train_loss:.4f} "
             f"val={val_loss:.4f}{' snapshot' if captured else ''}")

    snapshot_fallback(snap)
    # the trained model carries each saved parameter set in turn:
    # last, then every snapshot, then their average
    last_path = os.path.join(out_dir, "model_last.ucpt")
    avg_path = os.path.join(out_dir, "model_avg.ucpt")
    save_checkpoint(model, last_path)
    snap_paths = []
    for _, epoch, sp in snap.entries:
        snap_paths.append(os.path.join(out_dir, f"snapshot_e{epoch:04d}.ucpt"))
        save_checkpoint(model.set_parameters(sp), snap_paths[-1])
    model.set_parameters(snapshot_average(snap))
    avg_val = validate(model, val_set, cfg.patch)
    save_checkpoint(model, avg_path)
    return {
        "val_history": snap.history,
        "snapshots": [(e, v) for v, e, _ in snap.entries],
        "avg_val_loss": avg_val,
        "worst_snapshot_loss": snap.worst_loss,
        "paths": {"last": last_path, "avg": avg_path, "snapshots": snap_paths,
                  "log": log_path, "state": state_path, "config": config_snapshot},
    }


def cmd_train(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    summary = run_training(cfg, args.data, args.out, resume=args.resume)
    paths = summary["paths"]
    outputs = [paths[k] for k in ("last", "avg", "log", "state", "config")]
    outputs += paths["snapshots"]
    write_manifest(os.path.join(args.out, "manifest.json"), "train",
                   {f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
                   cfg.seed, outputs, started)
    print(f"final val loss {summary['val_history'][-1]:.4f}; "
          f"averaged-model val loss {summary['avg_val_loss']:.4f}; "
          f"{len(summary['paths']['snapshots'])} snapshots")
    return EXIT_OK


# ---------------------------------------------------------------------------
# segment


def cmd_segment(args):
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    # a value above 1 selects no voxel, which is allowed
    if not 0.0 <= args.threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold}")
    model = load_checkpoint(args.checkpoint)
    volume, header = load_metaimage(args.volume)
    if not header.spacing_present:
        raise MetaImageError(
            f"{args.volume}: header carries no ElementSpacing; cannot map to "
            "isotropic space"
        )
    model.cfg.check_patch(args.patch)
    iso = clip_normalize(resample_trilinear(volume, (1.0, 1.0, 1.0)))
    prob = predict_volume(model, iso.data, args.patch)
    mask_iso = (prob >= args.threshold).astype(np.float32)
    # back to the original grid: nearest-neighbour gather per axis
    idz, idy, idx = resample_nearest_indices(volume.extents, volume.spacing,
                                             mask_iso.shape, (1.0, 1.0, 1.0))
    mask = mask_iso[np.ix_(idz, idy, idx)]
    out_vol = Volume(mask, volume.spacing)
    os.makedirs(os.path.dirname(os.path.abspath(args.out_mask)), exist_ok=True)
    outputs = save_metaimage(out_vol, args.out_mask, "MET_UCHAR")
    # beside the mask, so a run directory's manifest.json stays that run's
    write_manifest(f"{args.out_mask}.manifest.json", "segment",
                   {"checkpoint": args.checkpoint, "volume": args.volume,
                    "threshold": args.threshold, "patch": args.patch},
                   0, outputs, started)
    print(f"wrote mask {args.out_mask} ({int(mask.sum())} foreground voxels)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _load_mask(path):
    vol, _ = load_metaimage(path)
    return volume_to_mask(vol), vol.spacing


def cmd_evaluate(args):
    if not 0.0 <= args.baseline_fraction <= 1.0:
        raise ConfigError(f"--baseline-fraction must be in [0, 1], got "
                          f"{args.baseline_fraction}")
    for what, paths in (("predictions", args.pred), ("images", args.image)):
        if paths and len(paths) != len(args.truth):
            raise DataError(f"unpaired file sets: {len(paths)} {what} vs "
                            f"{len(args.truth)} truths")

    def pred_mask(path):
        return _load_mask(path)[0]

    def baseline_mask(path):
        vol, _ = load_metaimage(path)
        return threshold_baseline(clip_normalize(vol), args.baseline_fraction)

    truths = [_load_mask(path) for path in args.truth]
    text = ""
    for heading, prefix, paths, load in (
            ("", "", args.pred, pred_mask),
            (f"\nbaseline (threshold at {args.baseline_fraction:.0%} of max intensity)\n",
             "baseline:", args.image, baseline_mask)):
        if not paths:
            continue
        reports = [evaluate_masks(load(path), truth, spacing,
                                  name=prefix + os.path.basename(path))
                   for path, (truth, spacing) in zip(paths, truths)]
        text += (heading + "\n".join(r.to_record() for r in reports) + "\n"
                 + summarize_reports(reports))
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args):
    results = run_suite()
    print(format_results(results), end="")
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uception",
        description="Desk-scale 3D CNN engine for sparse vessel segmentation.",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)

    base_spec = PhantomSpec()
    p = sub.add_parser("phantom", help="generate a synthetic tube-phantom dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=12)
    p.add_argument("--n-val", type=int, default=1)
    p.add_argument("--n-test", type=int, default=3)
    p.add_argument("--extents", type=int, default=base_spec.extents[0])
    p.add_argument("--tubes", type=int, default=base_spec.tubes)
    p.add_argument("--blobs", type=int, default=base_spec.blobs)
    p.add_argument("--noise", type=float, default=base_spec.noise)
    p.add_argument("--seed", type=int, default=base_spec.seed)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train", help="train on a directory of (img, seg) pairs")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true",
                   help="continue from train_state.npz in --out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("segment", help="segment one volume with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out-mask", required=True)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--patch", type=int, default=64)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("evaluate", help="score predicted masks against truths")
    p.add_argument("--pred", nargs="+", required=True)
    p.add_argument("--truth", nargs="+", required=True)
    p.add_argument("--image", nargs="*", default=[],
                   help="raw images; adds the intensity-threshold baseline rows")
    p.add_argument("--baseline-fraction", type=float, default=0.70)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _IO_ERRORS as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except UceptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
