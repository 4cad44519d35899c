"""Acceptance criteria, one test per criterion, each printing a pass/fail
line at its stated tolerance.

The end-to-end phantom training run (criterion 5) is the expensive part;
its artifacts are built once in a module fixture and shared with the
snapshot-averaging criterion.
"""
import glob
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from uception import layers
from uception.blocks import DeepBlock, ReductionBlock
from uception.cli import main, run_training
from uception.errors import MetaImageError
from uception.gradcheck import format_results, run_suite
from uception.host import blas_core
from uception.layers import TRAIN, Context
from uception.metrics import average_hausdorff, hard_dice, sensitivity, soft_dice, soft_dice_backward
from uception.models import UceptionCfg, Uception, build_unet3d_baseline, build_uception
from uception.preprocess import (
    clip_normalize,
    crop_to,
    reassemble,
    resample_trilinear,
    threshold_baseline,
    tile_patches,
)
from uception.tensor import MODES
from uception.training import (
    SnapshotSet,
    load_dataset,
    parse_config,
    preprocess_pair,
    snapshot_average,
    snapshot_update,
)
from uception.volume import Volume, load_metaimage, read_metaimage, write_metaimage, \
    volume_to_mask

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 5 artifacts, shared with criterion 10


@pytest.fixture(scope="module")
def phantom_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("phantom_e2e")
    data_dir = root / "data"
    out_dir = root / "run"
    assert main(["phantom", "--out", str(data_dir)]) == 0
    cfg = parse_config(open(os.path.join(REPO, "configs", "phantom.cfg")).read())
    t0 = time.monotonic()
    summary = run_training(cfg, str(data_dir), str(out_dir), echo=lambda s: None)
    train_seconds = time.monotonic() - t0
    return {"data": str(data_dir), "out": str(out_dir), "cfg": cfg,
            "summary": summary, "train_seconds": train_seconds}


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    results = run_suite()
    elapsed = time.monotonic() - t0
    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and elapsed <= 120.0
    if not ok:
        print(format_results(results))
    report(1, ok, f"all {len(results)} checks pass (worst rel err {worst:.2e}, "
                  f"tolerances 1e-4 / 1e-3 model / 1e-5 dice) in {elapsed:.0f}s <= 120s")


def test_criterion_02_shape_architecture_contract():
    model = build_uception(UceptionCfg(base_depth=10, levels=3), seed=0,
                           dtype=np.float32)
    x = np.random.default_rng(0).standard_normal((1, 1, 64, 64, 64)).astype(np.float32)
    y, _ = layers.call(model, x, Context())
    shape_ok = y.shape == (1, 1, 64, 64, 64)
    range_ok = 0.0 < float(y.min()) and float(y.max()) < 1.0

    g = np.random.default_rng(1)
    red = layers.init_params(
        ReductionBlock("red", in_channels=4, branch_depth=3), g)
    red, _ = layers.call(red, g.standard_normal((1, 4, 16, 16, 16)).astype(np.float32),
                         Context())
    halves_ok = red.shape == (1, 10, 8, 8, 8)
    deep = layers.init_params(DeepBlock("deep", in_channels=2, branch_depth=5), g)
    deep, _ = layers.call(deep, g.standard_normal((1, 2, 8, 8, 8)).astype(np.float32),
                          Context())
    deep_ok = deep.shape == (1, 20, 8, 8, 8)
    report(2, shape_ok and range_ok and halves_ok and deep_ok,
           f"(1,1,64,64,64)->{y.shape} in ({y.min():.3f},{y.max():.3f}); "
           f"reduction halves extents; deep block emits 4*D channels")


def _mask_pair(g, max_ext=16):
    shape = tuple(int(v) for v in g.integers(2, max_ext + 1, size=3))
    p = g.random(shape) < g.uniform(0.05, 0.5)
    t = g.random(shape) < g.uniform(0.05, 0.5)
    if not p.any():
        p.flat[int(g.integers(p.size))] = True
    if not t.any():
        t.flat[int(g.integers(t.size))] = True
    return p, t


def _brute_confusion(p, t):
    pc = {tuple(c) for c in np.argwhere(p)}
    tc = {tuple(c) for c in np.argwhere(t)}
    tp = len(pc & tc)
    return tp, len(pc - tc), len(tc - pc)


def test_criterion_03_metric_oracles():
    g = np.random.default_rng(33)
    exact = 0
    for _ in range(200):
        p, t = _mask_pair(g)
        tp, fp, fn = _brute_confusion(p, t)
        dice_expect = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        sens_expect = tp / (tp + fn)
        spacing = (1.0, 1.0, 1.0) if exact % 2 == 0 else (0.5, 0.5, 2.0)
        ahd_edt = average_hausdorff(p, t, spacing, method="edt")
        ahd_brute = average_hausdorff(p, t, spacing, method="brute")
        assert hard_dice(p, t) == dice_expect
        assert sensitivity(p, t) == sens_expect
        assert ahd_edt == ahd_brute
        exact += 1
    # frozen hand cases
    m = np.zeros((8, 8, 8), bool)
    m[1, 2, 3] = True
    identical = average_hausdorff(m, m)
    a = np.zeros((8, 8, 8), bool)
    b = np.zeros((8, 8, 8), bool)
    a[0, 0, 0] = True
    b[0, 0, 3] = True
    single_pair = average_hausdorff(a, b)
    c = np.zeros((4, 4, 4), bool)
    d = np.zeros((4, 4, 4), bool)
    c[0, 0, 0] = True
    d[0, 0, 0] = True
    d[0, 0, 2] = True
    three_point = average_hausdorff(c, d)
    hand_ok = (abs(identical - 0.0) <= 1e-9 and abs(single_pair - 3.0) <= 1e-9
               and abs(three_point - 0.5) <= 1e-9)
    report(3, hand_ok and exact == 200,
           f"200/200 masks agree exactly with brute force; hand cases "
           f"0mm/{single_pair}mm/{three_point}mm reproduce to 1e-9")


def test_criterion_04_eq1_conformance():
    g = np.random.default_rng(44)
    checked = 0
    for _ in range(200):
        p, t = _mask_pair(g, max_ext=12)
        tp, fp, fn = _brute_confusion(p, t)
        expect = 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
        got = soft_dice(p.astype(np.float64), t.astype(np.float64), smooth=0.0)
        assert got == expect
        checked += 1
    report(4, checked == 200,
           "soft dice on binary inputs equals 2TP/(2TP+FP+FN) exactly, 200 masks")


def test_criterion_05_phantom_end_to_end(phantom_run):
    cfg = phantom_run["cfg"]
    within_budget = phantom_run["train_seconds"] <= 15 * 60
    splits = load_dataset(phantom_run["data"])
    model_dice, model_ahd, base_dice, base_ahd = [], [], [], []
    for name, img_vol, seg_vol in splits["test"]:
        mask_path = os.path.join(phantom_run["out"], name.replace("_img.", "_mask."))
        code = main(["segment",
                     "--checkpoint", os.path.join(phantom_run["out"], "model_avg.ucpt"),
                     "--volume", os.path.join(phantom_run["data"], name),
                     "--out-mask", mask_path,
                     "--patch", str(cfg.patch), "--threshold", "0.9"])
        assert code == 0
        pred_vol, _ = load_metaimage(mask_path)
        pred = volume_to_mask(pred_vol)
        image, truth, spacing = preprocess_pair(img_vol, seg_vol)
        base = threshold_baseline(image, 0.70)
        model_dice.append(hard_dice(pred, truth))
        model_ahd.append(average_hausdorff(pred, truth, spacing))
        base_dice.append(hard_dice(base, truth))
        base_ahd.append(average_hausdorff(base, truth, spacing))
    md, mh = float(np.mean(model_dice)), float(np.mean(model_ahd))
    bd, bh = float(np.mean(base_dice)), float(np.mean(base_ahd))
    ok = within_budget and md >= 0.80 and md > bd and mh < bh
    report(5, ok,
           f"trained {cfg.epochs} epochs in {phantom_run['train_seconds']:.0f}s "
           f"(<= 900s); test dice {md:.3f} >= 0.80 at threshold 0.9; beats "
           f"baseline on dice ({md:.3f} > {bd:.3f}) and AHD "
           f"({mh:.2f}mm < {bh:.2f}mm)")


def test_criterion_06_baseline_capacity_and_convergence(phantom_run):
    cfg = UceptionCfg(base_depth=10, levels=3)
    target = Uception(cfg).parameter_count()
    unet = build_unet3d_baseline(cfg, seed=0)
    rel_full = abs(unet.parameter_count() - target) / target
    small_cfg = UceptionCfg(base_depth=4, levels=2)
    small_target = Uception(small_cfg).parameter_count()
    small_unet = build_unet3d_baseline(small_cfg, seed=0)
    rel_small = abs(small_unet.parameter_count() - small_target) / small_target

    train_cfg = phantom_run["cfg"]
    from dataclasses import replace
    unet_cfg = replace(train_cfg, model="unet3d", epochs=15)
    out = os.path.join(phantom_run["out"], "unet_run")
    summary = run_training(unet_cfg, phantom_run["data"], out, echo=lambda s: None)
    log = open(summary["paths"]["log"]).read().splitlines()
    final_train_loss = float([l for l in log if not l.startswith("#")][-1].split("\t")[2])
    ok = rel_full <= 0.10 and rel_small <= 0.10 and final_train_loss < -0.5
    report(6, ok,
           f"capacity gap {100 * rel_full:.2f}% (D=10,L=3) and "
           f"{100 * rel_small:.2f}% (D=4,L=2) <= 10%; unet3d final train loss "
           f"{final_train_loss:.3f} < -0.5")


def test_criterion_07_preprocessing():
    vol = Volume(np.ones((128, 448, 448), dtype=np.float32), (0.8, 0.5, 0.5))
    iso = resample_trilinear(vol, (1.0, 1.0, 1.0))
    dims_ok = iso.extents == (102, 224, 224)

    g = np.random.default_rng(77)
    noisy = Volume((g.random((32, 32, 32)) * 500).astype(np.float32), (1, 1, 1))
    normed = clip_normalize(noisy)
    max_ok = float(normed.data.max()) == 1.0

    data = g.random((100, 100, 100)).astype(np.float32)
    padded, tiles = tile_patches(data, 64)
    round_trip = crop_to(reassemble(tiles, padded), data.shape)
    tile_ok = np.array_equal(round_trip, data) and len(tiles) == 8
    report(7, dims_ok and max_ok and tile_ok,
           f"448x448x128 @(0.5,0.5,0.8)mm -> {iso.extents[::-1]} @1mm; "
           f"clip_normalize max == 1.0; tile/reassemble bit-exact")


def test_criterion_08_parser_robustness():
    g = np.random.default_rng(88)
    vol = Volume(g.random((6, 7, 8)).astype(np.float32), (0.5, 1.0, 2.0))
    blob = write_metaimage(vol, "MET_FLOAT")
    back, _ = read_metaimage(blob)
    round_ok = np.array_equal(back.data, vol.data) and back.spacing == vol.spacing

    crashes = 0
    for case in range(1000):
        buf = bytearray(blob)
        kind = case % 4
        if kind == 0:
            for _ in range(int(g.integers(1, 10))):
                buf[int(g.integers(len(buf)))] = int(g.integers(256))
        elif kind == 1:
            buf = buf[: int(g.integers(0, len(buf)))]
        elif kind == 2:
            cut = int(g.integers(0, len(buf)))
            buf = buf[:cut] + bytes(g.integers(0, 256, size=16, dtype=np.uint8)) \
                + buf[cut:]
        else:
            buf = bytes(g.integers(0, 256, size=int(g.integers(1, 300)),
                                   dtype=np.uint8))
        try:
            read_metaimage(bytes(buf))
        except MetaImageError:
            pass
        except Exception:
            crashes += 1
    report(8, round_ok and crashes == 0,
           f"MET_FLOAT round trip bit-exact; 1000-case mutation fuzz: "
           f"{crashes} unstructured failures")


TINY_F64_CONFIG = """
depth = 2
levels = 1
dropout = 0.1
lr_max = 0.002
lr_min = 0.0001
cycle_epochs = 3
epochs = 3
batch = 2
patch = 8
seed = 0
smooth = 1.0
min_fg_frac = 0.0
snapshots = 3
model = uception
patches_per_epoch = 4
mode = f64
"""


def test_criterion_09_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["phantom", "--out", str(data_dir), "--n-train", "2", "--n-val", "1",
                 "--n-test", "0", "--extents", "16", "--tubes", "1", "--blobs", "1",
                 "--seed", "5"]) == 0
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(TINY_F64_CONFIG)
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                     "--out", str(out)]) == 0
        with open(out / "model_last.ucpt", "rb") as fh:
            last = fh.read()
        with open(out / "model_avg.ucpt", "rb") as fh:
            avg = fh.read()
        blobs.append((last, avg))
    ok = blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]
    report(9, ok, "two cmd_train runs with the same manifest produce bit-identical "
                  "final checkpoints (64-bit mode)")


def test_criterion_10_snapshot_averaging(phantom_run):
    snap = SnapshotSet(capacity=3)
    member = {"w": np.full(5, 1.5), "b": np.array([0.25])}
    for epoch in range(3):
        snapshot_update(snap, epoch, -0.4, member)
    avg = snapshot_average(snap)
    identical_ok = all(np.array_equal(avg[k], member[k]) for k in member)

    summary = phantom_run["summary"]
    ensemble_ok = summary["avg_val_loss"] <= summary["worst_snapshot_loss"]
    report(10, identical_ok and ensemble_ok,
           f"identical-snapshot average equals the member; averaged phantom model "
           f"val loss {summary['avg_val_loss']:.4f} <= worst stored snapshot "
           f"{summary['worst_snapshot_loss']:.4f}")


# ---------------------------------------------------------------------------
# pinned bytes: the full configs/phantom.cfg run and the gradient suite. The
# f32 bytes depend on the BLAS kernels, so the digests hold for the numpy
# and BLAS builds named below; a change that moves them on purpose says so.

PINNED_ON = "numpy 2.4.6 with scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH) on core SkylakeX"
RUN_DIGESTS = {
    "model_last.ucpt": "95c630f8bf56fb4c9f3a080f33d1d61df84602d5edd8923ce5d7768e54c35fa7",
    "model_avg.ucpt": "3527b230f66c619595ba8a362540b748bc884d8406986b7695cb719a24795695",
    "snapshot_e0020.ucpt": "f9eaf4eb9bde4aae12c8049657194e13d8c548b94a49a51847cd94dd30044cc0",
    "snapshot_e0025.ucpt": "b83853231b61dae076af5f18205b35bfd1847da5970806168e84fa20bad68d8e",
    "snapshot_e0031.ucpt": "de180926f84130b3b36b7a7cd122dcf88b86736bd613a5f33fb7be3163730302",
    "snapshot_e0033.ucpt": "ec3006ce49362fd44298f14eed6a66de71b22a3637d935fa3739d151e90b0d4a",
    "snapshot_e0035.ucpt": "843c41ce06993cb5335647ed6979cb2462d0049d891921b55127c229b6416d35",
    "train_log.tsv": "55ca16c9f7b59516a8beab12429a0927630e39e43d9078e6b50f97fe23d0ad9c",
    "train_state.npz": "ffdec346ea460d7e6a090680f25f179e20351af81322463b1217afedae95c3df",
}
# SHA-256 of the concatenated repr(max_rel_error) of run_suite()
SUITE_DIGEST = "b7d28c7b109ee724532b26b3d3cf564bad68c47efd45fbb4e66e2b19384bff82"
# (kind, mode) -> SHA-256 of the parameter gradients of one seeded desk TRAIN
# step (batch 2) and of one INFER forward of a 16-cube tile (batch 1): the
# U-net and the batch-1 path, which RUN_DIGESTS does not reach. They hold
# at one and at two BLAS threads; see step_digests.
STEP_DIGESTS = {
    ("uception", "f32"): ("230c7793f5db9fbd872ac2a6061f35babc7bc16e3c211a134eae24fc5f977dfa",
                          "663ea4072431f8e02bc2574763411489e0670f05b33de2f5f526eb31d2d5fc3f"),
    ("uception", "f64"): ("8eb3eff1ae6788d87d5b634fb496feed29258a01cd21f73dbed8d4ffea257dab",
                          "1a7eba7d8bc2fec280fa37fbaa372c4e4d7703f8711fc3afcdc676fe6875a3d2"),
    ("unet3d", "f32"): ("c5cbd6c8545455e49fafb006c6875d34965f7530357afb0c99736e603d3a930a",
                        "912f2e5076b0d0493187e120a74db3f9ee8f437a537e4dfa478ca83bb7d54f2f"),
    ("unet3d", "f64"): ("c9f9d9d1de84bec518384d7d2813ec005f1ae3a6a70dfeec0abc31342591f5c1",
                        "44dee7179d88118bb9f3d5a7403cbd070a3636d295a247e480739287123d2cae"),
}


def _build_versions():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown BLAS"
    return (f"pinned on {PINNED_ON}; this run has numpy {np.__version__} with {blas} "
            f"on core {blas_core()}")


def test_full_run_bytes_are_pinned(phantom_run):
    out = phantom_run["out"]
    names = ["model_last.ucpt", "model_avg.ucpt", "train_log.tsv", "train_state.npz"]
    names += [os.path.basename(p) for p in glob.glob(os.path.join(out, "snapshot_e*.ucpt"))]
    got = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    moved = sorted(set(got) ^ set(RUN_DIGESTS) | {k for k in got if got[k] != RUN_DIGESTS.get(k)})
    assert not moved, f"full-run files differ from the pinned digests: {moved} ({_build_versions()})"


def test_gradient_suite_errors_are_pinned():
    errors = "".join(repr(r.max_rel_error) for r in run_suite())
    digest = hashlib.sha256(errors.encode()).hexdigest()
    assert digest == SUITE_DIGEST, (
        f"gradient suite max_rel_error reprs moved: {errors!r} ({_build_versions()})")


def _step_digests(kind, mode):
    dtype = MODES[mode]
    build = {"uception": build_uception, "unet3d": build_unet3d_baseline}[kind]
    model = build(UceptionCfg(base_depth=4, levels=2, dropout_rate=0.18), seed=0, dtype=dtype)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((2, 1, 16, 16, 16)).astype(dtype)
    t = rng.random((2, 1, 16, 16, 16)) < 0.3
    y, cache = model.forward(x, Context(mode=TRAIN, rng=np.random.default_rng(17)))
    grads = {}
    model.backward(soft_dice_backward(y, t, 1.0), cache, grads)
    train = hashlib.sha256()
    for name in model.parameters():
        train.update(grads[name].tobytes())
    tile = rng.standard_normal((1, 1, 16, 16, 16)).astype(dtype)
    y, _ = layers.call(model, tile, Context())
    return train.hexdigest(), hashlib.sha256(y.tobytes()).hexdigest()


def _child_step_digests(threads):
    """STEP_DIGESTS keys -> digests, computed in a child process whose BLAS
    runs on the given number of threads."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
                             str(threads)))
    code = ("import json, test_acceptance as t; "
            "print(json.dumps([t._step_digests(*key) for key in sorted(t.STEP_DIGESTS)]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=os.path.join(REPO, "tests"), env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return dict(zip(sorted(STEP_DIGESTS), map(tuple, json.loads(proc.stdout.splitlines()[-1]))))


@pytest.fixture(scope="module")
def step_digests():
    return _child_step_digests(1)


def test_step_digests_do_not_depend_on_the_blas_thread_count(step_digests):
    # f64 steps give the same bits at one and at two BLAS threads
    assert _child_step_digests(2) == step_digests


@pytest.mark.parametrize("kind, mode", sorted(STEP_DIGESTS))
def test_model_step_bytes_are_pinned(step_digests, kind, mode):
    assert step_digests[kind, mode] == STEP_DIGESTS[kind, mode], (
        f"{kind} {mode} train-step gradients or infer output moved ({_build_versions()})")
