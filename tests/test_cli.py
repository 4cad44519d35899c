"""Command-line surface: subcommands, exit codes, manifests, resume."""
import json
import os
import struct

import numpy as np
import pytest

from uception import cli
from uception.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
    read_manifest,
)
from uception.host import BLAS_THREAD_VARS
from uception.models import UceptionCfg, build_uception, save_checkpoint
from uception.phantom import PhantomSpec, write_phantom_dataset
from uception.volume import Volume, load_metaimage, save_metaimage


TINY_SPEC = PhantomSpec(extents=(16, 16, 16), tubes=1, radius_range=(1.2, 1.5),
                        blobs=1, seed=0)

TINY_CONFIG = """
depth = 2
levels = 1
dropout = 0.1
lr_max = 0.002
lr_min = 0.0001
cycle_epochs = 3
epochs = {epochs}
batch = 2
patch = 8
seed = 0
smooth = 1.0
min_fg_frac = 0.0
snapshots = 3
model = uception
patches_per_epoch = 4
mode = {mode}
"""


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    write_phantom_dataset(path, 2, 1, 1, TINY_SPEC)
    return str(path)


def write_config(tmp_path, epochs=2, mode="f32"):
    path = tmp_path / "train.cfg"
    path.write_text(TINY_CONFIG.format(epochs=epochs, mode=mode))
    return str(path)


@pytest.fixture(scope="module")
def full_f64_run(tmp_path_factory, tiny_data):
    """Output directory of an uninterrupted 4-epoch f64 training run."""
    tmp = tmp_path_factory.mktemp("full")
    out = tmp / "run"
    assert main(["train", "--config", write_config(tmp, epochs=4, mode="f64"),
                 "--data", tiny_data, "--out", str(out)]) == EXIT_OK
    return out


def same_bytes(dir_a, dir_b, name):
    return (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestParserDefaults:
    def test_phantom_split_defaults_mirror_desk_scale(self):
        args = build_parser().parse_args(["phantom", "--out", "x"])
        assert (args.n_train, args.n_val, args.n_test) == (12, 1, 3)

    def test_segment_defaults(self):
        args = build_parser().parse_args(
            ["segment", "--checkpoint", "c", "--volume", "v", "--out-mask", "m"])
        assert args.threshold == 0.9
        assert args.patch == 64

    def test_evaluate_baseline_fraction_default(self):
        args = build_parser().parse_args(
            ["evaluate", "--pred", "p", "--truth", "t"])
        assert args.baseline_fraction == 0.70


class TestPhantomCommand:
    def test_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "ds"
        code = main(["phantom", "--out", str(out), "--n-train", "2", "--n-val", "1",
                     "--n-test", "1", "--extents", "16", "--tubes", "1", "--blobs",
                     "1", "--seed", "3"])
        assert code == EXIT_OK
        files = sorted(os.listdir(out))
        assert "manifest.json" in files
        assert sum(f.endswith(".mha") for f in files) == 8  # 4 pairs
        manifest = read_manifest(str(out))
        assert manifest["command"] == "phantom"
        assert manifest["seed"] == 3
        assert manifest["blas_core"] and set(manifest["blas_threads"]) == set(BLAS_THREAD_VARS)
        assert "heap_policy" in manifest

    def test_rerun_same_seed_identical_files(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["phantom", "--out", str(out), "--n-train", "1", "--n-val",
                         "0", "--n-test", "0", "--extents", "16", "--tubes", "1",
                         "--blobs", "1", "--seed", "7"]) == EXIT_OK
            outs.append(out)
        for name in os.listdir(outs[0]):
            if name == "manifest.json":
                continue  # timestamps differ by design
            with open(outs[0] / name, "rb") as f1, open(outs[1] / name, "rb") as f2:
                assert f1.read() == f2.read(), name

    @pytest.mark.parametrize("flag,value", [("--noise", "nan"), ("--noise", "-1"),
                                            ("--tubes", "0"), ("--extents", "4"),
                                            ("--seed", "-1"), ("--blobs", "-1"),
                                            ("--n-train", "0"), ("--n-val", "-1")])
    def test_bad_setting_is_config_error(self, tmp_path, flag, value):
        code = main(["phantom", "--out", str(tmp_path / "x"), flag, value])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    def test_foreground_bound_is_config_error(self, tmp_path, capsys):
        # 24-cube volumes with the default three tubes break the 5 % bound
        code = main(["phantom", "--out", str(tmp_path / "x"), "--extents", "24"])
        assert code == EXIT_CONFIG
        assert "sparsity bound" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTrainCommand:
    def test_train_writes_artifacts_and_log(self, tmp_path, tiny_data):
        out = tmp_path / "run"
        code = main(["train", "--config", write_config(tmp_path), "--data",
                     tiny_data, "--out", str(out)])
        assert code == EXIT_OK
        for artifact in ("model_last.ucpt", "model_avg.ucpt", "train_state.npz",
                         "train_log.tsv", "manifest.json", "config.used"):
            assert (out / artifact).exists(), artifact
        lines = [l for l in (out / "train_log.tsv").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 2
        assert {len(l.split("\t")) for l in lines} == {5}

    def test_unknown_config_key_exits_config_code(self, tmp_path, tiny_data):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("depht = 4\n")
        code = main(["train", "--config", str(cfg), "--data", tiny_data,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_zero_batch_exits_config_code(self, tmp_path, tiny_data):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG.format(epochs=2, mode="f32").replace("batch = 2",
                                                                        "batch = 0"))
        code = main(["train", "--config", str(cfg), "--data", tiny_data,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_nan_lr_max_exits_config_code(self, tmp_path, tiny_data):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TINY_CONFIG.format(epochs=2, mode="f32").replace("lr_max = 0.002",
                                                                        "lr_max = nan"))
        code = main(["train", "--config", str(cfg), "--data", tiny_data,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_resume_equals_uninterrupted_in_f64(self, tmp_path, tiny_data, full_f64_run):
        split = tmp_path / "split"
        assert main(["train", "--config", write_config(tmp_path, epochs=2, mode="f64"),
                     "--data", tiny_data, "--out", str(split)]) == EXIT_OK
        assert main(["train", "--config", write_config(tmp_path, epochs=4, mode="f64"),
                     "--data", tiny_data, "--out", str(split), "--resume"]) == EXIT_OK
        assert same_bytes(full_f64_run, split, "model_last.ucpt")

    def test_resume_after_crash_before_state_save(self, tmp_path, tiny_data,
                                                  full_f64_run, monkeypatch):
        # epoch 1 has appended its log row but dies before its state is saved
        class Crash(Exception):
            pass

        save = cli.save_train_state

        def crash_on_epoch_1(path, model, adam, epoch_done, *rest):
            if epoch_done == 1:
                raise Crash
            save(path, model, adam, epoch_done, *rest)

        monkeypatch.setattr(cli, "save_train_state", crash_on_epoch_1)
        config = write_config(tmp_path, epochs=4, mode="f64")
        out = tmp_path / "crashed"
        with pytest.raises(Crash):
            main(["train", "--config", config, "--data", tiny_data, "--out", str(out)])
        monkeypatch.undo()
        assert main(["train", "--config", config, "--data", tiny_data,
                     "--out", str(out), "--resume"]) == EXIT_OK
        assert same_bytes(full_f64_run, out, "train_log.tsv")
        assert same_bytes(full_f64_run, out, "model_last.ucpt")

    def test_resume_from_truncated_state_is_io_error(self, tmp_path, tiny_data, capsys):
        out = tmp_path / "cut"
        config = write_config(tmp_path)
        assert main(["train", "--config", config, "--data", tiny_data,
                     "--out", str(out)]) == EXIT_OK
        state = out / "train_state.npz"
        state.write_bytes(state.read_bytes()[: state.stat().st_size // 2])
        capsys.readouterr()
        assert main(["train", "--config", config, "--data", tiny_data,
                     "--out", str(out), "--resume"]) == EXIT_IO
        assert "train_state.npz" in capsys.readouterr().err

    def test_resume_with_changed_config_rejected(self, tmp_path, tiny_data, capsys):
        out = tmp_path / "rc"
        assert main(["train", "--config", write_config(tmp_path, epochs=2),
                     "--data", tiny_data, "--out", str(out)]) == EXIT_OK
        stored = TINY_CONFIG.format(epochs=4, mode="f32")
        other = tmp_path / "other.cfg"
        for field, old, new in (("depth", "depth = 2", "depth = 3"),
                                ("mode", "mode = f32", "mode = f64"),
                                ("patches_per_epoch", "patches_per_epoch = 4",
                                 "patches_per_epoch = 6")):
            other.write_text(stored.replace(old, new))
            capsys.readouterr()
            code = main(["train", "--config", str(other), "--data", tiny_data,
                         "--out", str(out), "--resume"])
            assert code == EXIT_CONFIG, field
            assert repr(field) in capsys.readouterr().err


class TestSegmentCommand:
    def make_checkpoint(self, tmp_path):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        path = tmp_path / "m.ucpt"
        save_checkpoint(model, str(path))
        return str(path)

    def make_volume(self, tmp_path, shape=(10, 12, 14), spacing=(1.0, 1.0, 1.0)):
        data = np.random.default_rng(0).random(shape).astype(np.float32)
        path = tmp_path / "vol.mha"
        save_metaimage(Volume(data, spacing), str(path))
        return str(path), shape, spacing

    def test_mask_matches_input_geometry(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        vol_path, shape, spacing = self.make_volume(tmp_path, (10, 12, 14),
                                                    (2.0, 0.5, 1.0))
        out = tmp_path / "mask.mha"
        code = main(["segment", "--checkpoint", ckpt, "--volume", vol_path,
                     "--out-mask", str(out), "--patch", "8"])
        assert code == EXIT_OK
        mask, header = load_metaimage(str(out))
        assert mask.extents == shape
        assert mask.spacing == spacing
        assert header.ElementType == "MET_UCHAR"
        assert set(np.unique(mask.data)) <= {0.0, 1.0}

    def test_threshold_above_one_gives_empty_mask(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        vol_path, _, _ = self.make_volume(tmp_path)
        out = tmp_path / "mask.mha"
        code = main(["segment", "--checkpoint", ckpt, "--volume", vol_path,
                     "--out-mask", str(out), "--patch", "8",
                     "--threshold", "1.0001"])
        assert code == EXIT_OK
        mask, _ = load_metaimage(str(out))
        assert not mask.data.any()

    def test_segmenting_into_a_run_keeps_its_manifest(self, tmp_path, tiny_data):
        # README step 3 writes the mask into the training run's directory
        run = tmp_path / "run"
        assert main(["train", "--config", write_config(tmp_path), "--data", tiny_data,
                     "--out", str(run)]) == EXIT_OK
        mask = run / "test_000_mask.mha"
        code = main(["segment", "--checkpoint", str(run / "model_avg.ucpt"), "--volume",
                     os.path.join(tiny_data, "test_000_img.mha"), "--out-mask", str(mask),
                     "--patch", "8"])
        assert code == EXIT_OK
        assert read_manifest(str(run))["command"] == "train"
        with open(f"{mask}.manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "segment"
        assert manifest["outputs"] == [str(mask)]

    def test_volume_without_positive_peak_exits_numeric(self, tmp_path, capsys):
        ckpt = self.make_checkpoint(tmp_path)
        vol_path = tmp_path / "neg.mha"
        save_metaimage(Volume(-np.ones((8, 8, 8)), (1, 1, 1)), str(vol_path))
        out = tmp_path / "mask.mha"
        code = main(["segment", "--checkpoint", ckpt, "--volume", str(vol_path),
                     "--out-mask", str(out), "--patch", "8"])
        assert code == EXIT_NUMERIC
        assert "not positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", [
        lambda blob: blob.replace(b"levels = 1", b"levels = 0", 1),
        lambda blob: blob[:-4] + struct.pack("<f", np.inf),  # last value of head.conv.b
    ], ids=["levels-0", "inf-weight"])
    def test_damaged_checkpoint_is_io_error(self, tmp_path, damage):
        ckpt = self.make_checkpoint(tmp_path)
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        with open(ckpt, "wb") as fh:
            fh.write(damage(blob))
        vol_path, _, _ = self.make_volume(tmp_path)
        code = main(["segment", "--checkpoint", ckpt, "--volume", vol_path,
                     "--out-mask", str(tmp_path / "m.mha"), "--patch", "8"])
        assert code == EXIT_IO

    def test_unencodable_mask_name_is_io_error(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        vol_path, _, _ = self.make_volume(tmp_path)
        out = tmp_path / "\u00fc.mhd"
        code = main(["segment", "--checkpoint", ckpt, "--volume", vol_path,
                     "--out-mask", str(out), "--patch", "8"])
        assert code == EXIT_IO
        assert not out.exists()

    def test_missing_spacing_is_error(self, tmp_path):
        ckpt = self.make_checkpoint(tmp_path)
        vol_path, _, _ = self.make_volume(tmp_path)
        with open(vol_path, "rb") as fh:
            blob = fh.read()
        stripped = b"".join(line + b"\n" for line in blob.split(b"\n")
                            if not line.startswith(b"ElementSpacing"))
        nospacing = tmp_path / "nospacing.mha"
        with open(nospacing, "wb") as fh:
            fh.write(stripped.rstrip(b"\n") if stripped.endswith(b"\n\n") else stripped)
        code = main(["segment", "--checkpoint", ckpt, "--volume", str(nospacing),
                     "--out-mask", str(tmp_path / "m.mha"), "--patch", "8"])
        assert code == EXIT_IO


class TestEvaluateCommand:
    def write_mask(self, tmp_path, name, mask, spacing=(1.0, 1.0, 1.0)):
        path = tmp_path / name
        save_metaimage(Volume(mask.astype(np.float32), spacing), str(path),
                       "MET_UCHAR")
        return str(path)

    def test_perfect_prediction_rows(self, tmp_path, capsys):
        g = np.random.default_rng(1)
        mask = g.random((8, 8, 8)) < 0.1
        mask[0, 0, 0] = True
        p = self.write_mask(tmp_path, "p.mha", mask)
        t = self.write_mask(tmp_path, "t.mha", mask)
        assert main(["evaluate", "--pred", p, "--truth", t]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and "=" not in l]
        assert rows[0].startswith("Dice")
        assert "1.0000" in rows[0] and "0.0000" in rows[0]
        assert rows[1].startswith("Sensitivity")
        assert rows[2].startswith("Avg. Hausdorff Dist.[mm]")

    def test_swapped_pred_truth_same_ahd(self, tmp_path, capsys):
        g = np.random.default_rng(2)
        a = g.random((8, 8, 8)) < 0.1
        b = g.random((8, 8, 8)) < 0.1
        a[0, 0, 0] = b[0, 0, 1] = True
        pa = self.write_mask(tmp_path, "a.mha", a)
        pb = self.write_mask(tmp_path, "b.mha", b)
        main(["evaluate", "--pred", pa, "--truth", pb])
        fwd = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("avg_hausdorff_mm")]
        main(["evaluate", "--pred", pb, "--truth", pa])
        rev = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("avg_hausdorff_mm")]
        assert fwd == rev

    def test_empty_truth_scores_nan_sensitivity(self, tmp_path, capsys):
        empty = np.zeros((8, 8, 8), bool)
        p = self.write_mask(tmp_path, "p.mha", empty)
        t = self.write_mask(tmp_path, "t.mha", empty)
        assert main(["evaluate", "--pred", p, "--truth", t]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dice = 1.000000" in out
        assert "sensitivity = nan" in out

    def test_unpaired_sets_exit_io(self, tmp_path):
        m = self.write_mask(tmp_path, "m.mha", np.ones((4, 4, 4), bool))
        assert main(["evaluate", "--pred", m, m, "--truth", m]) == EXIT_IO

    def test_baseline_rows_with_images(self, tmp_path, capsys):
        g = np.random.default_rng(3)
        truth = g.random((8, 8, 8)) < 0.1
        truth[0, 0, 0] = True
        t = self.write_mask(tmp_path, "t.mha", truth)
        p = self.write_mask(tmp_path, "p.mha", truth)
        img = tmp_path / "img.mha"
        save_metaimage(Volume(g.random((8, 8, 8)).astype(np.float32), (1, 1, 1)),
                       str(img))
        assert main(["evaluate", "--pred", p, "--truth", t,
                     "--image", str(img)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "baseline" in out
        assert out.count("Avg. Hausdorff Dist.[mm]") == 2

    def test_image_without_positive_peak_exits_numeric(self, tmp_path, capsys):
        m = self.write_mask(tmp_path, "m.mha", np.ones((4, 4, 4), bool))
        img = tmp_path / "img.mha"
        save_metaimage(Volume(-np.arange(1.0, 65.0).reshape(4, 4, 4), (1, 1, 1)), str(img))
        assert main(["evaluate", "--pred", m, "--truth", m,
                     "--image", str(img)]) == EXIT_NUMERIC
        assert "not positive" in capsys.readouterr().err

    def test_report_text_pinned(self, tmp_path, capsys):
        # two volumes, one anisotropic, with model and baseline rows; the
        # whole text printed and written must stay byte for byte the same
        g = np.random.default_rng(4)
        argv = {"--pred": [], "--truth": [], "--image": []}
        for i, spacing in enumerate([(1.0, 1.0, 1.0), (0.5, 1.0, 2.0)]):
            truth = g.random((8, 8, 8)) < 0.15
            pred = truth ^ (g.random((8, 8, 8)) < 0.05)
            img = g.random((8, 8, 8)) + 0.6 * truth
            img[g.random((8, 8, 8)) < 0.02] = 1.5
            for flag, arr, kind in (("--pred", pred, "MET_UCHAR"),
                                    ("--truth", truth, "MET_UCHAR"),
                                    ("--image", img, "MET_FLOAT")):
                path = str(tmp_path / f"{flag[2:]}{i}.mha")
                save_metaimage(Volume(arr.astype(np.float32), spacing), path, kind)
                argv[flag].append(path)
        out = tmp_path / "report.txt"
        assert main(["evaluate"] + sum([[k] + v for k, v in argv.items()], [])
                    + ["--out", str(out)]) == EXIT_OK
        expected = (
            "volume = pred0.mha\ndice = 0.840000\nsensitivity = 0.984375\n"
            "avg_hausdorff_mm = 0.183140\nspacing_mm = 1.0 1.0 1.0\n\n"
            "volume = pred1.mha\ndice = 0.818182\nsensitivity = 0.926471\n"
            "avg_hausdorff_mm = 0.176683\nspacing_mm = 0.5 1.0 2.0\n\n"
            "Dice\t0.8291\t0.0154\nSensitivity\t0.9554\t0.0409\n"
            "Avg. Hausdorff Dist.[mm]\t0.1799\t0.0046\n"
            "\nbaseline (threshold at 70% of max intensity)\n"
            "volume = baseline:image0.mha\ndice = 0.609524\nsensitivity = 0.500000\n"
            "avg_hausdorff_mm = 0.526257\nspacing_mm = 1.0 1.0 1.0\n\n"
            "volume = baseline:image1.mha\ndice = 0.616667\nsensitivity = 0.544118\n"
            "avg_hausdorff_mm = 0.401426\nspacing_mm = 0.5 1.0 2.0\n\n"
            "Dice\t0.6131\t0.0051\nSensitivity\t0.5221\t0.0312\n"
            "Avg. Hausdorff Dist.[mm]\t0.4638\t0.0883\n"
        )
        assert capsys.readouterr().out == expected
        assert out.read_text() == expected


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0
