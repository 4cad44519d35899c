"""Training loop semantics: determinism, loss descent, validation tiling,
patch sampling, config parsing, the resume state file."""
import io
from dataclasses import replace

import numpy as np
import pytest

from uception.errors import CheckpointError, ConfigError, DataError
from uception.metrics import evaluate_masks, soft_dice
from uception.models import UceptionCfg, build_uception
from uception.optim import AdamState
from uception.phantom import PhantomSpec, generate_phantom
from uception.training import (
    SnapshotSet,
    TrainConfig,
    format_config,
    load_train_state,
    parse_config,
    predict_volume,
    sample_patch,
    save_train_state,
    snapshot_after_epoch,
    train_epoch,
    validate,
)
from uception.volume import volume_to_mask


def tiny_dataset(n=2, seed=0):
    out = []
    for i in range(n):
        img, tru = generate_phantom(
            PhantomSpec(extents=(16, 16, 16), tubes=1, radius_range=(1.2, 1.6),
                        blobs=1, seed=seed + i))
        out.append((img.data, volume_to_mask(tru)))
    return out


def tiny_model(seed=0, dtype=np.float64, dropout=0.2):
    return build_uception(
        UceptionCfg(base_depth=2, levels=1, dropout_rate=dropout),
        seed=seed, dtype=dtype)


class TestTrainEpoch:
    def test_identical_seeds_identical_trajectories_f64(self):
        data = tiny_dataset()
        runs = []
        for _ in range(2):
            model = tiny_model(seed=1)
            adam = AdamState(lr=1e-3)
            loss = train_epoch(model, data, adam, batch=2, patch=8, seed=42,
                               patches_per_epoch=6)
            runs.append((loss, {k: v.copy() for k, v in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]
        for name, arr in runs[0][1].items():
            assert np.array_equal(arr, runs[1][1][name]), name

    def test_different_seed_different_trajectory(self):
        data = tiny_dataset()
        losses = set()
        for seed in (1, 2):
            model = tiny_model(seed=1)
            adam = AdamState(lr=1e-3)
            losses.add(train_epoch(model, data, adam, batch=2, patch=8, seed=seed,
                                   patches_per_epoch=6))
        assert len(losses) == 2

    def test_empty_dataset_rejected(self):
        model = tiny_model()
        with pytest.raises(DataError):
            train_epoch(model, [], AdamState(), batch=1, patch=8, seed=0)

    def test_median_loss_decreases_over_training(self):
        # per seed: median train loss over the last tenth of epochs sits
        # below the median over the first tenth
        data = tiny_dataset(n=4, seed=30)
        epochs = 10
        for seed in range(5):
            model = tiny_model(seed=seed, dropout=0.1)
            adam = AdamState(lr=2e-3)
            losses = [
                train_epoch(model, data, adam, batch=2, patch=8,
                            seed=[seed, epoch], patches_per_epoch=12,
                            min_fg_frac=0.02)
                for epoch in range(epochs)
            ]
            head = np.median(losses[: max(1, epochs // 10)])
            tail = np.median(losses[-max(1, epochs // 10):])
            assert tail < head, (seed, losses)

    def test_loss_improves_after_one_epoch_most_seeds(self):
        # statistically over 5 seeds, at least 4 of 5 improve on a fixed
        # held-out patch after one epoch of descent
        data = tiny_dataset(n=3, seed=10)
        wins = 0
        for seed in range(5):
            model = tiny_model(seed=seed, dropout=0.0)
            probe_img, probe_truth = data[0]
            x = probe_img[None, None].astype(model.dtype)

            def held_out_loss():
                from uception.layers import Context
                y, _ = model.forward(x, Context())
                return -soft_dice(y, probe_truth[None, None], 1.0)

            before = held_out_loss()
            adam = AdamState(lr=2e-3)
            for epoch in range(2):
                train_epoch(model, data, adam, batch=2, patch=8,
                            seed=[seed, epoch], patches_per_epoch=12)
            wins += held_out_loss() < before
        assert wins >= 4


class TestSamplePatch:
    def test_patch_shape_and_bounds(self):
        g = np.random.default_rng(0)
        img = g.random((20, 24, 28)).astype(np.float32)
        tru = g.random((20, 24, 28)) < 0.01
        for _ in range(20):
            p, t = sample_patch(g, img, tru, 8)
            assert p.shape == (8, 8, 8) and t.shape == (8, 8, 8)

    def test_rejection_prefers_foreground(self):
        img = np.zeros((32, 32, 32), dtype=np.float32)
        tru = np.zeros((32, 32, 32), dtype=bool)
        tru[4:10, 4:10, 4:10] = True  # single dense pocket
        plain = np.mean([
            sample_patch(np.random.default_rng(100 + i), img, tru, 8)[1].mean()
            for i in range(30)])
        filtered = np.mean([
            sample_patch(np.random.default_rng(100 + i), img, tru, 8,
                         min_fg_frac=0.05)[1].mean()
            for i in range(30)])
        assert filtered > plain

    def test_volume_smaller_than_patch_rejected(self):
        g = np.random.default_rng(2)
        with pytest.raises(Exception):
            sample_patch(g, np.zeros((4, 4, 4)), np.zeros((4, 4, 4), bool), 8)


class TestValidate:
    def test_zero_weight_model_closed_form_loss(self):
        # probability 0.5 everywhere: soft dice = 2*0.5*|T| / (0.5*N + |T|)
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        for name, arr in model.parameters().items():
            arr[...] = 0.0
        g = np.random.default_rng(3)
        image = g.random((16, 16, 16)).astype(np.float32)
        truth = g.random((16, 16, 16)) < 0.02
        loss = validate(model, [(image, truth)], patch=8)
        n = image.size
        t = truth.sum()
        expect = -(2 * 0.5 * t) / (0.5 * n + t)
        assert loss == pytest.approx(expect, rel=1e-5)

    def test_oracle_probabilities_score_perfect(self):
        truth = np.random.default_rng(4).random((16, 16, 16)) < 0.03
        truth[0, 0, 0] = True

        class Oracle:
            dtype = np.float64

            def forward(self, x, ctx):
                return x.copy(), None

        image = truth.astype(np.float64)
        loss = validate(Oracle(), [(image, truth)], patch=8)
        assert loss == -1.0
        report = evaluate_masks(predict_volume(Oracle(), image, 8) >= 0.9, truth)
        assert report.dice == 1.0 and report.sensitivity == 1.0
        assert report.avg_hausdorff_mm == 0.0

    def test_all_background_truth_validates(self):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        image = np.random.default_rng(6).random((16, 16, 16)).astype(np.float32)
        truth = np.zeros((16, 16, 16))
        loss = validate(model, [(image, truth)], patch=8)
        assert np.isfinite(loss)
        report = evaluate_masks(predict_volume(model, image, 8) >= 0.9, truth)
        assert report.dice in (0.0, 1.0)
        assert np.isnan(report.sensitivity)

    def test_loss_is_the_mean_over_the_set(self):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        g = np.random.default_rng(7)
        pairs = [(g.random((16, 16, 16)).astype(np.float32), g.random((16, 16, 16)) < 0.05)
                 for _ in range(2)]
        each = [validate(model, [pair], patch=8) for pair in pairs]
        assert each[0] != each[1]
        assert validate(model, pairs, patch=8) == np.mean(each)

    def test_reassembled_shape_matches_input(self):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        image = np.random.default_rng(5).random((20, 12, 28)).astype(np.float32)
        prob = predict_volume(model, image, 8)
        assert prob.shape == image.shape


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = TrainConfig()
        assert parse_config(format_config(cfg)) == cfg
        assert cfg.patch == 64 and cfg.batch == 2 and cfg.snapshots == 5
        assert cfg.depth == 10 and cfg.levels == 3 and cfg.dropout == 0.25

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("depht = 4\n")
        message = str(err.value)
        assert "depht" in message
        for key in ("depth", "levels", "lr_max", "min_fg_frac", "snapshots"):
            assert key in message

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config("epochs = soon\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\ndepth = 3  # inline\nlevels = 1\npatch = 16\n")
        assert cfg.depth == 3 and cfg.levels == 1

    def test_patch_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("levels = 3\npatch = 20\n")

    def test_bad_model_name(self):
        with pytest.raises(ConfigError):
            parse_config("model = resnet\n")

    @pytest.mark.parametrize("text", [
        "batch = 0", "patch = 0", "levels = 0", "depth = 0", "dropout = 1.5",
        "snapshots = 0", "cycle_epochs = 0", "lr_min = 0.01",  # above the default lr_max
        "smooth = -0.5", "mode = f16", "seed = -1", "epochs = 0",
        "lr_max = nan", "lr_min = nan", "smooth = nan", "min_fg_frac = nan",
        "lr_max = inf", "smooth = inf",
        "lr_min = -0.01", "lr_min = -2\nlr_max = -1", "patches_per_epoch = -3",
        "min_fg_frac = -1",
    ])
    def test_out_of_range_settings_are_config_errors(self, text):
        """The message starts with the config key, not a dataclass field name."""
        key = text.partition(" =")[0]
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            parse_config(text)

    @pytest.mark.parametrize("build,key", [
        (lambda: TrainConfig(batch=0), "batch"),
        (lambda: TrainConfig(model="resnet"), "model"),
        (lambda: TrainConfig(mode="f16"), "mode"),
        (lambda: TrainConfig(lr_max=float("nan")), "lr_max"),
        (lambda: replace(TrainConfig(), patch=20), "patch"),
    ], ids=["batch", "model", "mode", "lr_max", "replace-patch"])
    def test_built_config_is_checked_like_a_parsed_one(self, build, key):
        with pytest.raises(ConfigError, match=rf"^{key}\b"):
            build()


class TestTrainState:
    def state_file(self, tmp_path):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        adam = AdamState(step=1)
        adam.m = {k: np.zeros(v.shape) for k, v in model.parameters().items()}
        adam.v = {k: np.ones(v.shape) for k, v in model.parameters().items()}
        snap = SnapshotSet()
        for val in (-0.1, -0.5, -0.3):
            snapshot_after_epoch(snap, val, model.parameters())
        path = tmp_path / "train_state.npz"
        save_train_state(str(path), model, adam, 2, snap)
        return path, model

    @pytest.mark.parametrize("drop", ["meta.step", "snapmeta::0", "snap0::"])
    def test_missing_entries_rejected(self, tmp_path, drop):
        path, model = self.state_file(tmp_path)
        with np.load(path) as data:
            kept = {k: data[k] for k in data.files if not k.startswith(drop)}
        np.savez(path, **kept)
        with pytest.raises(CheckpointError):
            load_train_state(str(path), model, AdamState(), SnapshotSet())

    def test_mutations_only_structured_errors(self, tmp_path):
        path, model = self.state_file(tmp_path)
        base = path.read_bytes()
        g = np.random.default_rng(17)
        crashes = []
        for case in range(300):
            buf = bytearray(base)
            if case % 2:  # flip random bytes anywhere
                for _ in range(int(g.integers(1, 8))):
                    buf[int(g.integers(len(buf)))] = int(g.integers(256))
            else:  # truncate
                buf = buf[: int(g.integers(0, len(buf)))]
            try:
                load_train_state(io.BytesIO(bytes(buf)), model, AdamState(),
                                 SnapshotSet())
            except CheckpointError:
                pass
            except Exception as exc:  # pragma: no cover - failure reporting
                crashes.append((case, type(exc).__name__, str(exc)[:80]))
        assert not crashes, f"unstructured failures: {crashes[:5]}"
