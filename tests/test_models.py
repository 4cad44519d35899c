"""Model assembly contracts: shapes, determinism, parameter tallies,
capacity matching, checkpoint format."""
import gc
import hashlib
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from uception import layers
from uception.errors import CheckpointError, ShapeError
from uception.layers import TRAIN, Context
from uception.metrics import soft_dice_backward
from uception.models import (
    CHECKPOINT_MAGIC,
    UceptionCfg,
    UNet3d,
    Uception,
    build_uception,
    build_unet3d_baseline,
    load_checkpoint,
    match_unet_widths,
    save_checkpoint,
)


def conv_params(k, i, o):
    return k ** 3 * i * o + o


def uception_tally(depth, levels, in_ch=1, out_ch=1):
    """Independent per-layer hand tally of the architecture definition."""
    total = conv_params(3, in_ch, depth)  # stem
    ch = depth
    skips = []
    for lv in range(levels):
        d = depth * 2 ** lv
        total += (4 * conv_params(1, ch, d)
                  + conv_params(5, d, d) + conv_params(7, d, d))
        ch = 4 * d
        skips.append(ch)
        total += (conv_params(3, ch, d) + conv_params(1, ch, d)
                  + conv_params(3, d, d))
        ch = ch + 2 * d
    d = depth * 2 ** levels
    total += 4 * conv_params(1, ch, d) + conv_params(5, d, d) + conv_params(7, d, d)
    ch = 4 * d
    for lv in reversed(range(levels)):
        d = depth * 2 ** lv
        cin = ch + skips[lv]
        total += 4 * conv_params(1, cin, d) + conv_params(5, d, d) + conv_params(7, d, d)
        ch = 4 * d
    total += conv_params(1, ch, out_ch)
    return total


def unet_tally(width, bottleneck_width, levels, in_ch=1, out_ch=1):
    """Independent per-layer hand tally of the U-net definition; the widths
    may be integer arrays, which broadcast."""
    total, ch = 0, in_ch
    for lv in range(levels):
        w = width * 2 ** lv
        total = total + conv_params(3, ch, w) + conv_params(3, w, w)
        ch = w
    wb = bottleneck_width
    total = total + conv_params(3, ch, wb) + conv_params(3, wb, wb)
    ch = wb
    for lv in reversed(range(levels)):
        w = width * 2 ** lv
        total = total + conv_params(3, ch + w, w) + conv_params(3, w, w)  # upsampled + skip
        ch = w
    return total + conv_params(1, ch, out_ch)


class TestUception:
    def test_parameter_count_matches_hand_tally(self):
        for depth, levels, in_ch, out_ch in ((10, 3, 1, 1), (4, 2, 1, 1), (2, 1, 1, 1),
                                             (3, 2, 2, 3), (5, 1, 1, 2)):
            cfg = UceptionCfg(base_depth=depth, levels=levels, input_channels=in_ch,
                              output_channels=out_ch)
            model = Uception(cfg)
            assert model.parameter_count() == uception_tally(depth, levels, in_ch, out_ch)

    def test_building_allocates_no_parameter(self):
        # 1.3e12 parameters: a tree is built and counted from its specs alone
        tracemalloc.start()
        try:
            count = Uception(UceptionCfg(base_depth=10_000, levels=2)).parameter_count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == uception_tally(10_000, 2)
        assert peak < 1_000_000

    def test_seeded_builds_are_bit_identical(self):
        cfg = UceptionCfg(base_depth=2, levels=1)
        a = build_uception(cfg, seed=11)
        b = build_uception(cfg, seed=11)
        for name, arr in a.parameters().items():
            assert np.array_equal(arr, b.parameters()[name]), name
        c = build_uception(cfg, seed=12)
        assert any(not np.array_equal(arr, c.parameters()[n])
                   for n, arr in a.parameters().items())

    def test_shape_contract_small(self):
        cfg = UceptionCfg(base_depth=2, levels=2, dropout_rate=0.1)
        model = build_uception(cfg, seed=0)
        x = np.random.default_rng(0).standard_normal((1, 1, 16, 16, 16))
        y = layers.call(model, x, Context())[0]
        assert y.shape == (1, 1, 16, 16, 16)
        assert 0.0 < y.min() and y.max() < 1.0

    def test_indivisible_extents_rejected(self):
        model = build_uception(UceptionCfg(base_depth=2, levels=2), seed=0)
        with pytest.raises(ShapeError):
            layers.call(model, np.zeros((1, 1, 10, 16, 16)), Context())

    def test_infer_deterministic_and_train_rate0_matches(self):
        cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.0)
        model = build_uception(cfg, seed=1)
        x = np.random.default_rng(1).standard_normal((1, 1, 8, 8, 8))
        y1 = layers.call(model, x, Context(mode="infer"))[0]
        y2 = layers.call(model, x, Context(mode="infer"))[0]
        assert np.array_equal(y1, y2)
        y3 = layers.call(model, x, Context(mode="train", rng=5))[0]
        assert np.array_equal(y1, y3)  # rate 0: dropout is identity

    def test_train_mode_deterministic_given_seed(self):
        cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.3)
        model = build_uception(cfg, seed=1)
        x = np.random.default_rng(2).standard_normal((1, 1, 8, 8, 8))
        a = layers.call(model, x, Context(mode="train", rng=9))[0]
        b = layers.call(model, x, Context(mode="train", rng=9))[0]
        c = layers.call(model, x, Context(mode="train", rng=10))[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_weight_model_outputs_half(self):
        cfg = UceptionCfg(base_depth=2, levels=1)
        model = Uception(cfg)  # all parameters stay zero
        x = np.random.default_rng(3).standard_normal((1, 1, 8, 8, 8))
        y = layers.call(model, x, Context())[0]
        assert np.allclose(y, 0.5)

    def test_skip_path_alone_carries_input_signal(self):
        # zero every decoder weight column that reads the upsampled
        # (non-skip) channels; encoder features must still reach the head
        cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.0)
        model = build_uception(cfg, seed=4, dtype=np.float64)
        stages = dict(model._stages)
        below = stages["bottleneck.deep"]  # the stage whose output each decoder upsamples
        for lv in reversed(range(cfg.levels)):
            deep = stages[f"dec{lv}.deep"]
            for name, arr in layers.parameters(deep).items():
                if name.endswith("conv1.w"):  # the branch convs that read the block input
                    arr[:, :below.out_channels] = 0.0
            below = deep
        x = np.random.default_rng(5).standard_normal((1, 1, 8, 8, 8))
        y, cache = model.forward(x, Context(mode=TRAIN))  # dropout 0: no rng needed
        grads = {}
        gx = model.backward(np.ones_like(y), cache, grads)
        assert np.abs(gx).max() > 0.0


def _strided_inputs():
    """Non-C-contiguous (1, 1, 8, 8, 8) f32 inputs: a strided slice of a
    larger array, two swapped axes and a Fortran-ordered copy."""
    g = np.random.default_rng(4)
    big = g.standard_normal((2, 1, 16, 16, 16)).astype(np.float32)
    x = g.standard_normal((1, 1, 8, 8, 8)).astype(np.float32)
    return {"slice": big[1:, :, ::2, 1::2, ::2], "swapped": np.swapaxes(x, 2, 4),
            "fortran": np.asfortranarray(x)}


@pytest.mark.parametrize("build", [build_uception, build_unet3d_baseline])
@pytest.mark.parametrize("mode", ["infer", "train"])
def test_forward_of_a_strided_input_matches_its_contiguous_copy(build, mode):
    model = build(UceptionCfg(base_depth=2, levels=1, dropout_rate=0.25), seed=3)
    for name, x in _strided_inputs().items():
        assert not x.flags.c_contiguous, name
        got = layers.call(model, x, Context(mode=mode, rng=5))[0]
        want = layers.call(model, np.ascontiguousarray(x), Context(mode=mode, rng=5))[0]
        assert got.tobytes() == want.tobytes(), name


class TestStepMemory:
    """Traced peak of one desk TRAIN step (depth 4, 2 levels, batch 2,
    16-cube, float32), forward and backward. ReLU and dropout keep 1-byte
    caches, the conv scratch is one batch item's and the pool backward runs
    one slab of planes at a time; the bounds are the measured peaks (about
    15.4 and 9.1 MiB) with a few percent to spare."""

    @pytest.mark.parametrize("build, bound_mib", [
        (build_uception, 16.0), (build_unet3d_baseline, 10.5)])
    def test_train_step_peak(self, build, bound_mib):
        model = build(UceptionCfg(base_depth=4, levels=2, dropout_rate=0.18), seed=0)
        g = np.random.default_rng(13)
        x = g.standard_normal((2, 1, 16, 16, 16)).astype(np.float32)
        truth = g.random(x.shape) < 0.3

        def step():
            y, cache = model.forward(x, Context(mode=TRAIN, rng=17))
            model.backward(soft_dice_backward(y, truth, 1.0), cache, {})

        step()  # the first call's one-off allocations stay out of the figure
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20


class TestParameterWalk:
    def test_walk_reaches_every_conv_in_build_order(self):
        model = build_uception(UceptionCfg(base_depth=2, levels=1), seed=0)
        names = [layer.name for layer in layers.walk(model)
                 if isinstance(layer, layers.Conv3d)]
        assert names[0] == "stem.conv" and names[-1] == "head.conv"
        assert list(model.parameters()) == [
            f"{n}.{p}" for n in names for p in ("w", "b")]

    @pytest.mark.parametrize("cls", [Uception, UNet3d])
    @pytest.mark.parametrize("depth, levels", [(4, 2), (2, 3)])
    def test_stages_hold_the_tree_convs_in_order(self, cls, depth, levels):
        # the stage list the benchmark times by and the layer tree stay in step
        model = cls(UceptionCfg(base_depth=depth, levels=levels))

        def convs(root):
            return [layer for layer in layers.walk(root) if isinstance(layer, layers.Conv3d)]

        assert [conv for _, stage in model._stages for conv in convs(stage)] == convs(model)

    @pytest.mark.parametrize("build", [build_uception, build_unet3d_baseline])
    def test_count_is_the_size_of_the_allocated_parameters(self, build):
        model = build(UceptionCfg(base_depth=4, levels=2), seed=0)
        assert model.parameter_count() == sum(p.size for p in model.parameters().values())

    @pytest.mark.parametrize("cls", [Uception, UNet3d])
    def test_a_dropped_model_is_freed_at_once(self, cls):
        # no reference cycle: its arrays go when the last reference does,
        # not at the next cycle collection
        gc.disable()
        try:
            ref = weakref.ref(cls(UceptionCfg(base_depth=2, levels=2)))
            assert ref() is None
        finally:
            gc.enable()

    def test_duplicate_parameter_name_rejected(self):
        chain = layers.Chain([layers.conv_unit("same", 1, 1, 1),
                              layers.conv_unit("same", 1, 1, 1)])
        with pytest.raises(ShapeError, match="duplicate parameter name same.w"):
            layers.parameters(chain)


class TestUnetBaseline:
    @pytest.mark.parametrize("depth,levels,in_ch,out_ch", [
        (2, 1, 1, 1), (4, 2, 1, 1), (3, 2, 2, 3), (5, 1, 1, 2)])
    def test_parameter_count_matches_hand_tally(self, depth, levels, in_ch, out_ch):
        cfg = UceptionCfg(base_depth=depth, levels=levels, input_channels=in_ch,
                          output_channels=out_ch)
        for w, wb in ((1, 1), (2, 7), (5, 3), (11, 56)):
            assert (UNet3d(cfg, w, wb).parameter_count()
                    == unet_tally(w, wb, levels, in_ch, out_ch)), (w, wb)

    @pytest.mark.parametrize("depth,levels", [(10, 3), (4, 2), (2, 1)])
    def test_capacity_within_ten_percent(self, depth, levels):
        cfg = UceptionCfg(base_depth=depth, levels=levels)
        target = Uception(cfg).parameter_count()
        unet = build_unet3d_baseline(cfg, seed=0)
        rel = abs(unet.parameter_count() - target) / target
        assert rel <= 0.10, (unet.parameter_count(), target)

    def test_shape_contract_matches_uception(self):
        cfg = UceptionCfg(base_depth=2, levels=2, dropout_rate=0.1)
        unet = build_unet3d_baseline(cfg, seed=0)
        x = np.random.default_rng(6).standard_normal((1, 1, 16, 16, 16))
        y = layers.call(unet, x, Context())[0]
        assert y.shape == (1, 1, 16, 16, 16)
        assert 0.0 < y.min() and y.max() < 1.0


def exhaustive_unet_widths(cfg, target):
    """Count every (width, bottleneck width) pair the matcher may pick at
    once; the first minimal error in scan order (width, then bottleneck)
    wins, as ties keep the first pair."""
    w = np.arange(1, 257, dtype=np.int64)[:, None]
    nominal = w * 2 ** cfg.levels
    lo = np.maximum(1, nominal // 2)
    hi = np.maximum(lo + 1, nominal * 2)
    wb = np.arange(1, hi.max() + 1, dtype=np.int64)[None, :]
    err = np.abs(unet_tally(w, wb, cfg.levels, cfg.input_channels, cfg.output_channels)
                 - target)
    err = np.where((wb >= lo) & (wb <= hi), err, np.iinfo(np.int64).max)
    i, j = np.unravel_index(np.argmin(err), err.shape)
    return int(w[i, 0]), int(wb[0, j])


class TestMatchUnetWidths:
    def test_desk_and_default_configs_pinned(self):
        desk = UceptionCfg(base_depth=4, levels=2, dropout_rate=0.18)
        assert match_unet_widths(desk, Uception(desk).parameter_count()) == (11, 56)
        default = UceptionCfg()
        assert match_unet_widths(default, Uception(default).parameter_count()) == (31, 247)

    @pytest.mark.parametrize("depth,levels,in_ch,out_ch", [
        (2, 1, 1, 1), (4, 2, 1, 1), (3, 2, 2, 3), (5, 1, 1, 2)])
    def test_matches_exhaustive_scan(self, depth, levels, in_ch, out_ch):
        cfg = UceptionCfg(base_depth=depth, levels=levels, input_channels=in_ch,
                          output_channels=out_ch)
        # one below the smallest pair of width 5 is nearest to that pair,
        # though its count is already past the target
        lo5 = max(1, 5 * 2 ** levels // 2)
        near5 = unet_tally(5, lo5, levels, in_ch, out_ch) - 1
        for target in (Uception(cfg).parameter_count(), 1, near5, 3_000_000):
            assert match_unet_widths(cfg, target) == exhaustive_unet_widths(cfg, target)


def with_record(blob, old, new):
    """blob with old replaced by new in its UCPT config record."""
    (n,) = struct.unpack("<I", blob[8:12])
    record = blob[12:12 + n].replace(old, new)
    assert record != blob[12:12 + n]
    return blob[:8] + struct.pack("<I", len(record)) + record + blob[12 + n:]


class TestCheckpoint:
    def test_roundtrip_preserves_parameters(self, tmp_path):
        cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.2)
        model = build_uception(cfg, seed=8)
        path = tmp_path / "model.ucpt"
        save_checkpoint(model, str(path))
        back = load_checkpoint(str(path))
        assert back.kind == "uception"
        assert back.cfg == cfg
        for name, arr in model.parameters().items():
            assert np.array_equal(back.parameters()[name],
                                  arr.astype(np.float32)), name

    def test_unet_roundtrip_restores_widths(self, tmp_path):
        cfg = UceptionCfg(base_depth=2, levels=1)
        unet = build_unet3d_baseline(cfg, seed=9)
        blob = save_checkpoint(unet)
        back = load_checkpoint(blob)
        assert isinstance(back, UNet3d)
        assert back.width == unet.width
        assert back.bottleneck_width == unet.bottleneck_width

    def test_byte_layout_starts_with_magic_and_version(self):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        blob = save_checkpoint(model)
        assert blob[:4] == CHECKPOINT_MAGIC
        assert struct.unpack("<I", blob[4:8])[0] == 1

    @pytest.mark.parametrize("kind,depth,levels,extra", [
        ("uception", 100000, 2, ""),
        ("uception", 4, 10 ** 9, ""),
        ("unet3d", 4, 2, "width = 100000\nbottleneck_width = 9\n"),
    ])
    def test_record_beyond_the_file_is_refused_before_the_model_is_built(
            self, kind, depth, levels, extra):
        # a few hundred bytes whose record implies GBs of parameters
        record = (f"kind = {kind}\ndepth = {depth}\nlevels = {levels}\ndropout = 0.1\n"
                  f"in_channels = 1\nout_channels = 1\n{extra}").encode()
        blob = (CHECKPOINT_MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(record))
                + record + struct.pack("<I", 0) + bytes(200))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="implies at least"):
                load_checkpoint(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_truncated_checkpoint_rejected(self):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        blob = save_checkpoint(model)
        with pytest.raises(CheckpointError):
            load_checkpoint(blob[:-7])

    def test_trailing_garbage_rejected(self):
        model = build_uception(UceptionCfg(base_depth=1, levels=1), seed=0)
        blob = save_checkpoint(model)
        with pytest.raises(CheckpointError):
            load_checkpoint(blob + b"xx")

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError):
            load_checkpoint(b"NOPE" + b"\x00" * 40)

    def first_name_offset(self, blob):
        (cfg_len,) = struct.unpack("<I", blob[8:12])
        return 12 + cfg_len + 8  # past the record, the count and the name length

    def test_non_utf8_bytes_rejected(self):
        blob = save_checkpoint(build_uception(UceptionCfg(base_depth=1, levels=1),
                                              seed=0))
        for pos in (12, self.first_name_offset(blob)):  # config record, name
            bad = bytearray(blob)
            bad[pos] = 0xFF
            with pytest.raises(CheckpointError, match="utf-8|do not match"):
                load_checkpoint(bytes(bad))

    def test_rank_above_five_rejected(self):
        blob = save_checkpoint(build_uception(UceptionCfg(base_depth=1, levels=1),
                                              seed=0))
        pos = self.first_name_offset(blob)
        pos += struct.unpack("<I", blob[pos - 4:pos])[0]
        bad = blob[:pos] + struct.pack("<I", 210) + blob[pos + 4:]
        with pytest.raises(CheckpointError, match="rank 210"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("old,new", [
        (b"levels = 1", b"levels = 0"),  # UceptionCfg's own range checks
        (b"dropout = 0.25", b"dropout = 2.25"),
        (b"kind = uception", b"kind = resnet"),
        (b"depth = 1", b"depth = one"),
        (b"levels = 1\n", b"levels 1\n"),
        (b"out_channels = 1\n", b""),
    ], ids=["levels-0", "dropout-2.25", "unknown-kind", "uncastable", "no-equals",
            "missing-key"])
    def test_bad_config_record_rejected(self, old, new):
        blob = save_checkpoint(build_uception(UceptionCfg(base_depth=1, levels=1),
                                              seed=0))
        with pytest.raises(CheckpointError):
            load_checkpoint(with_record(blob, old, new))

    def test_unet_record_without_width_rejected(self):
        blob = save_checkpoint(build_unet3d_baseline(UceptionCfg(base_depth=1, levels=1)))
        (n,) = struct.unpack("<I", blob[8:12])
        width_line = next(line for line in blob[12:12 + n].splitlines(keepends=True)
                          if line.startswith(b"width ="))
        with pytest.raises(CheckpointError, match="width"):
            load_checkpoint(with_record(blob, width_line, b""))

    def test_non_finite_weight_rejected_by_name(self):
        blob = save_checkpoint(build_uception(UceptionCfg(base_depth=1, levels=1),
                                              seed=0))
        bad = blob[:-4] + struct.pack("<f", np.inf)  # the last parameter's last value
        with pytest.raises(CheckpointError, match="head.conv.b"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("build", [build_uception, build_unet3d_baseline])
    def test_one_byte_mutations_load_finite_or_raise(self, build):
        blob = save_checkpoint(build(UceptionCfg(base_depth=2, levels=1), seed=0))
        g = np.random.default_rng(3)
        crashes = []
        for case in range(1500):
            buf = bytearray(blob)
            buf[int(g.integers(len(buf)))] = int(g.integers(256))
            try:
                model = load_checkpoint(bytes(buf))
            except CheckpointError:
                continue
            except Exception as exc:  # pragma: no cover - failure reporting
                crashes.append((case, type(exc).__name__, str(exc)[:80]))
                continue
            if not all(np.isfinite(a).all() for a in model.parameters().values()):
                crashes.append((case, "non-finite weights loaded", ""))
        assert not crashes, f"unstructured failures: {crashes[:5]}"

    def test_save_load_forward_agreement(self, tmp_path):
        cfg = UceptionCfg(base_depth=2, levels=1, dropout_rate=0.0)
        model = build_uception(cfg, seed=10, dtype=np.float32)
        blob = save_checkpoint(model)
        back = load_checkpoint(blob)
        x = np.random.default_rng(11).standard_normal((1, 1, 8, 8, 8))
        assert np.array_equal(layers.call(model, x, Context())[0],
                              layers.call(back, x, Context())[0])


class TestGoldenCheckpoint:
    """Pins the exact UCPT bytes and stage order of the desk config, so a
    change to how the models are assembled cannot move a checkpoint."""

    DESK = UceptionCfg(base_depth=4, levels=2, dropout_rate=0.18)

    @pytest.mark.parametrize("build,size,tensors,sha256,stages", [
        (build_uception, 858_921, 76,
         "e055d7be24db7f2529245b711a2a9dad858a0f6b335c8cf71b535a3314f45066",
         ["stem", "enc0.deep", "enc0.red", "enc1.deep", "enc1.red", "bottleneck.deep",
          "dec1.deep", "dec0.deep", "head"]),
        (build_unet3d_baseline, 856_182, 22,
         "c3ac5cc31497b8cb4e6fe303584a7d0fd80ad0b2c11c69d833ca8af8ba27125c",
         ["enc0", "enc1", "bottleneck", "dec1", "dec0", "head"]),
    ])
    def test_desk_checkpoint_bytes_and_stages(self, build, size, tensors, sha256, stages):
        model = build(self.DESK, seed=0, dtype=np.float32)
        blob = save_checkpoint(model)
        assert len(blob) == size
        assert len(model.parameters()) == tensors
        assert hashlib.sha256(blob).hexdigest() == sha256
        assert [name for name, _ in model._stages] == stages
