"""Whole-network assembly: one U-net encoder-decoder skeleton, the
Uception and a plain 3D U-net baseline sized to matching capacity built
on it, the table of model kinds, the flat "key = value" record codec that
the training config shares, and the binary checkpoint format.

A model is a ``layers.Chain`` whose skip connections are two-member
``layers.Concat`` layers, so it runs, and is walked, like any other layer.
That tree is the only description of a network: parameter counts, the
U-net's width match and the checkpoint reader's size check all walk it.
Its convs allocate their parameters on first use, so building and counting
a model takes no parameter memory.

Checkpoint layout (version 1, all integers little-endian):

    bytes 0..3   magic "UCPT"
    u32          format version (1)
    u32          length of the config record, then that many bytes of
                 UTF-8 "key = value" lines: kind, then the CFG_KEYS fields,
                 then the kind's record_fields (the U-net's width and
                 bottleneck_width)
    u32          number of parameters
    per parameter, in order:
        u32      name length, then the UTF-8 name
        u32      rank, then rank x u32 extents
        raw      extent-product float32 values, little-endian, C order
"""
from __future__ import annotations

import bisect
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import layers
from .blocks import DeepBlock, ReductionBlock
from .errors import CheckpointError, ConfigError, ShapeError
from .layers import Chain, Concat, Conv3d, MaxPool3d, Sigmoid, UpsampleNearest, conv_unit
from .ops import SAME, ConvSpec
from .tensor import AXES

CHECKPOINT_MAGIC = b"UCPT"
CHECKPOINT_VERSION = 1
MAX_RANK = 5  # conv weights: (out, in, kd, kh, kw)


# UCPT record key -> UceptionCfg field, in record order; TrainConfig uses the same keys
CFG_KEYS = {"depth": "base_depth", "levels": "levels", "dropout": "dropout_rate",
            "in_channels": "input_channels", "out_channels": "output_channels"}


@dataclass(frozen=True)
class UceptionCfg:
    base_depth: int = 10
    levels: int = 3
    dropout_rate: float = 0.25
    input_channels: int = 1
    output_channels: int = 1

    def __post_init__(self):
        if self.levels < 1:
            raise ShapeError(f"levels must be >= 1, got {self.levels}")
        if self.base_depth < 1:
            raise ShapeError(f"depth (base_depth) must be >= 1, got {self.base_depth}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ShapeError(f"dropout (dropout_rate) must be in [0, 1), "
                             f"got {self.dropout_rate}")

    @classmethod
    def from_record(cls, values):
        """Settings from a mapping keyed like CFG_KEYS; absent keys keep defaults."""
        return cls(**{f: values[k] for k, f in CFG_KEYS.items() if k in values})

    def check_patch(self, patch):
        """A patch edge must be positive and halve evenly at every level."""
        if patch < 1 or patch % 2 ** self.levels:
            raise ConfigError(f"patch extent {patch} is not a positive multiple of "
                              f"2^levels = {2 ** self.levels}")


class _Input:
    """The model's first layer: casts the input to the model's dtype and
    checks its frame (5 axes, the configured channel count, every extent
    divisible by 2^levels); backward passes the gradient through."""

    def __init__(self, cfg, dtype):
        self.cfg = cfg
        self.dtype = dtype

    def forward(self, x, ctx):
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 5:
            raise ShapeError(f"model input must be 5-axis, got ndim={x.ndim}")
        if x.shape[1] != self.cfg.input_channels:
            raise ShapeError(
                f"model input has {x.shape[1]} channels, expected {self.cfg.input_channels}",
                axis="channel",
            )
        div = 2 ** self.cfg.levels
        for ax, ext in zip(AXES[2:], x.shape[2:]):
            if ext % div:
                raise ShapeError(
                    f"input extent {ext} on axis {ax!r} is not divisible by 2^levels={div}",
                    axis=ax,
                )
        return x, None

    def backward(self, grad_out, cache, grads):
        return grad_out


class _ModelBase(Chain):
    """The U-net skeleton both models share, plus naming, init and
    parameter access.

    The constructor builds the skeleton from three parts a subclass
    supplies. ``stem`` is a (stage name, layer, output channels) triple, or
    None for an identity stem. ``deep(name, ch, lv)`` and
    ``down(name, ch, lv)`` build the stage at level ``lv`` on ``ch`` input
    channels and return the same kind of triple; ``name`` is the stage's
    place ("enc0", "bottleneck", "dec0"). A stage named None owns no
    parameters and is not listed in ``_stages``.

    The model is a Chain of the input check, the stem, level 0, the 1-cube
    ``head`` conv and a sigmoid. Level ``lv`` is its encoder deep stage, its
    skip connection and its decoder deep stage, in the Chain that holds it;
    the skip connection is a Concat of the path down (a Chain of the down
    stage, level ``lv + 1`` and a nearest upsample) and the identity, so the
    decoder reads the upsampled features followed by the encoder features.
    The innermost level, ``levels``, is the bottleneck deep stage alone.
    Levels are not wrapped in Chains of their own: a wrapper's caller would
    keep the level's input (forward) or output gradient (backward) alive
    while the whole level runs.
    """

    record_fields = {}  # constructor arguments the UCPT record stores, with types

    def __init__(self, cfg, dtype, stem, deep, down):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self._stages = []  # ordered (name, layer) pairs, encoder to head

        def stage(name, layer, ch):
            if name is not None:
                self._stages.append((name, layer))
            return layer, ch

        stem, ch = stage(*stem) if stem else (Chain([]), cfg.input_channels)
        encoder = []  # (deep, down, skip channels) per level
        for lv in range(cfg.levels):
            enc, skip_ch = stage(*deep(f"enc{lv}", ch, lv))
            pool, ch = stage(*down(f"enc{lv}", skip_ch, lv))
            encoder.append((enc, pool, skip_ch))
        bottleneck, ch = stage(*deep("bottleneck", ch, cfg.levels))
        body = [bottleneck]
        # each level wraps the one below, built inside out by a loop: a recursive
        # local function would hold the model in a reference cycle
        for lv in reversed(range(cfg.levels)):
            enc, pool, skip_ch = encoder[lv]
            skip = Concat([Chain([pool, *body, UpsampleNearest()]), Chain([])])
            dec, ch = stage(*deep(f"dec{lv}", ch + skip_ch, lv))
            body = [enc, skip, dec]
        spec = ConvSpec(ch, cfg.output_channels, (1, 1, 1), (1, 1, 1), SAME)
        head, _ = stage("head", Conv3d("head.conv", spec, dtype=self.dtype), None)
        super().__init__([_Input(cfg, self.dtype), stem, *body, head, Sigmoid()])

    def init_params(self, seed):
        return layers.init_params(self, np.random.default_rng(seed))

    def parameters(self):
        """Stable name -> live array mapping, in build order."""
        return layers.parameters(self)

    def parameter_count(self):
        return layers.parameter_count(self)

    def set_parameters(self, values):
        params = self.parameters()
        missing = set(params) - set(values)
        extra = set(values) - set(params)
        if missing or extra:
            raise CheckpointError(
                f"parameter names do not match model: missing={sorted(missing)[:3]} "
                f"extra={sorted(extra)[:3]}"
            )
        for name, arr in params.items():
            v = np.asarray(values[name])
            if v.shape != arr.shape:
                raise CheckpointError(
                    f"parameter {name}: shape {v.shape} does not match {arr.shape}"
                )
            arr[...] = v.astype(arr.dtype)
        return self


class Uception(_ModelBase):
    """Inception-style blocks inside a U-net-shaped encoder-decoder.

    A 3-cube stem conv, then per encoder level l a DeepBlock (branch depth
    D * 2^l) whose output feeds the skip and a ReductionBlock down. The
    bottleneck is a DeepBlock at branch depth D * 2^L, and each decoder
    level is a DeepBlock at the encoder's branch depth.
    """

    kind = "uception"

    def __init__(self, cfg: UceptionCfg, dtype=np.float32):
        d, r = cfg.base_depth, cfg.dropout_rate

        def stage(cls, suffix):
            def build(name, ch, lv):
                name = f"{name}.{suffix}"
                block = cls(name, ch, d * 2 ** lv, r, dtype)
                return name, block, block.out_channels
            return build

        stem = conv_unit("stem.conv", cfg.input_channels, d, 3, dropout_rate=r, dtype=dtype)
        super().__init__(cfg, dtype, ("stem", stem, d),
                         stage(DeepBlock, "deep"), stage(ReductionBlock, "red"))


class UNet3d(_ModelBase):
    """Plain 3D U-net: two 3-cube convolutions per level, 2-cube max-pool
    down, nearest upsample plus skip concat up, 1-cube sigmoid head.
    Without widths it is sized to the Uception's parameter count for cfg."""

    kind = "unet3d"
    record_fields = {"width": int, "bottleneck_width": int}

    def __init__(self, cfg: UceptionCfg, width=None, bottleneck_width=None,
                 dtype=np.float32):
        if width is None:
            width, bottleneck_width = match_unet_widths(
                cfg, Uception(cfg).parameter_count())
        self.width = int(width)
        self.bottleneck_width = int(bottleneck_width)
        r = cfg.dropout_rate

        def pair(name, ch, lv):
            w = self.bottleneck_width if lv == cfg.levels else self.width * 2 ** lv
            return name, Chain([
                conv_unit(f"{name}.conv_a", ch, w, 3, dropout_rate=r, dtype=dtype),
                conv_unit(f"{name}.conv_b", w, w, 3, dropout_rate=r, dtype=dtype),
            ]), w

        # the pools own no parameters, so they are no stages
        super().__init__(cfg, dtype, None, pair, lambda name, ch, lv: (None, MaxPool3d(), ch))


# every model kind, by the name a config or a UCPT record gives it
KINDS = {cls.kind: cls for cls in (Uception, UNet3d)}


def build_uception(cfg: UceptionCfg, seed=0, dtype=np.float32):
    """Construct and He-initialize a Uception; same seed, same bits."""
    return Uception(cfg, dtype=dtype).init_params(seed)


def match_unet_widths(cfg: UceptionCfg, target_params):
    """Pick (width, bottleneck_width) whose parameter count lands nearest
    the target; the bottleneck width is the fine-tuning knob.

    The count rises strictly in both widths. So per width a bisection finds
    the first bottleneck width at or past the target, and only it and the
    one before can be nearest; the scan over widths stops once the smallest
    pair of a width is past the target by the best error so far. Ties keep
    the first pair in (width, bottleneck width) order.
    """
    def count(w, wb):
        return UNet3d(cfg, w, wb).parameter_count()

    best = None  # (error, width, bottleneck width)
    for w in range(1, 257):
        nominal = w * 2 ** cfg.levels
        lo = max(1, nominal // 2)
        wbs = range(lo, max(lo + 1, nominal * 2) + 1)
        if best is not None and count(w, lo) - target_params >= best[0]:
            break
        first = bisect.bisect_left(wbs, target_params, key=lambda wb: count(w, wb))
        for wb in wbs[max(0, first - 1):first + 1]:  # the last short, the first not
            err = abs(count(w, wb) - target_params)
            if best is None or err < best[0]:
                best = (err, w, wb)
    _, w, wb = best
    return w, wb


def build_unet3d_baseline(cfg: UceptionCfg, seed=0, dtype=np.float32):
    """3D U-net with widths auto-scaled to Uception's parameter count
    (within ten percent) for the same cfg."""
    return UNet3d(cfg, dtype=dtype).init_params(seed)


# ---------------------------------------------------------------------------
# the flat "key = value" record and checkpoint serialization


def read_record(text, types):
    """'key = value' lines -> {key: value cast by types[key]}; '#' starts a comment,
    a repeated key keeps its last value, an unknown key lists the valid ones and
    a float must be finite."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}; valid keys: "
                              + ", ".join(sorted(types)))
        try:
            values[key] = types[key](value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} as "
                              f"{types[key].__name__}") from exc
        if types[key] is float and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    return values


def format_record(pairs):
    """The inverse of read_record: one 'key = value' line per (key, value) pair."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)


# every key a UCPT config record may hold, with the type its value is cast to
_RECORD_TYPES = {"kind": str,
                 **{k: type(getattr(UceptionCfg(), f)) for k, f in CFG_KEYS.items()},
                 **{k: t for cls in KINDS.values() for k, t in cls.record_fields.items()}}


def _model_from_record(blob, dtype, budget):
    """The unloaded model a config record describes. It is refused before
    any parameter is allocated when its parameters need more than the
    ``budget`` bytes the file has left; every fault is CheckpointError."""
    try:
        got = read_record(blob.decode("utf-8"), _RECORD_TYPES)
        cls = KINDS.get(got.get("kind"))
        if cls is None:
            raise CheckpointError(f"unknown model kind {got.get('kind')!r}")
        cfg = UceptionCfg(**{f: got[k] for k, f in CFG_KEYS.items()})
        # every model of L levels holds at least 4^L parameters (its deepest
        # convs have 2^L-fold widths), 2^(2L + 2) bytes; bounding L first keeps
        # a huge one from building a tree of that many levels
        if 2 * cfg.levels + 2 >= budget.bit_length():
            raise CheckpointError(f"config record implies at least 4^{cfg.levels} "
                                  f"parameters, but {budget} bytes follow it")
        model = cls(cfg, dtype=dtype, **{k: got[k] for k in cls.record_fields})
        count = model.parameter_count()
        if 4 * count > budget:
            raise CheckpointError(f"config record implies at least {count} parameters "
                                  f"({4 * count} bytes), but {budget} bytes follow it")
        return model
    except (UnicodeDecodeError, KeyError, ConfigError, ShapeError) as exc:
        raise CheckpointError(f"bad checkpoint config record "
                              f"({type(exc).__name__}: {exc})") from exc


def save_checkpoint(model, path=None):
    """Serialize parameters as little-endian float32 in the UCPT layout."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    record = format_record([("kind", model.kind),
                            *((k, getattr(model.cfg, f)) for k, f in CFG_KEYS.items()),
                            *((k, getattr(model, k)) for k in model.record_fields)]
                           ).encode("utf-8")
    buf.write(struct.pack("<I", len(record)))
    buf.write(record)
    params = model.parameters()
    buf.write(struct.pack("<I", len(params)))
    for name, arr in params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    blob = buf.getvalue()
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(blob)
    return blob


def load_checkpoint(source, dtype=np.float32):
    """Rebuild the model a checkpoint describes and load its parameters."""
    if isinstance(source, bytes):
        blob = source
    else:
        with open(source, "rb") as fh:
            blob = fh.read()
    view = memoryview(blob)
    pos = 0

    def take(n):
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError("checkpoint truncated")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != CHECKPOINT_MAGIC:
        raise CheckpointError("not a UCPT checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4))
    record = bytes(take(cfg_len))
    model = _model_from_record(record, dtype, budget=len(view) - pos)
    (n_params,) = struct.unpack("<I", take(4))
    values = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4))
        # a name that is not UTF-8 matches no parameter: set_parameters rejects it
        name = bytes(take(name_len)).decode("utf-8", "replace")
        (ndim,) = struct.unpack("<I", take(4))
        if ndim > MAX_RANK:
            raise CheckpointError(f"parameter {name!r}: rank {ndim} above {MAX_RANK}")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = math.prod(shape)
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
        if not np.isfinite(data).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        values[name] = data
    if pos != len(view):
        raise CheckpointError(f"{len(view) - pos} trailing bytes after last parameter")
    model.set_parameters(values)
    return model
