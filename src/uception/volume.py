"""Volumes on disk: the MetaImage (.mha/.mhd) subset.

A Volume is a 3-D scalar field ordered (depth, height, width) with
per-axis physical spacing in mm. MetaImage stores extents and spacing
x-fastest, so DimSize/ElementSpacing are reversed relative to Volume
axes; the binary payload is already C-order (z, y, x) and maps straight
through.

The parser never lets a malformed file escape as anything but a
MetaImageError: corrupt headers and short payloads are data, not bugs.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    MetaImageError,
    MetaImageMissingKey,
    MetaImagePayloadMismatch,
    MetaImageUnsupportedType,
    ShapeError,
)

ELEMENT_DTYPES = {
    "MET_UCHAR": "u1",
    "MET_SHORT": "i2",
    "MET_USHORT": "u2",
    "MET_FLOAT": "f4",
}

@dataclass
class Volume:
    """Scalar field (d, h, w) of float32 with spacing (sd, sh, sw) in mm."""

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3:
            raise ShapeError(f"volume data must be 3-axis, got ndim={self.data.ndim}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ShapeError(f"voxel spacing must be 3 positive reals, got {self.spacing}")

    @property
    def extents(self):
        return self.data.shape


@dataclass
class MetaImageHeader:
    ObjectType: str = "Image"
    NDims: int = 3
    DimSize: tuple[int, int, int] = (0, 0, 0)  # x, y, z as written in the file
    ElementType: str = "MET_FLOAT"
    ElementSpacing: tuple[float, float, float] = (1.0, 1.0, 1.0)  # x, y, z
    ElementByteOrderMSB: bool = False
    ElementDataFile: str = "LOCAL"
    spacing_present: bool = False  # whether ElementSpacing was in the file


def _parse_numbers(value, key, count, cast):
    """``count`` whitespace-separated entries of ``value``, each cast and
    required to be positive and finite."""
    parts = value.split()
    if len(parts) != count:
        raise MetaImageMissingKey(key, f"{key} needs {count} {cast.__name__} entries, "
                                       f"got {value!r}")
    try:
        out = tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise MetaImageMissingKey(key, f"{key} has a non-{cast.__name__} entry in "
                                       f"{value!r}") from exc
    # comparisons, not np.isfinite: a 400-digit integer entry must not overflow
    if not all(0 < v < math.inf for v in out):
        raise MetaImageMissingKey(key, f"{key} entries must be finite positive, got {out}")
    return out


def _parse_bool(value, key):
    v = value.strip().lower()
    if v in ("true", "1"):
        return True
    if v in ("false", "0"):
        return False
    raise MetaImageMissingKey(key, f"{key} must be True or False, got {value!r}")


def _split_header(blob):
    """Split MetaImage bytes into (header fields, the bytes after the
    ElementDataFile line), which are the payload when ElementDataFile is
    LOCAL. A repeated key keeps its last value."""
    fields = {}
    pos = 0
    while "ElementDataFile" not in fields:
        nl = blob.find(b"\n", pos)
        if nl < 0:
            raise MetaImageMissingKey("ElementDataFile",
                                      "header ended before ElementDataFile")
        line = blob[pos:nl]
        pos = nl + 1
        try:
            text = line.decode("ascii").strip().rstrip("\r")
        except UnicodeDecodeError as exc:
            raise MetaImageError(f"non-ASCII bytes in header line: {line[:40]!r}") from exc
        if not text:
            continue
        key, eq, value = (part.strip() for part in text.partition("="))
        if not eq:
            raise MetaImageError(f"malformed header line (no '='): {text[:60]!r}")
        if not key:
            raise MetaImageError(f"malformed header line (empty key): {text[:60]!r}")
        fields[key] = value
    return fields, blob[pos:]


def _parse_header(fields):
    """The checked MetaImageHeader that split header fields describe."""
    for key in ("NDims", "DimSize", "ElementType"):
        if key not in fields:
            raise MetaImageMissingKey(key)
    (ndims,) = _parse_numbers(fields["NDims"], "NDims", 1, int)
    if ndims != 3:
        raise MetaImageMissingKey("NDims", f"only NDims = 3 is supported, got {ndims}")
    header = MetaImageHeader(DimSize=_parse_numbers(fields["DimSize"], "DimSize", 3, int),
                             ElementType=fields["ElementType"],
                             ElementDataFile=fields["ElementDataFile"])
    if header.ElementType not in ELEMENT_DTYPES:
        raise MetaImageUnsupportedType(header.ElementType)
    if "ElementSpacing" in fields:
        header.ElementSpacing = _parse_numbers(fields["ElementSpacing"], "ElementSpacing",
                                               3, float)
        header.spacing_present = True
    if "ElementByteOrderMSB" in fields:
        header.ElementByteOrderMSB = _parse_bool(fields["ElementByteOrderMSB"],
                                                 "ElementByteOrderMSB")
    header.ObjectType = fields.get("ObjectType", header.ObjectType)
    return header


def _decode(header, payload):
    """The Volume a checked header and its payload bytes describe."""
    base = ELEMENT_DTYPES[header.ElementType]
    dtype = np.dtype((">" if header.ElementByteOrderMSB else "<") + base)
    nx, ny, nz = header.DimSize
    expected = nx * ny * nz * dtype.itemsize
    if len(payload) != expected:
        raise MetaImagePayloadMismatch(expected, len(payload))
    raw = np.frombuffer(payload, dtype=dtype).reshape(nz, ny, nx)
    sx, sy, sz = header.ElementSpacing
    return Volume(raw.astype(np.float32), (sz, sy, sx))


def _encode(volume, element_type, data_file):
    """(header bytes naming ``data_file``, little-endian payload bytes)."""
    if element_type not in ELEMENT_DTYPES:
        raise MetaImageUnsupportedType(element_type)
    d, h, w = volume.extents
    sd, sh, sw = volume.spacing
    header = (
        "ObjectType = Image\n"
        "NDims = 3\n"
        f"DimSize = {w} {h} {d}\n"
        f"ElementType = {element_type}\n"
        f"ElementSpacing = {sw!r} {sh!r} {sd!r}\n"
        "ElementByteOrderMSB = False\n"
        f"ElementDataFile = {data_file}\n"
    )
    dtype = np.dtype("<" + ELEMENT_DTYPES[element_type])
    if element_type == "MET_FLOAT":
        payload = np.ascontiguousarray(volume.data, dtype=dtype).tobytes()
    else:
        info = np.iinfo(dtype)
        clipped = np.clip(np.rint(volume.data), info.min, info.max)
        payload = clipped.astype(dtype).tobytes()
    return header.encode("ascii"), payload


def read_metaimage(blob):
    """Parse single-file (LOCAL payload) MetaImage bytes into (Volume,
    MetaImageHeader). A header naming an external payload file (the .mhd
    layout) is refused; load_metaimage reads that layout from disk.
    """
    if not isinstance(blob, (bytes, bytearray, memoryview)):
        raise MetaImageError(f"expected bytes, got {type(blob).__name__}")
    fields, payload = _split_header(bytes(blob))
    header = _parse_header(fields)
    if header.ElementDataFile != "LOCAL":
        raise MetaImageError(f"ElementDataFile = {header.ElementDataFile!r}: read_metaimage "
                             "takes a LOCAL payload only")
    return _decode(header, payload), header


def write_metaimage(volume, element_type="MET_FLOAT"):
    """Serialize a Volume as a single-file (LOCAL payload) MetaImage."""
    header, payload = _encode(volume, element_type, "LOCAL")
    return header + payload


def save_metaimage(volume, path, element_type="MET_FLOAT"):
    """Write .mha (LOCAL) or .mhd plus a sibling .raw, chosen by extension."""
    path = os.fspath(path)
    if path.endswith(".mhd"):
        raw_name = os.path.basename(path)[:-4] + ".raw"
        # the header line must give the same name back to load_metaimage
        if not (raw_name.isascii() and raw_name.isprintable()) or raw_name != raw_name.strip():
            raise MetaImageError(f"an ASCII MetaImage header cannot name {raw_name!r}")
        header, payload = _encode(volume, element_type, raw_name)
        with open(path, "wb") as fh:
            fh.write(header)
        with open(os.path.join(os.path.dirname(path) or ".", raw_name), "wb") as fh:
            fh.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(write_metaimage(volume, element_type))
    return path


def load_metaimage(path):
    """Read .mha or .mhd (+ sibling raw named by ElementDataFile)."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        fields, payload = _split_header(fh.read())
    data_file = fields["ElementDataFile"]
    # a payload outside this directory is refused before any other header fault is named
    if data_file != "LOCAL":
        if os.path.isabs(data_file) or ".." in data_file.replace("\\", "/").split("/"):
            raise MetaImageError(f"refusing non-relative ElementDataFile {data_file!r}")
        sibling = os.path.join(os.path.dirname(path) or ".", data_file)
        if not os.path.isfile(sibling):
            raise MetaImageError(f"external payload file not found: {sibling}")
        with open(sibling, "rb") as fh:
            payload = fh.read()
    header = _parse_header(fields)
    return _decode(header, payload), header


def volume_to_mask(volume):
    """Ground-truth convention: any value above 0.5 is foreground."""
    return volume.data > 0.5
