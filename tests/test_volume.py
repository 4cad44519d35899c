"""MetaImage round trips, golden writer bytes, plus the mutation fuzz:
corrupt input must always surface as a structured parser error, never a
crash."""
import hashlib

import numpy as np
import pytest

from uception.errors import (
    MetaImageError,
    MetaImageMissingKey,
    MetaImagePayloadMismatch,
    MetaImageUnsupportedType,
)
from uception.volume import (
    Volume,
    load_metaimage,
    read_metaimage,
    save_metaimage,
    volume_to_mask,
    write_metaimage,
)


def random_volume(seed=0, shape=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    data = np.random.default_rng(seed).random(shape).astype(np.float32)
    return Volume(data, spacing)


class TestRoundTrip:
    def test_float_roundtrip_bitexact(self):
        vol = random_volume(1, (8, 8, 8), (0.5, 0.5, 0.8))
        blob = write_metaimage(vol, "MET_FLOAT")
        back, header = read_metaimage(blob)
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing
        assert header.ElementType == "MET_FLOAT"
        assert header.spacing_present

    def test_uchar_values_widen_to_reals(self):
        data = np.arange(256, dtype=np.float32).reshape(4, 8, 8)
        blob = write_metaimage(Volume(data, (1, 1, 1)), "MET_UCHAR")
        back, _ = read_metaimage(blob)
        assert back.data.min() == 0.0 and back.data.max() == 255.0
        assert np.array_equal(back.data, data)

    def test_short_and_ushort_roundtrip(self):
        data = np.array([[-5, 0], [7, 300]], dtype=np.float32).reshape(1, 2, 2)
        blob = write_metaimage(Volume(data, (1, 1, 1)), "MET_SHORT")
        back, _ = read_metaimage(blob)
        assert np.array_equal(back.data, data)
        blob = write_metaimage(Volume(np.abs(data), (1, 1, 1)), "MET_USHORT")
        back, _ = read_metaimage(blob)
        assert np.array_equal(back.data, np.abs(data))

    def test_big_endian_payload(self):
        vol = random_volume(2, (2, 3, 4))
        blob = write_metaimage(vol)
        # flip the declared byte order and swap the payload to match
        head, _, payload = blob.partition(b"ElementDataFile = LOCAL\n")
        head = head.replace(b"ElementByteOrderMSB = False",
                            b"ElementByteOrderMSB = True")
        be = np.frombuffer(payload, "<f4").astype(">f4").tobytes()
        back, header = read_metaimage(head + b"ElementDataFile = LOCAL\n" + be)
        assert header.ElementByteOrderMSB
        assert np.array_equal(back.data, vol.data)

    def test_dimsize_is_x_fastest(self):
        vol = random_volume(3, (2, 3, 4))  # (d, h, w)
        blob = write_metaimage(vol)
        _, header = read_metaimage(blob)
        assert header.DimSize == (4, 3, 2)  # x, y, z

    def test_mhd_raw_sibling(self, tmp_path):
        vol = random_volume(4, (5, 4, 3), (2.0, 1.0, 0.5))
        path = tmp_path / "vol.mhd"
        save_metaimage(vol, str(path))
        assert (tmp_path / "vol.raw").exists()
        back, _ = load_metaimage(str(path))
        assert np.array_equal(back.data, vol.data)
        assert back.spacing == vol.spacing

    def test_mha_local_file(self, tmp_path):
        vol = random_volume(5)
        path = tmp_path / "vol.mha"
        save_metaimage(vol, str(path))
        back, _ = load_metaimage(str(path))
        assert np.array_equal(back.data, vol.data)


def golden_volume():
    """Negative, fractional and out-of-integer-range values, non-unit spacing."""
    data = (np.arange(24, dtype=np.float32).reshape(2, 3, 4) - 11.5) * 3001.25
    return Volume(data, (0.7, 1.1, 2.5))


class TestGoldenBytes:
    @pytest.mark.parametrize("element_type, digest", [
        ("MET_FLOAT", "1fcba498ef54760c88bab3ff8b7fea2915a5f7d5b687eabe623c79b3571d2435"),
        ("MET_UCHAR", "c03e7ccf9bc8b166e1c003dd4f40238278e8caab6ca3401f3b5e38597c3542c4"),
        ("MET_SHORT", "3fdfb431871f26b12b6900a9bbd0d30fb74c2468fb842ea77d3198b75e1694c2"),
        ("MET_USHORT", "1763a5e924bc9586f71fe2d0f1361613590e2eddc5013d5819e1360afc2138d6"),
    ])
    def test_write_metaimage(self, element_type, digest):
        blob = write_metaimage(golden_volume(), element_type)
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_mhd_raw_pair(self, tmp_path):
        save_metaimage(golden_volume(), str(tmp_path / "vol.mhd"))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("vol.mhd", "vol.raw")}
        assert digests == {
            "vol.mhd": "a98aaa0128b5294ca46124a2c75e05f3d3d968d005d6f7ec10cb0b008a2f5966",
            "vol.raw": "7c76122e519b501c735fb8afa7c9469690e54603d8cf036225d864505d3cd52c",
        }


class TestStructuredErrors:
    def test_truncated_payload_one_byte_short(self):
        blob = write_metaimage(random_volume(6))
        with pytest.raises(MetaImagePayloadMismatch):
            read_metaimage(blob[:-1])

    def test_extended_payload(self):
        blob = write_metaimage(random_volume(7))
        with pytest.raises(MetaImagePayloadMismatch):
            read_metaimage(blob + b"\x00\x00\x00\x00")

    def test_missing_required_keys(self):
        for removed in ("NDims", "DimSize", "ElementType"):
            lines = write_metaimage(random_volume(8)).split(b"\n")
            kept = [l for l in lines if not l.startswith(removed.encode())]
            with pytest.raises(MetaImageMissingKey):
                read_metaimage(b"\n".join(kept))

    def test_400_digit_dimsize_is_payload_mismatch(self):
        blob = write_metaimage(random_volume(14, (2, 3, 4)))
        blob = blob.replace(b"DimSize = 4 3 2", b"DimSize = " + b"9" * 400 + b" 3 2")
        with pytest.raises(MetaImagePayloadMismatch):
            read_metaimage(blob)

    def test_unsupported_element_type(self):
        blob = write_metaimage(random_volume(9))
        blob = blob.replace(b"MET_FLOAT", b"MET_DOUBLE")
        with pytest.raises(MetaImageUnsupportedType):
            read_metaimage(blob)

    def test_ndims_other_than_three(self):
        blob = write_metaimage(random_volume(10))
        blob = blob.replace(b"NDims = 3", b"NDims = 2")
        with pytest.raises(MetaImageMissingKey):
            read_metaimage(blob)

    def test_external_payload_without_bytes(self):
        blob = write_metaimage(random_volume(11))
        blob = blob.replace(b"ElementDataFile = LOCAL", b"ElementDataFile = x.raw")
        with pytest.raises(MetaImageError):
            read_metaimage(blob)

    @pytest.mark.parametrize("data_file, reason", [
        ("/data/vol.raw", "refusing"), ("../vol.raw", "refusing"),
        ("sub/../vol.raw", "refusing"), ("missing.raw", "not found"), (".", "not found"),
    ])
    def test_load_refuses_external_payload(self, tmp_path, data_file, reason):
        save_metaimage(random_volume(13), str(tmp_path / "vol.mhd"))
        path = tmp_path / "vol.mhd"
        path.write_bytes(path.read_bytes().replace(
            b"ElementDataFile = vol.raw", f"ElementDataFile = {data_file}".encode()))
        with pytest.raises(MetaImageError, match=reason):
            load_metaimage(str(path))

    @pytest.mark.parametrize("name", ["\u00fc.mhd", "a\nb.mhd", " a.mhd"])
    def test_save_refuses_a_name_the_header_cannot_carry(self, tmp_path, name):
        with pytest.raises(MetaImageError, match="cannot name"):
            save_metaimage(random_volume(14), str(tmp_path / name))
        assert not any(tmp_path.iterdir())

    def test_header_never_terminated(self):
        with pytest.raises(MetaImageError):
            read_metaimage(b"ObjectType = Image\nNDims = 3\n")

    def test_non_bytes_input(self):
        with pytest.raises(MetaImageError):
            read_metaimage("not bytes")


class TestFuzz:
    def test_thousand_mutations_only_structured_errors(self):
        base = write_metaimage(random_volume(12, (4, 4, 4)))
        g = np.random.default_rng(99)
        crashes = []
        for case in range(1000):
            buf = bytearray(base)
            kind = case % 5
            if kind == 0:  # flip random bytes anywhere
                for _ in range(int(g.integers(1, 8))):
                    buf[int(g.integers(len(buf)))] = int(g.integers(256))
            elif kind == 1:  # truncate
                buf = buf[: int(g.integers(0, len(buf)))]
            elif kind == 2:  # duplicate a slice
                i = int(g.integers(0, len(buf)))
                j = int(g.integers(i, min(len(buf), i + 64)))
                buf = buf[:i] + buf[i:j] + buf[i:]
            elif kind == 3:  # scramble header text only
                end = base.find(b"ElementDataFile")
                for _ in range(int(g.integers(1, 12))):
                    buf[int(g.integers(end))] = int(g.integers(32, 127))
            else:  # random garbage of random length
                buf = bytes(g.integers(0, 256, size=int(g.integers(0, 256)),
                                       dtype=np.uint8))
            try:
                read_metaimage(bytes(buf))
            except MetaImageError:
                pass
            except Exception as exc:  # pragma: no cover - failure reporting
                crashes.append((case, type(exc).__name__, str(exc)[:80]))
        assert not crashes, f"unstructured failures: {crashes[:5]}"


def test_mask_convention_above_half():
    vol = Volume(np.array([[[0.0, 0.4], [0.6, 1.0]]], dtype=np.float32), (1, 1, 1))
    assert np.array_equal(volume_to_mask(vol), [[[False, False], [True, True]]])
