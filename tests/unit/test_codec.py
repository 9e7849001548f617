"""Unit tests for the partition blob codecs (``repro.store.codec``).

The codec contract: ``decode(encode(x)) == x`` exactly for every
supported dtype, and every malformed input — negative values,
truncated/corrupt buffers, wrong counts — raises a typed
:class:`~repro.errors.IndexStoreError`, never a raw zlib/numpy error.
"""

import numpy as np
import pytest

from repro.errors import IndexStoreError
from repro.store.codec import (
    codec_for,
    decode_array,
    decode_varint,
    encode_array,
    encode_varint,
)


class TestVarint:
    def test_round_trip_small_and_boundary_values(self):
        # 7-bit group boundaries: 127/128, 16383/16384, and int64 max
        values = np.array(
            [0, 1, 127, 128, 129, 16383, 16384, 2**31, 2**62, 2**63 - 1],
            dtype=np.int64,
        )
        out = decode_varint(encode_varint(values), len(values))
        np.testing.assert_array_equal(out, values)

    def test_empty_round_trip(self):
        assert encode_varint(np.empty(0, dtype=np.int64)) == b""
        assert decode_varint(b"", 0).size == 0

    def test_zero_encodes_as_one_byte(self):
        assert encode_varint(np.array([0], dtype=np.int64)) == b"\x00"

    def test_negative_values_raise_typed(self):
        with pytest.raises(IndexStoreError, match="non-negative"):
            encode_varint(np.array([3, -1], dtype=np.int64))

    def test_truncated_stream_raises_typed(self):
        buf = encode_varint(np.array([300, 5], dtype=np.int64))
        with pytest.raises(IndexStoreError, match="corrupt or truncated"):
            decode_varint(buf[:-1], 2)

    def test_wrong_count_raises_typed(self):
        buf = encode_varint(np.array([1, 2, 3], dtype=np.int64))
        with pytest.raises(IndexStoreError, match="expected 2"):
            decode_varint(buf, 2)

    def test_trailing_bytes_on_empty_count_raise(self):
        with pytest.raises(IndexStoreError, match="trailing"):
            decode_varint(b"\x00", 0)

    def test_dangling_continuation_bit_raises(self):
        with pytest.raises(IndexStoreError):
            decode_varint(b"\x80", 1)


class TestArrayCodecs:
    @pytest.mark.parametrize(
        "codec,arr",
        [
            ("vint", np.array([1, 2, 2, 900, 2**40], dtype=np.int64)),
            ("vint", np.array([7, 0, 3, 2**33], dtype=np.int64)),
            ("zraw", np.linspace(-5.0, 900.0, 37)),
            ("zraw", np.arange(64, dtype=np.uint8)),
        ],
    )
    def test_round_trip(self, codec, arr):
        buf = encode_array(arr, codec)
        out = decode_array(buf, codec, str(arr.dtype), arr.shape)
        assert out.tobytes() == arr.tobytes()
        assert out.dtype == arr.dtype

    def test_2d_zraw_round_trip(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)
        out = decode_array(encode_array(arr, "zraw"), "zraw", "float64", (4, 6))
        np.testing.assert_array_equal(out, arr)

    def test_corrupt_blob_raises_typed(self):
        buf = encode_array(np.arange(100, dtype=np.int64), "vint")
        with pytest.raises(IndexStoreError, match="corrupt or truncated"):
            decode_array(b"\x00" + buf[1:], "vint", "int64", (100,))

    def test_truncated_blob_raises_typed(self):
        buf = encode_array(np.arange(100, dtype=np.int64), "vint")
        with pytest.raises(IndexStoreError):
            decode_array(buf[: len(buf) // 2], "vint", "int64", (100,))

    def test_zraw_length_mismatch_raises_typed(self):
        buf = encode_array(np.arange(10, dtype=np.float64), "zraw")
        with pytest.raises(IndexStoreError, match="manifest says"):
            decode_array(buf, "zraw", "float64", (11,))

    def test_unknown_codec_raises_typed(self):
        with pytest.raises(IndexStoreError, match="unknown partition codec"):
            encode_array(np.arange(3), "lz9")
        with pytest.raises(IndexStoreError, match="unknown partition codec"):
            decode_array(b"x", "lz9", "int64", (1,))


class TestCodecFor:
    def test_float_and_byte_arrays_take_zraw(self):
        assert codec_for(np.zeros(3)) == "zraw"
        assert codec_for(np.zeros(3, dtype=np.uint8)) == "zraw"

    def test_other_int_arrays_take_vint(self):
        assert codec_for(np.zeros(3, dtype=np.int64)) == "vint"

    def test_every_stored_section_has_its_codec(self):
        """The codec of each column a partition blob stores."""
        from repro.index.layout import ROW_ARRAYS

        got = {
            name: codec_for(np.zeros(3, dtype=dtype))
            for name, dtype in ROW_ARRAYS.items()
        }
        assert got == {
            "row_seq": "vint", "row_start": "vint", "row_stop": "vint",
            "row_mass": "zraw",
        }
