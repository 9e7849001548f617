"""Property tests: partition codecs are exact inverses on all inputs.

Hypothesis drives the varint codec through arbitrary int64 value
streams (including zero, repeats, and 63-bit magnitudes) and the zraw
codec through arbitrary float64/uint8 buffers.  The invariant is
bitwise: ``decode(encode(x))`` reproduces ``x``'s exact bytes — these
codecs carry a partition's rows, so "close" is corrupt.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.codec import (
    decode_array,
    decode_varint,
    encode_array,
    encode_varint,
)

#: non-negative int64 values across the full varint width range
values63 = st.integers(min_value=0, max_value=2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(values63, max_size=60))
def test_varint_round_trip(values):
    arr = np.array(values, dtype=np.int64)
    out = decode_varint(encode_varint(arr), len(arr))
    assert out.tobytes() == arr.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(values63, max_size=60))
def test_int_array_codecs_round_trip(values):
    arr = np.array(values, dtype=np.int64)
    out = decode_array(encode_array(arr, "vint"), "vint", "int64", arr.shape)
    assert out.tobytes() == arr.tobytes()
    assert out.dtype == np.int64


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=50
    )
)
def test_zraw_float_round_trip(values):
    arr = np.array(values, dtype=np.float64)
    out = decode_array(encode_array(arr, "zraw"), "zraw", "float64", arr.shape)
    assert out.tobytes() == arr.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_zraw_bytes_round_trip(raw):
    arr = np.frombuffer(raw, dtype=np.uint8)
    out = decode_array(encode_array(arr, "zraw"), "zraw", "uint8", arr.shape)
    assert out.tobytes() == arr.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(values63, min_size=1, max_size=40), st.data())
def test_varint_truncation_never_returns_wrong_values(values, data):
    """Any strict prefix of a varint stream fails typed, never silently."""
    from repro.errors import IndexStoreError

    import pytest

    arr = np.array(values, dtype=np.int64)
    buf = encode_varint(arr)
    cut = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    with pytest.raises(IndexStoreError):
        decode_varint(buf[:cut], len(arr))
