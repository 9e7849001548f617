"""Compression codecs for partitioned index blobs.

The partitioned store (``repro.store.partitioned``) keeps each mass
partition as one compressed blob of named sections.  Two codecs cover
the four row columns a partition stores:

* ``vint`` — varint for non-negative int64 arrays (the span columns:
  sequence index, start, stop).  Each number is LEB128-style varint
  bytes (7 payload bits per byte, high bit = continuation), then zlib.
* ``zraw`` — ``zlib`` over the raw little-endian bytes, for the float64
  mass column (and any byte buffer).  zlib is lossless, so decoded
  floats are bit-for-bit the encoded ones — the property tests in
  ``tests/property/test_prop_codec.py`` enforce the round-trip for both
  codecs.

Decoding is vectorized: varint streams are decoded with one pass of
numpy array ops (continuation-bit cumsum to find value boundaries, then
per-byte shifted contributions summed with ``np.add.reduceat``), not a
Python loop per value — a partition decodes in milliseconds, which is
what lets the prefetch thread stay ahead of scoring.
"""

from __future__ import annotations

import zlib
from typing import Tuple

import numpy as np

from repro.errors import IndexStoreError

#: codec identifiers, recorded per section in the partition manifest
CODECS = ("vint", "zraw")


def encode_varint(values: np.ndarray) -> bytes:
    """Varint-encode a non-negative int64 array (vectorized).

    Each value is emitted little-endian in 7-bit groups; every byte but
    the last of a value has its high bit set.  Zero encodes as one
    ``0x00`` byte.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size == 0:
        return b""
    if values.min() < 0:
        raise IndexStoreError("varint codec requires non-negative values")
    u = values.astype(np.uint64)
    # bytes needed per value: ceil(bit_length / 7), at least 1
    nbytes = np.ones(len(u), dtype=np.int64)
    probe = u >> np.uint64(7)
    while probe.any():
        nbytes += (probe > 0).astype(np.int64)
        probe >>= np.uint64(7)
    total = int(nbytes.sum())
    out = np.empty(total, dtype=np.uint8)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    # position of each output byte within its value (0-based, LSB first)
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, nbytes)
    owner = np.repeat(np.arange(len(u), dtype=np.int64), nbytes)
    chunk = (u[owner] >> (np.uint64(7) * pos.astype(np.uint64))) & np.uint64(0x7F)
    out[:] = chunk.astype(np.uint8)
    is_last = pos == (nbytes[owner] - 1)
    out[~is_last] |= 0x80
    return out.tobytes()


def decode_varint(buf: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_varint`; returns ``count`` int64 values.

    Raises :class:`~repro.errors.IndexStoreError` on a truncated or
    malformed stream (wrong value count, dangling continuation bit).
    """
    if count == 0:
        if buf:
            raise IndexStoreError("varint stream has trailing bytes")
        return np.empty(0, dtype=np.int64)
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        raise IndexStoreError("varint stream is truncated (empty buffer)")
    terminal = (b & 0x80) == 0  # last byte of each value
    n_values = int(terminal.sum())
    if n_values != count or not terminal[-1]:
        raise IndexStoreError(
            f"varint stream is corrupt or truncated: expected {count} "
            f"values, found {n_values}"
        )
    # value id of each byte: 0-based index of the value it belongs to
    owner = np.concatenate(([0], np.cumsum(terminal[:-1]))).astype(np.int64)
    starts = np.nonzero(np.diff(owner, prepend=-1))[0]
    pos = np.arange(b.size, dtype=np.int64) - starts[owner]
    if int(pos.max()) > 9:
        raise IndexStoreError("varint value exceeds 64 bits")
    contrib = (b.astype(np.uint64) & np.uint64(0x7F)) << (
        np.uint64(7) * pos.astype(np.uint64)
    )
    values = np.add.reduceat(contrib, starts)
    return values.astype(np.int64)


def encode_array(arr: np.ndarray, codec: str) -> bytes:
    """Encode one flat array with the named codec."""
    if codec == "vint":
        return zlib.compress(encode_varint(arr), level=1)
    if codec == "zraw":
        return zlib.compress(np.ascontiguousarray(arr).tobytes(), level=1)
    raise IndexStoreError(f"unknown partition codec {codec!r}")


def decode_array(buf: bytes, codec: str, dtype: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Decode one section back to its manifest dtype/shape.

    Any decompression or framing failure — a truncated blob, flipped
    bits, a wrong section boundary — surfaces as a typed
    :class:`~repro.errors.IndexStoreError`, never a raw zlib/numpy error.
    """
    if codec not in CODECS:
        raise IndexStoreError(f"unknown partition codec {codec!r}")
    count = 1
    for dim in shape:
        count *= int(dim)
    try:
        raw = zlib.decompress(buf)
    except zlib.error as exc:
        raise IndexStoreError(
            f"partition section is corrupt or truncated: {exc}"
        ) from None
    if codec == "vint":
        return decode_varint(raw, count).astype(np.int64).reshape(shape)
    if codec == "zraw":
        expect = count * np.dtype(dtype).itemsize
        if len(raw) != expect:
            raise IndexStoreError(
                f"partition section decoded to {len(raw)} bytes, "
                f"manifest says {expect}"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    raise IndexStoreError(f"unknown partition codec {codec!r}")


def codec_for(arr: np.ndarray) -> str:
    """Pick the codec for one partition array by dtype."""
    if arr.dtype == np.float64 or arr.dtype == np.uint8:
        return "zraw"
    return "vint"
