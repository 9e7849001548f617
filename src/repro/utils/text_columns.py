"""Whole columns formatted as text by array operations.

:func:`write_tsv <repro.core.results.write_tsv>` formats reports of tens
of thousands of rows; a ``%`` per row cost it ~1.8 µs a row.  Here a
column's text is one ``(w, n)`` uint8 *block*: column ``r`` of the block
holds row ``r``'s characters, NUL bytes wherever a row is shorter than
the block.  Digits are written one decimal position at a time for every
row at once, and :func:`join_rows` lays the blocks of one row side by
side, drops the NULs and returns all rows as one buffer.

Every byte equals what Python's ``%`` operator writes for the same value:
``%d`` for :func:`int_column`, ``%.{d}f`` for :func:`fixed_column`
(correctly rounded, ``-0.000000`` for ``-0.0`` and tiny negatives,
``inf`` / ``-inf`` / ``nan``).  A fixed-point value is written from
``rint(|x| * 10**d)`` only where the margin to the nearest rounding tie
proves that integer is the correctly rounded one; the rare rest (values
within a few ulps of a tie, such as ``1/128`` at six decimals, and large
values, ``|x| * 10**d`` of ``2**49`` or more) goes through ``%`` itself.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_ZERO = ord("0")

#: the text of ``%f`` for nan, inf and -inf, right-aligned in four bytes
_NON_FINITE = np.frombuffer(b"\0nan\0inf-inf", dtype=np.uint8).reshape(3, 4)


def _digit_rows(magnitude: np.ndarray, min_digits: int) -> np.ndarray:
    """The decimal digits of uint64 ``magnitude`` as a ``(k, n)`` block.

    Row ``k - 1 - j`` holds digit ``j`` (counted from the right) as an
    ASCII character; a number's leading positions past its last nonzero
    digit are NUL, except the lowest ``min_digits``, which are always
    written (``0`` where the number is shorter).
    """
    top = max(len(str(int(magnitude.max(initial=0)))), min_digits)
    digits = np.empty((top, len(magnitude)), dtype=np.uint8)
    # nine digits fit 32 bits, where division is twice as fast
    q = magnitude.astype(np.uint32) if top <= 9 else magnitude
    for j in range(top):
        shifted = q // 10
        digit = q - shifted * 10
        digit += _ZERO
        if j >= min_digits:  # a leading zero is no digit
            digit[q == 0] = 0
        digits[top - 1 - j] = digit
        q = shifted
    return digits


def _sign_rows(negative: np.ndarray) -> np.ndarray:
    """A block row of ``-`` where ``negative`` and NUL elsewhere; no row
    when nothing is negative."""
    if not negative.any():
        return np.empty((0, len(negative)), dtype=np.uint8)
    return (negative * np.uint8(ord("-")))[None, :]


def int_column(values: np.ndarray) -> np.ndarray:
    """``'%d' % v`` for every int64 ``v``, as a block."""
    values = np.asarray(values, dtype=np.int64)
    negative = values < 0
    bits = values.view(np.uint64)
    # two's complement: 0 - v is |v| in uint64 arithmetic, int64 min included
    magnitude = np.where(negative, np.uint64(0) - bits, bits)
    return np.concatenate((_sign_rows(negative), _digit_rows(magnitude, 1)))


def _percent_fixed(values: np.ndarray, decimals: int) -> List[str]:
    """``'%.{decimals}f' % x``, one value at a time: the finite values no
    margin proves (near rounding ties, ``|x| * 10**decimals >= 2**49``)."""
    return ["%.*f" % (decimals, v) for v in values.tolist()]


def fixed_column(values: np.ndarray, decimals: int) -> np.ndarray:
    """``'%.{decimals}f' % x`` for every float64 ``x``, as a block.

    ``y = |x| * 10**decimals`` is within half an ulp of the exact
    product (``10**decimals`` is exact for ``decimals <= 22``), so where
    ``y < 2**52`` and ``y`` lies more than four ulps from a half-integer
    the exact product rounds to ``k = rint(y)`` and the text is ``k``'s
    digits with the point inserted.  (``||y - k| - 0.5|`` is at most one
    half, so the margin can only hold below ``2**49``, where an ulp is
    under an eighth.)  The sign is the sign bit (``%``
    writes ``-0.000000`` for ``-0.0`` and for negatives that round to
    zero).  Non-finite values are literals; the other unproven rows are
    formatted by ``%``.
    """
    x = np.asarray(values, dtype=np.float64)
    # a huge |x| overflows to inf, and inf - inf is nan: both rows are unproven
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(x) * 10.0**decimals
        k = np.rint(y)
        proven = (y < 2.0**52) & (np.abs(np.abs(y - k) - 0.5) > 4 * np.spacing(y))
    digits = _digit_rows(np.where(proven, k, 0).astype(np.uint64), decimals + 1)
    whole = len(digits) - decimals
    point = np.full((1 if decimals else 0, len(x)), ord("."), dtype=np.uint8)
    block = np.concatenate(
        (_sign_rows(np.signbit(x) & proven), digits[:whole], point, digits[whole:])
    )
    rows = np.flatnonzero(~proven)
    if len(rows) == 0:
        return block
    special = x[rows]
    finite = np.isfinite(special)
    text = _percent_fixed(special[finite], decimals) if finite.any() else []
    width = max(4, *map(len, text)) if text else 4
    chars = np.zeros((len(rows), width), dtype=np.uint8)
    chars[:, -4:] = _NON_FINITE[np.where(np.isnan(special), 0, np.where(special > 0, 1, 2))]
    if text:
        padded = "".join(t.rjust(width, "\0") for t in text).encode("ascii")
        chars[finite] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
    if width > len(block):
        block = np.concatenate((np.zeros((width - len(block), len(x)), np.uint8), block))
    block[:, rows] = 0
    block[-width:, rows] = chars.T
    return block


def slice_column(
    buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``buffer[starts[r]:starts[r] + lengths[r]]`` for every row, as a block.

    ``buffer`` (uint8) must extend at least ``max(lengths)`` bytes past
    every start.  One gather of whole rows from a sliding-window view.
    """
    width = max(int(lengths.max(initial=0)), 1)
    chars = sliding_window_view(buffer, width)[starts]
    # row l of ``keep`` is l ones, then zeros: NUL out what follows each slice
    keep = (np.arange(width) < np.arange(width + 1)[:, None]).astype(np.uint8)
    chars *= keep[lengths]
    return chars.T


def join_rows(columns: Sequence[np.ndarray]) -> bytes:
    """Each row's texts from ``columns`` (blocks over the same rows), a
    tab between them and a newline after, all rows in order.  Texts hold
    no NUL byte: every NUL of a block is padding."""
    n = columns[0].shape[1]
    joined = np.empty((n, sum(len(c) for c in columns) + len(columns)), dtype=np.uint8)
    at = 0
    for column in columns:
        joined[:, at : at + len(column)] = column.T
        joined[:, at + len(column)] = ord("\t")
        at += len(column) + 1
    joined[:, -1] = ord("\n")
    return joined[joined != 0].tobytes()

