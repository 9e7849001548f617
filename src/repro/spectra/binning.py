"""Fixed-width m/z binning and vectorized peak matching.

Scorers need to answer, many thousands of times per query: *which peaks
of the experimental spectrum are explained by the candidate's fragment
ladder, within a fragment-mass tolerance?*  Peak ``p`` matches fragment
``f`` iff ``p - tol <= f <= p + tol``; with both arrays sorted by m/z
this is one lookup of each fragment in a bin -> first-peak table plus a
few vectorized steps — no Python loop per peak, candidate or member.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def bin_spectrum(
    mz: np.ndarray, intensity: np.ndarray, bin_width: float, mz_max: float
) -> np.ndarray:
    """Accumulate peaks into fixed-width m/z bins.

    Returns a dense vector of length ``ceil(mz_max / bin_width)`` whose
    entry ``k`` sums the intensity of peaks with
    ``k * bin_width <= mz < (k + 1) * bin_width``.  Peaks at or beyond
    ``mz_max`` are dropped.  Dense binned vectors feed the Xcorr scorer's
    correlation and are the representation X!Tandem-style tools use.
    """
    if bin_width <= 0 or mz_max <= 0:
        raise ValueError("bin_width and mz_max must be positive")
    nbins = int(np.ceil(mz_max / bin_width))
    out = np.zeros(nbins)
    idx = (mz / bin_width).astype(np.int64)
    keep = (idx >= 0) & (idx < nbins)
    np.add.at(out, idx[keep], intensity[keep])
    return out


# -- batched matchers ------------------------------------------------------
#
# The block kernels ask the matching question for *matrices* of fragment
# ladders — one row per candidate.  All batched kernels below and the
# cohort matchers after them evaluate exactly the scalar predicate (peak
# ``p`` matches fragment ``f`` iff ``p - tol <= f <= p + tol`` with the
# same rounded endpoint values), so their outputs agree with
# per-candidate loops bit for bit.


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for each (start, length) pair.

    Position ``p`` of run ``r`` (head ``h``) holds ``p + (s - h)``: one
    ``arange`` of the output's length plus one ``repeat`` of the per-run
    offsets, added in place.  Empty runs repeat zero times.
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.arange(total, dtype=np.int64)
    out += np.repeat(starts - (ends - lengths), lengths)
    return out


def _fresh_intervals(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per fragment, the part ``(starts, lens)`` of its matched-peak interval
    ``[lo, hi)`` that no earlier fragment of its row already covered.

    Rows sorted ascending => ``hi`` is non-decreasing along each row, so
    the peaks newly covered by fragment j are ``[max(lo_j, hi_{j-1}), hi_j)``
    (``lo_0`` itself for the first: positions are never negative).  Works
    in place: ``lo`` becomes ``starts`` and ``hi`` becomes ``lens``.
    """
    np.maximum(lo[:, 1:], hi[:, :-1], out=lo[:, 1:])
    hi -= lo
    return lo, np.maximum(hi, 0, out=hi)


def row_segment_sums(
    values: np.ndarray, flat_idx: np.ndarray, row_offsets: np.ndarray
) -> np.ndarray:
    """Per-row sums of ``values[flat_idx[segment]]``, bitwise-stable.

    Rows are grouped by segment length (one :func:`group_by_key`, each
    length's rows ascending) and each group is gathered into a fresh
    C-contiguous matrix before a row-wise ``sum``, so every row's result
    is bitwise identical to summing its gathered values as a 1-D array —
    the scalar kernels' operation order.  Empty segments sum to ``0.0``.
    """
    n = len(row_offsets) - 1
    out = np.zeros(n, dtype=np.float64)
    counts = np.diff(row_offsets)
    order, runs = group_by_key(counts, int(counts.max()) + 1 if n else 0)
    for k, a, b in runs:
        if k == 0:
            continue
        rows = order[a:b]
        seg = flat_idx[row_offsets[rows][:, None] + np.arange(k)]
        out[rows] = values[seg].sum(axis=1)
    return out


def row_prefix_sums(matrix: np.ndarray, widths: Optional[np.ndarray]) -> np.ndarray:
    """Per-row sums of ``matrix[r, :widths[r]]`` (the whole row when
    ``widths`` is ``None``), bitwise-stable.

    Rows are grouped by width and each width's rows gathered into a
    fresh C-contiguous matrix before a row-wise ``sum``, so every row's
    result is bitwise its own 1-D sum over exactly its width: what is
    past it (a padded row's tail) is never read.  Rows of width 0 sum
    to zero.
    """
    if widths is None:
        return matrix.sum(axis=1)
    out = np.zeros(len(matrix), dtype=np.float64 if matrix.dtype.kind == "f" else np.int64)
    order, runs = group_by_key(widths, matrix.shape[1] + 1)
    for w, a, b in runs:
        if w > 0:
            rows = order[a:b]
            out[rows] = matrix[rows, :w].sum(axis=1)
    return out


# -- cohort (pair) matchers ------------------------------------------------
#
# The block kernels answer the same questions for rows that belong to
# *different* member spectra of one
# :class:`~repro.spectra.spectrum_batch.SpectrumBatch`: ``member[r]`` names
# the spectrum row ``r`` is matched against and is non-decreasing, so each
# member's rows are one contiguous run.  Peaks are found through the
# batch's :class:`~repro.spectra.spectrum_batch.PeakLocator` (each member's
# own padded peaks — the same floats the scalar matcher searches, its
# ``searchsorted`` result bitwise), so every step is row-wise and runs
# once for all rows.


def sorted_runs(values: np.ndarray) -> List[Tuple[int, int, int]]:
    """``(v, a, b)`` for every run ``values[a:b] == v`` of a non-decreasing
    integer vector (a member-of-row vector, or sorted group keys)."""
    n = len(values)
    if n == 0:
        return []
    if values[0] == values[-1]:  # a cohort of one pays no array work here
        return [(int(values[0]), 0, n)]
    cuts = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    starts = [0] + cuts
    return list(zip(values[starts].tolist(), starts, cuts + [n]))


def group_by_key(keys: np.ndarray, num_keys: int) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Stable grouping of small non-negative integer keys: ``(order, runs)``.

    ``order`` sorts ``keys`` keeping equal keys in their original order;
    ``runs`` lists ``(key, a, b)`` with ``keys[order[a:b]] == key``.  Keys
    below ``2**15`` are sorted as 16-bit integers, which numpy radix-sorts
    — one pass instead of a mask per key.
    """
    order = np.argsort(keys.astype(np.int16) if num_keys < 2**15 else keys, kind="stable")
    return order, sorted_runs(keys[order])


_INT64_MAX = int(np.iinfo(np.int64).max)


def stable_sort(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)`` where ``order`` is exactly
    ``np.argsort(keys, kind="stable")``, from numpy's unstable sorts, which
    are SIMD on x86 (``kind="stable"`` is timsort for 64-bit keys, ~3x
    slower).

    Integer keys whose range times ``n`` fits int64 sort as the composite
    ``(key - min) * n + position``: its values are unique, so any sort
    yields the stable order, and both outputs decode from the sorted
    composite (its ``// n`` and the remainder).  Other keys (floats,
    wider integer ranges, ``uint64``) take one unstable ``argsort``,
    after which each run of equal keys is put back in index order.  NaNs
    tie with each other and sort last, as under numpy.
    """
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ValueError(f"stable_sort takes a 1-D array, got shape {keys.shape}")
    n = len(keys)
    if n < 2:
        return keys.copy(), np.arange(n, dtype=np.intp)
    if keys.dtype.kind in "bi" or (keys.dtype.kind == "u" and keys.dtype.itemsize < 8):
        low, high = int(keys.min()), int(keys.max())
        if (high - low) * n + n - 1 <= _INT64_MAX:
            composite = keys.astype(np.int64)
            if low:
                composite -= low
            composite *= n
            composite += np.arange(n)
            composite.sort()  # in place: no second n-sized buffer
            ordered = composite // n  # a scalar floor division is SIMD; % is not
            composite -= ordered * n  # now the order
            if low:
                ordered += low
            return ordered.astype(keys.dtype, copy=False), composite
    order = np.argsort(keys)
    ordered = keys[order]
    tied = np.flatnonzero(ordered[1:] == ordered[:-1])  # i: places i and i + 1 tie
    if keys.dtype.kind == "f" and np.isnan(ordered[-1]):  # the NaNs are the last run
        tied = np.concatenate((tied, np.arange(np.searchsorted(ordered, np.nan), n - 1)))
    if len(tied):
        at = np.union1d(tied, tied + 1)  # every place in a run of equal keys
        opens = tied[np.diff(tied, prepend=-2) != 1]  # each run's first place
        # (run, position) is unique too: an unstable sort restores index order
        fix = np.searchsorted(opens, at, side="right") * n + order[at]
        fix.sort()
        order[at] = fix % n
        ordered[at] = keys[order[at]]  # equal is not identical: -0.0 and 0.0
    return ordered, order


def match_peaks_pairs(
    batch, member: np.ndarray, query_rows: np.ndarray, tolerance: float
) -> np.ndarray:
    """Cohort peak matching over fragment rows: entry ``[r, j]`` is
    whether ``query_rows[r, j]`` lies within ``tolerance`` of a peak of
    member ``member[r]`` (rows need not be sorted).

    One lookup per fragment: the scalar matcher's ``hi > lo`` (two
    ``searchsorted`` calls over the fragments) holds exactly when the
    member's first peak at or above ``f - tol`` (its ``+inf`` pad when
    there is none), found by the batch's unshifted
    :class:`~repro.spectra.spectrum_batch.PeakLocator`, is at most
    ``f + tol``.
    """
    _first, found = batch.locator(0.0).locate(member, query_rows - tolerance)
    return found <= query_rows + tolerance


def _fresh_intervals_pairs(
    batch, member: np.ndarray, frag_rows: np.ndarray, tolerance: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_fresh_intervals` of each fragment's matched-peak interval,
    in member-local peak positions.

    For fragment ``frag_rows[r, j]`` the matched peaks of member
    ``member[r]`` are exactly its peaks ``p`` satisfying the scalar
    predicate ``p - tol <= f <= p + tol``: a half-open index interval,
    since a member's peaks are sorted ascending.  Rows of ``frag_rows``
    must be sorted ascending too.

    One lookup per fragment in the batch's locator of ``mz + tol`` finds
    ``lo``, the first peak with ``f <= p + tol``.  Every peak before it
    has ``p - tol <= p + tol < f``, so ``hi`` — past the last peak with
    ``p - tol <= f`` — is at or after ``lo``, and the peaks in between
    are the ones stepped over from ``lo`` while ``p - tol <= f``: a few
    steps over all fragments at once instead of a second search.  Each
    member's pad slot holds NaN, which compares false with every
    fragment, ``+inf`` pads included, so no step leaves its member.
    """
    at = batch.locator(tolerance).locate(member, frag_rows)[0]  # each fragment's lo, padded
    padded, offsets = batch.padded_mz()
    low_edge = padded - tolerance
    low_edge[offsets[1:] - 1] = np.nan
    lo = at - offsets[member][:, None]
    at, frags = at.reshape(-1), frag_rows.ravel()
    hi = lo.copy()
    flat_hi = hi.reshape(-1)
    live = np.flatnonzero(low_edge[at] <= frags)  # fragments whose next peak matches
    step = 0
    while len(live):
        step += 1
        flat_hi[live] += 1
        live = live[low_edge[at[live] + step] <= frags[live]]
    return _fresh_intervals(lo, hi)


def count_matches_pairs(
    batch, member: np.ndarray, frag_rows: np.ndarray, tolerance: float
) -> np.ndarray:
    """Shared peak counts: row ``r`` against member ``member[r]``.

    The count is the size of the *union* of the per-fragment
    matched-peak intervals, so peaks matched by several fragments count
    once — exactly the scalar boolean-mask semantics.
    """
    n, f = frag_rows.shape
    if n == 0 or f == 0:
        return np.zeros(n, dtype=np.int64)
    _starts, lens = _fresh_intervals_pairs(batch, member, frag_rows, tolerance)
    return lens.sum(axis=1)


def matched_intensity_pairs(
    batch, member: np.ndarray, frag_rows: np.ndarray, tolerance: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared peak counts and matched intensities: ``(counts, intensity_sums)``.

    One :func:`row_segment_sums` over the batch's flat intensities serves
    every member: each row's member-local matched peaks are shifted by
    its member's offset into the batch, so it gathers exactly the values
    (ascending, the order a scalar boolean mask enumerates them) that a
    per-candidate matched-intensity sum adds for that row and member.
    """
    n, f = frag_rows.shape
    if n == 0 or f == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.float64)
    starts, lens = _fresh_intervals_pairs(batch, member, frag_rows, tolerance)
    starts += batch.offsets[member][:, None]
    flat_idx = _ragged_arange(starts.ravel(), lens.ravel())
    counts = lens.sum(axis=1)
    row_offsets = np.concatenate(([0], np.cumsum(counts)))
    return counts, row_segment_sums(batch.intensity, flat_idx, row_offsets)
