"""The peak locator finds what a binary search finds, bitwise.

``SpectrumBatch.locator(shift).locate(member, x)`` answers "member
``member[r]``'s first padded key at or above ``x[r, j]``" from a bin ->
first-peak table and a few steps.  It must return exactly
``np.searchsorted(member_keys, x, side="left")`` (plus the member's
padded offset) for every needle: one exactly at a key or one ulp either
side of it, one on a bin edge, below the first bin, above the last key,
``+inf``; members with no peaks, batches of one member or with no finite
peak at all, duplicate peaks and peaks closer than ``2 tol``, and slices
of a batch (and slices of slices), which read their parent's table.

The two cohort matchers built on it must equal their binary-search
forms, copied below as oracles, bit for bit.
"""

from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectra.binning import (
    _fresh_intervals,
    _fresh_intervals_pairs,
    _ragged_arange,
    match_peaks_pairs,
    matched_intensity_pairs,
    row_segment_sums,
    sorted_runs,
)
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch

# -- the binary-search forms -------------------------------------------


def _searchsorted_runs(
    keys: np.ndarray,
    offsets: np.ndarray,
    runs: List[Tuple[int, int, int]],
    rows: np.ndarray,
    side: str,
) -> np.ndarray:
    """``np.searchsorted`` of each run's rows in its member's slice of
    ``keys``, member-local positions."""
    out = np.empty(rows.shape, dtype=np.int64)
    for k, a, b in runs:
        out[a:b] = keys[offsets[k] : offsets[k + 1]].searchsorted(rows[a:b], side)
    return out


def searchsorted_match_peaks_pairs(batch, member, query_rows, tolerance):
    """``match_peaks_pairs`` as one binary search per member."""
    mz, offsets = batch.padded_mz()
    first = _searchsorted_runs(mz, offsets, sorted_runs(member), query_rows - tolerance, "left")
    first += offsets[member][:, None]
    return mz[first] <= query_rows + tolerance


def searchsorted_fresh_intervals_pairs(batch, member, frag_rows, tolerance):
    """``_fresh_intervals_pairs`` with ``lo`` from one binary search per
    member over the unpadded ``mz + tol``, then the same steps."""
    runs = sorted_runs(member)
    lo = _searchsorted_runs(batch.mz + tolerance, batch.offsets, runs, frag_rows, "left")
    padded, offsets = batch.padded_mz()
    low_edge = padded - tolerance
    low_edge[offsets[1:] - 1] = np.nan
    at = (lo + offsets[member][:, None]).ravel()
    frags = frag_rows.ravel()
    hi = lo.copy()
    flat_hi = hi.reshape(-1)
    live = np.flatnonzero(low_edge[at] <= frags)
    step = 0
    while len(live):
        step += 1
        flat_hi[live] += 1
        live = live[low_edge[at[live] + step] <= frags[live]]
    return _fresh_intervals(lo, hi)


# -- cases -------------------------------------------------------------

# a member's peaks are strictly increasing; keys (peaks plus a shift) need
# not be.  Peaks on a quarter-Dalton grid lie closer than 2 tol to each
# other; peaks a few ulps below a power of two share keys once shifted
# into the next binade.
grid_peaks = st.lists(st.integers(1, 80), max_size=14).map(lambda v: [k * 0.25 for k in v])
any_peaks = st.lists(st.floats(1e-3, 3000.0), max_size=14)
merging_peaks = st.integers(1, 11).map(
    lambda k: [2.0**k - j * np.spacing(2.0 ** (k - 1)) for j in range(1, 5)]
)
SHIFTS = [0.0, 0.1, 0.25, 0.5, 1.0]


@st.composite
def batches(draw):
    """A batch — one member, several, empty members, no finite peak at
    all — or a slice of one, or a slice of a slice."""
    members = draw(
        st.one_of(
            st.lists(st.one_of(grid_peaks, any_peaks, merging_peaks), min_size=1, max_size=6),
            st.lists(st.just([]), min_size=1, max_size=3),  # no finite peak
        )
    )
    spectra = [
        Spectrum.from_peaks(mz, np.ones(len(mz)), 500.0, 1, i)
        for i, mz in enumerate(np.unique(np.array(p, dtype=float)) for p in members)
    ]
    batch = SpectrumBatch(spectra)
    for _ in range(draw(st.integers(0, 2))):
        if len(batch) > 1 and draw(st.booleans()):
            if draw(st.booleans()):
                batch.locator(draw(st.sampled_from(SHIFTS)))  # the parent's is made first
            a = draw(st.integers(0, len(batch) - 1))
            batch = batch.slice(a, draw(st.integers(a + 1, len(batch))))
    return batch


def needles_for(draw, locator, width):
    """Needles that stress ``locator``: its keys and their neighbours one
    ulp away, its bin edges and theirs, below the first bin, past the last
    key, ``+inf`` and anything."""
    finite = locator.keys[np.isfinite(locator.keys)]
    edge = st.integers(0, locator.nb + 2).map(lambda k: k / locator.inv_width)
    kinds = [
        edge,
        edge.map(lambda x: np.nextafter(x, -np.inf)),
        edge.map(lambda x: np.nextafter(x, np.inf)),
        st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1e300, np.inf]),
        st.integers(-8, 100).map(lambda v: v * 0.25),
        st.floats(-10.0, 3500.0),
    ]
    if len(finite):
        at_key = st.sampled_from(finite.tolist())
        kinds += [
            at_key,
            at_key.map(lambda x: np.nextafter(x, -np.inf)),
            at_key.map(lambda x: np.nextafter(x, np.inf)),
        ]
    return draw(st.lists(st.one_of(kinds), min_size=width, max_size=width))


@st.composite
def lookups(draw):
    batch = draw(batches())
    shift = draw(st.sampled_from(SHIFTS))
    locator = batch.locator(shift)
    rows = draw(st.integers(1, 8))
    member = np.sort(draw(st.lists(st.integers(0, len(batch) - 1), min_size=rows, max_size=rows)))
    width = draw(st.integers(1, 6))
    x = np.array(
        [needles_for(draw, locator, width) for _ in range(rows)],
        dtype=float,
    ).reshape(rows, width)
    return batch, shift, member, x


@given(lookups())
@settings(max_examples=400, deadline=None)
def test_locate_is_searchsorted(case):
    batch, shift, member, x = case
    padded, offsets = batch.padded_mz()
    keys = padded + shift
    pos, found = batch.locator(shift).locate(member, x)
    for r, m in enumerate(member):
        own = keys[offsets[m] : offsets[m + 1]]
        want = np.searchsorted(own, x[r], side="left") + offsets[m]
        assert np.array_equal(pos[r], want), (r, m, own, x[r], pos[r], want)
    assert found.tobytes() == keys[pos].tobytes()


@st.composite
def matches(draw):
    """A batch, fragment rows (sorted, ``+inf`` pads last) and a
    tolerance: fragments on the peaks' grid land exactly on ``p +- tol``."""
    batch = draw(batches())
    tolerance = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    rows = draw(st.integers(1, 8))
    member = np.sort(draw(st.lists(st.integers(0, len(batch) - 1), min_size=rows, max_size=rows)))
    width = draw(st.integers(1, 6))
    locator = batch.locator(tolerance)
    frags = [needles_for(draw, locator, width) for _ in range(rows)]
    frag_rows = np.sort(np.array(frags, dtype=float).reshape(rows, width), axis=1)
    return batch, member, frag_rows, tolerance


@given(matches())
@settings(max_examples=400, deadline=None)
def test_matchers_equal_their_searchsorted_forms(case):
    batch, member, frag_rows, tolerance = case
    mask = match_peaks_pairs(batch, member, frag_rows, tolerance)
    assert np.array_equal(mask, searchsorted_match_peaks_pairs(batch, member, frag_rows, tolerance))
    starts, lens = _fresh_intervals_pairs(batch, member, frag_rows, tolerance)
    want_starts, want_lens = searchsorted_fresh_intervals_pairs(batch, member, frag_rows, tolerance)
    assert np.array_equal(lens, want_lens) and np.array_equal(starts, want_starts)
    counts, sums = matched_intensity_pairs(batch, member, frag_rows, tolerance)
    want_starts += batch.offsets[member][:, None]
    flat = _ragged_arange(want_starts.ravel(), want_lens.ravel())
    want_counts = want_lens.sum(axis=1)
    row_offsets = np.concatenate(([0], np.cumsum(want_counts)))
    want_sums = row_segment_sums(batch.intensity, flat, row_offsets)
    assert np.array_equal(counts, want_counts) and sums.tobytes() == want_sums.tobytes()


def test_a_slice_reads_its_parents_table():
    """A slice's locator is views of the parent's keys and table."""
    spectra = [
        Spectrum.from_peaks(np.arange(1.0, 1.0 + k), np.ones(k), 500.0, 1, k) for k in range(5)
    ]
    batch = SpectrumBatch(spectra)
    part = batch.slice(1, 4)
    for shift in (0.0, 0.5):
        whole, sliced = batch.locator(shift), part.locator(shift)
        assert np.shares_memory(sliced.table, whole.table)
        assert np.shares_memory(sliced.keys, whole.keys)
        assert part.locator(shift) is sliced  # made once per shift
