"""Sorts that cannot change a result are skipped or made cheaper, and the
results stay bitwise what the full sorts give.

* The block emit sorts only the rows scoring at least their member's
  tau-th best score; each list still holds its member's first tau rows
  of the full :func:`~repro.scoring.hits.best_first_order`, in order.
* ``by_model_rows`` sorts packed ``uint64`` keys (float bits shifted
  left, bit 0 the y flag) in place of a stable argsort and gather; a
  :class:`~repro.chem.amino_acids.Modification` that would make a
  residue's mass non-positive is refused, which keeps every ion positive.
* Xcorr no longer sorts its bin rows: ladders arrive ascending.
* ``Spectrum.from_peaks`` takes strictly ascending peaks as they are.
* ``_ragged_arange`` is one ``arange`` plus one ``repeat``.

Each is checked against the form it replaced, kept here as the oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import Modification
from repro.constants import AMINO_ACIDS, AVERAGE_MASS, MONOISOTOPIC_MASS, PROTON_MASS, WATER_MASS
from repro.core.config import SearchConfig
from repro.core.search import ShardStats, score_and_offer_block
from repro.errors import InvalidSequenceError, SpectrumError
from repro.scoring.hits import TopHitList, best_first_order, pack_hit_columns
from repro.scoring.xcorr import XCorrScorer
from repro.spectra.binning import _ragged_arange, row_segment_sums
from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import (
    _fragment_pads,
    _suffix_rows,
    by_ion_ladders,
    by_model_rows,
)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


# -- the block emit ---------------------------------------------------------

# few distinct values, so ties at a member's cutoff are common
_SCORES = st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 1.0, 2.0, 7.5, np.inf])


@st.composite
def blocks(draw):
    """A block: per-member candidate counts below, at and above tau,
    scores with ties and +-inf, structural columns with full-key ties
    (told apart only by mass), lengths around the floor, a cutoff or
    none, and sometimes a NaN score."""
    tau = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 3 * tau + 2), min_size=1, max_size=6))
    n = sum(counts)
    assume(n > 0)
    scores = np.array(draw(st.lists(_SCORES, min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()) and n:
        scores[draw(st.integers(0, n - 1))] = np.nan
    proteins = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    starts = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    lengths = np.array(draw(st.lists(st.integers(3, 8), min_size=n, max_size=n)), dtype=np.int64)
    cutoff = draw(st.sampled_from([None, 0.0, 1.0, -np.inf]))
    return tau, np.array(counts), scores, proteins, starts, lengths, cutoff


def _reference_emit(cfg, counts, scores, columns, lengths):
    """The emit before the threshold cut: per member, the first tau rows
    of one full best_first_order, and the candidates offered."""
    mem = np.repeat(np.arange(len(counts)), counts)
    offered = counts.copy()  # the floor and the cutoff skip, still offered
    keep = lengths >= cfg.min_candidate_length
    if cfg.score_cutoff is not None:
        keep &= scores >= cfg.score_cutoff
    table = tuple(col[keep] for col in (scores, *columns))
    mem = mem[keep]
    order = best_first_order(table, mem)
    kept = np.bincount(mem, minlength=len(counts))
    first = np.cumsum(kept) - kept
    out = []
    for k in range(len(counts)):
        rows = order[first[k] : first[k] + min(kept[k], cfg.tau)]
        out.append((int(offered[k]), tuple(col[rows] for col in table)))
    return out


@given(blocks())
@settings(max_examples=400, deadline=None)
def test_the_selected_emit_is_the_full_sorts_cut(block):
    tau, counts, scores, proteins, starts, lengths, cutoff = block
    cfg = SearchConfig(tau=tau, score_cutoff=cutoff, min_candidate_length=5)
    n = len(scores)
    stops = starts + lengths
    masses = np.arange(n, dtype=np.float64) + 0.5  # tells full-key ties apart
    mods = np.zeros(n)
    columns = (proteins, starts, stops, masses, mods)
    qids = list(range(10, 10 + len(counts)))
    spectra = SimpleNamespace(spectra=[SimpleNamespace(query_id=q) for q in qids])
    hitlists = {q: TopHitList(tau) for q in qids}
    mem = np.repeat(np.arange(len(counts)), counts)

    def score(_spectra, kept):
        return scores[np.concatenate(kept)], 0, 0

    score_and_offer_block(
        cfg, ShardStats(), hitlists, spectra, np.arange(n), mem, lengths, score,
        lambda s: tuple(col[s] for col in columns),
    )
    packed = pack_hit_columns(hitlists, qids)
    bounds = np.concatenate(([0], np.cumsum(packed.counts)))
    for k, (offered, want) in enumerate(_reference_emit(cfg, counts, scores, columns, lengths)):
        assert hitlists[qids[k]].evaluated == offered
        got = packed[2:]
        for g, w in zip(got, want):
            assert _bits(g[bounds[k] : bounds[k + 1]]) == _bits(w)


# -- by_model_rows: packed keys ---------------------------------------------


def _stable_argsort_model_rows(mass_rows, lengths=None):
    """``by_model_rows`` as a stable argsort of ``[b | y]`` and a gather."""
    n, length = mass_rows.shape
    width = 2 * (length - 1)
    ions = np.concatenate((mass_rows[:, :-1], _suffix_rows(mass_rows, lengths)), axis=1)
    ions = ions.reshape(n, 2, length - 1).cumsum(axis=2)
    ions[:, 1] += WATER_MASS
    ions += PROTON_MASS
    if lengths is not None:
        pads = _fragment_pads(lengths, length - 1)
        ions[:, 0][pads] = np.inf
        ions[:, 1][pads] = np.inf
    order = np.argsort(ions.reshape(n, width), axis=1, kind="stable")
    y_rows = order >= length - 1
    order += np.arange(0, n * width, width)[:, None]
    return ions.ravel()[order], y_rows


_RESIDUE_MASSES = sorted(set(MONOISOTOPIC_MASS.values()))


@st.composite
def model_bands(draw):
    """A band of residue-mass rows, padded (trailing ``0.0``) or not, some
    rows built so a b ion equals a y ion bit for bit: a first residue
    ``fl(x + water)`` beside a last residue ``x``."""
    n = draw(st.integers(1, 6))
    width = draw(st.integers(2, 9))
    padded = draw(st.booleans())
    lengths = (
        np.array(draw(st.lists(st.integers(2, width), min_size=n, max_size=n)), dtype=np.int64)
        if padded
        else None
    )
    rows = np.zeros((n, width))
    for r in range(n):
        size = width if lengths is None else int(lengths[r])
        rows[r, :size] = draw(
            st.lists(st.sampled_from(_RESIDUE_MASSES), min_size=size, max_size=size)
        )
        if draw(st.booleans()):  # b_1 == y_(size-1): m0 == fl(m_last + water)
            rows[r, 0] = rows[r, size - 1] + WATER_MASS
    return rows, lengths


@given(model_bands())
@settings(max_examples=300, deadline=None)
def test_packed_key_model_rows_equal_the_stable_argsort(band):
    rows, lengths = band
    mz, y = by_model_rows(rows.copy(), lengths)
    want_mz, want_y = _stable_argsort_model_rows(rows.copy(), lengths)
    assert mz.shape == want_mz.shape and mz.dtype == want_mz.dtype
    assert _bits(mz) == _bits(want_mz)
    assert y.dtype == want_y.dtype and np.array_equal(y, want_y)


def test_a_b_ion_tied_with_a_y_ion_sorts_first():
    x = MONOISOTOPIC_MASS["G"]
    rows = np.array([[x + WATER_MASS, x]])  # b_1 == y_1 bit for bit
    mz, y = by_model_rows(rows)
    assert mz[0, 0] == mz[0, 1]
    assert y.tolist() == [[False, True]]


class TestModificationMass:
    @pytest.mark.parametrize("residue", list(AMINO_ACIDS))
    def test_a_delta_leaving_the_residue_without_mass_is_refused(self, residue):
        lightest = min(MONOISOTOPIC_MASS[residue], AVERAGE_MASS[residue])
        for delta in (-lightest, -lightest - 1.0, -1e6, float("nan")):
            with pytest.raises(InvalidSequenceError):
                Modification("loss", residue, delta)

    def test_a_delta_leaving_some_mass_is_accepted(self):
        lightest = MONOISOTOPIC_MASS["G"]
        assert Modification("loss", "G", -lightest + 1e-6).delta_mass == -lightest + 1e-6
        Modification("water_loss_s", "S", -WATER_MASS)


# -- Xcorr: rows arrive sorted ----------------------------------------------


def _sorting_ladder_scores(scorer, processed, ladders, limit=None, base=None, padded=False):
    """``XCorrScorer._ladder_matrix_scores`` with its former row sort."""
    sentinel = np.iinfo(np.int64).max
    bins = ladders / scorer.bin_width
    if padded:
        bins[np.isinf(bins)] = -1.0
    bins = bins.astype(np.int64)
    if limit is None:
        limit = len(processed)
    bins[(bins < 0) | (bins >= limit)] = sentinel
    bins.sort(axis=1)
    keep = np.ones(bins.shape, dtype=bool)
    keep[:, 1:] = bins[:, 1:] != bins[:, :-1]
    keep &= bins != sentinel
    counts = keep.sum(axis=1)
    row_offsets = np.concatenate(([0], np.cumsum(counts)))
    flat_bins = bins[keep]
    if base is not None:
        flat_bins += np.repeat(base, counts)
    return row_segment_sums(processed, flat_bins, row_offsets), counts


@given(model_bands(), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0005, 4.0]))
@settings(max_examples=200, deadline=None)
def test_xcorr_without_the_row_sort_scores_the_same(band, seed, bin_width):
    rows, lengths = band
    rng = np.random.default_rng(seed)
    scorer = XCorrScorer(bin_width=bin_width)
    ladders = by_ion_ladders(rows, lengths)
    padded = lengths is not None
    # one member's vector, shorter than some ladders reach
    processed = rng.normal(size=int(rng.integers(0, 400)))
    got = scorer._ladder_matrix_scores(processed, ladders.copy(), padded=padded)
    want = _sorting_ladder_scores(scorer, processed, ladders.copy(), padded=padded)
    assert all(_bits(g) == _bits(w) for g, w in zip(got, want))
    # a cohort: each row against its own member's slice of the concatenation
    limits = rng.integers(0, 300, size=len(rows))
    bases = rng.integers(0, 100, size=len(rows))
    processed = rng.normal(size=int((bases + limits).max()) + 1)
    got = scorer._ladder_matrix_scores(processed, ladders.copy(), limits[:, None], bases, padded)
    want = _sorting_ladder_scores(scorer, processed, ladders.copy(), limits[:, None], bases, padded)
    assert all(_bits(g) == _bits(w) for g, w in zip(got, want))


# -- Spectrum.from_peaks: sorted peaks taken as they are ---------------------


def _sort_and_merge(mz, intensity):
    """``from_peaks``' arrays by the sort-and-merge path alone."""
    mz = np.asarray(mz, dtype=np.float64)
    intensity = np.asarray(intensity, dtype=np.float64)
    order = np.argsort(mz, kind="stable")
    mz, intensity = mz[order], intensity[order]
    if len(mz):
        keep = np.concatenate(([True], np.diff(mz) > 0))
        group = np.cumsum(keep) - 1
        summed = np.zeros(int(group[-1]) + 1)
        np.add.at(summed, group, intensity)
        mz, intensity = mz[keep], summed
    return mz, intensity


@st.composite
def peak_lists(draw):
    """Zero, one or many peaks: strictly ascending, unsorted or with
    duplicate m/z; intensities with ``-0.0`` and ``0.0``."""
    n = draw(st.integers(0, 12))
    mz = draw(
        st.lists(st.sampled_from([50.0, 100.25, 100.5, 333.0, 1000.0, 1500.125]), min_size=n, max_size=n)
        | st.lists(st.floats(1.0, 2000.0), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        mz = sorted(set(mz))  # strictly ascending
    k = len(mz)
    intensity = draw(
        st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5, 1e-300]) | st.floats(0.0, 1e6), min_size=k, max_size=k)
    )
    return np.array(mz, dtype=np.float64), np.array(intensity, dtype=np.float64)


@given(peak_lists())
@settings(max_examples=400, deadline=None)
def test_from_peaks_equals_sort_and_merge(peaks):
    mz, intensity = peaks
    mz_before, int_before = mz.copy(), intensity.copy()
    spectrum = Spectrum.from_peaks(mz, intensity, 500.0, 2, 7)
    want_mz, want_int = _sort_and_merge(mz, intensity)
    assert _bits(spectrum.mz) == _bits(want_mz)
    assert _bits(spectrum.intensity) == _bits(want_int)
    # the caller's arrays are neither frozen nor changed nor shared
    assert mz.flags.writeable and intensity.flags.writeable
    assert _bits(mz) == _bits(mz_before) and _bits(intensity) == _bits(int_before)
    assert not np.shares_memory(spectrum.mz, mz)
    assert not np.shares_memory(spectrum.intensity, intensity)


def test_sorted_peaks_with_negative_zero_intensity_become_positive_zero():
    spectrum = Spectrum.from_peaks(np.array([100.0, 200.0]), np.array([-0.0, 3.0]), 500.0)
    assert _bits(spectrum.intensity) == _bits(np.array([0.0, 3.0]))


@pytest.mark.parametrize("mz", [[100.0, 200.0], [200.0, 100.0]])
def test_peaks_and_intensities_of_different_lengths_are_refused(mz):
    for intensity in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(SpectrumError):
            Spectrum.from_peaks(np.array(mz), np.array(intensity), 500.0)


def test_a_nan_mz_is_refused_before_the_merge():
    # neither path takes it: the sorted one's test fails on NaN, and the
    # sort and merge would fold it into its neighbour
    for mz in ([100.0, np.nan], [np.nan, 100.0], [np.nan]):
        with pytest.raises(SpectrumError, match="finite"):
            Spectrum.from_peaks(np.array(mz), np.ones(len(mz)), 500.0)


# -- _ragged_arange -----------------------------------------------------------


def _repeat_ramp(starts, lengths):
    """The former ``_ragged_arange``: two repeats, an arange and a ramp."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    prev = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    ramp = np.arange(total, dtype=np.int64) - np.repeat(prev, lengths)
    return np.repeat(starts, lengths) + ramp


@given(
    st.lists(
        st.tuples(st.integers(-10**12, 10**12), st.integers(0, 6) | st.just(0)),
        max_size=40,
    ),
    st.sampled_from([np.int64, np.int32]),
)
@settings(max_examples=400, deadline=None)
def test_ragged_arange_equals_the_repeat_ramp(runs, dtype):
    starts = np.array([s for s, _l in runs], dtype=np.int64)
    if dtype is np.int32:
        starts = (starts % 2**31).astype(np.int32)
    lengths = np.array([l for _s, l in runs], dtype=np.int64)
    got = _ragged_arange(starts, lengths)
    want = _repeat_ramp(starts, lengths)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
