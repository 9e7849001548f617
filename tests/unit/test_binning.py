"""Unit tests for repro.spectra.binning and the scalar peak matchers
the batched ones are checked against (``tests/reference.py``)."""

import numpy as np
import pytest

from repro.spectra.binning import bin_spectrum, row_prefix_sums, row_segment_sums
from tests.reference import count_matches, match_peaks, matched_intensity


class TestBinSpectrum:
    def test_accumulates_into_bins(self):
        out = bin_spectrum(np.array([0.5, 1.5, 1.6]), np.array([1.0, 2.0, 3.0]), 1.0, 3.0)
        assert list(out) == [1.0, 5.0, 0.0]

    def test_drops_out_of_range(self):
        out = bin_spectrum(np.array([5.0]), np.array([1.0]), 1.0, 3.0)
        assert out.sum() == 0.0

    def test_bin_boundary_goes_to_upper_bin(self):
        out = bin_spectrum(np.array([1.0]), np.array([1.0]), 1.0, 3.0)
        assert list(out) == [0.0, 1.0, 0.0]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            bin_spectrum(np.array([1.0]), np.array([1.0]), 0.0, 3.0)
        with pytest.raises(ValueError):
            bin_spectrum(np.array([1.0]), np.array([1.0]), 1.0, -1.0)


class TestMatchPeaks:
    def test_exact_and_within_tolerance(self):
        obs = np.array([100.0, 150.0, 200.0])
        ladder = np.array([100.3, 199.8])
        mask = match_peaks(obs, ladder, 0.5)
        assert list(mask) == [True, False, True]

    def test_zero_tolerance_requires_exact(self):
        obs = np.array([100.0])
        assert not match_peaks(obs, np.array([100.0001]), 0.0)[0]
        assert match_peaks(obs, np.array([100.0]), 0.0)[0]

    def test_empty_ladder(self):
        mask = match_peaks(np.array([100.0]), np.array([]), 0.5)
        assert list(mask) == [False]

    def test_empty_observed(self):
        assert len(match_peaks(np.array([]), np.array([100.0]), 0.5)) == 0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            match_peaks(np.array([1.0]), np.array([1.0]), -0.1)

    def test_count_matches(self):
        obs = np.arange(100.0, 110.0)
        ladder = np.array([101.2, 105.1])
        assert count_matches(obs, ladder, 0.25) == 2

    def test_one_ladder_entry_can_explain_many_peaks(self):
        obs = np.array([99.9, 100.0, 100.1])
        assert count_matches(obs, np.array([100.0]), 0.2) == 3

    def test_matched_intensity(self):
        obs = np.array([100.0, 200.0, 300.0])
        inten = np.array([1.0, 10.0, 100.0])
        n, total = matched_intensity(obs, inten, np.array([200.0, 300.0]), 0.1)
        assert n == 2
        assert total == pytest.approx(110.0)


class TestRowSums:
    @staticmethod
    def _masked_segment_sums(values, flat_idx, row_offsets):
        """The formulation ``row_segment_sums`` replaced: ``np.unique`` over
        the segment lengths, then a ``counts == k`` mask per length."""
        out = np.zeros(len(row_offsets) - 1)
        counts = np.diff(row_offsets)
        for k in np.unique(counts):
            if k:
                rows = np.nonzero(counts == k)[0]
                out[rows] = values[flat_idx[row_offsets[rows][:, None] + np.arange(k)]].sum(axis=1)
        return out

    @pytest.mark.parametrize("seed", range(5))
    def test_segment_sums_equal_the_masked_formulation(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=500) * 10.0 ** rng.integers(-3, 4, 500)
        counts = rng.integers(0, 40, 300) * (rng.random(300) < 0.8)  # ~20 % empty
        row_offsets = np.concatenate(([0], np.cumsum(counts)))
        flat_idx = rng.integers(0, len(values), int(row_offsets[-1]))
        got = row_segment_sums(values, flat_idx, row_offsets)
        assert got.tobytes() == self._masked_segment_sums(values, flat_idx, row_offsets).tobytes()
        for r in range(len(counts)):  # ... and each row's own 1-D sum
            segment = values[flat_idx[row_offsets[r] : row_offsets[r + 1]]]
            assert got[r].tobytes() == np.float64(segment.sum() if len(segment) else 0.0).tobytes()

    def test_segment_sums_of_no_rows(self):
        out = row_segment_sums(np.ones(3), np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64))
        assert out.shape == (0,)

    @pytest.mark.parametrize("seed", range(3))
    def test_prefix_sums_read_each_row_to_its_width(self, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(200, 60)) * 10.0 ** rng.integers(-3, 4, (200, 60))
        widths = rng.integers(0, 61, 200)
        matrix[np.arange(60) >= widths[:, None]] = np.nan  # never read
        got = row_prefix_sums(matrix, widths)
        for r, w in enumerate(widths):
            want = matrix[r, :w].sum() if w else 0.0
            assert got[r].tobytes() == np.float64(want).tobytes()
        counts = row_prefix_sums(matrix > 0, widths)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, [(matrix[r, :w] > 0).sum() for r, w in enumerate(widths)])
        whole = matrix[:, :3].copy()
        assert row_prefix_sums(whole, None).tobytes() == whole.sum(axis=1).tobytes()
