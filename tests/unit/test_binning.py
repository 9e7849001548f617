"""Unit tests for repro.spectra.binning and the scalar peak matchers
the batched ones are checked against (``tests/reference.py``)."""

import numpy as np
import pytest

from repro.spectra.binning import bin_spectrum
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
