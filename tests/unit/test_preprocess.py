"""Unit tests for spectrum preprocessing."""

import numpy as np
import pytest

from repro.spectra.preprocess import (
    DEFAULT_PIPELINE,
    deisotope,
    keep_top_k_per_window,
    preprocess,
    remove_low_intensity,
    remove_precursor_peaks,
    sqrt_transform,
)
from repro.spectra.spectrum import Spectrum
from tests.reference import score


def make(mz, intensity, precursor=1500.0, charge=1):
    return Spectrum(np.asarray(mz, float), np.asarray(intensity, float), precursor, charge, 0)


class TestRemoveLowIntensity:
    def test_drops_below_floor(self):
        s = make([100.0, 200.0, 300.0], [100.0, 0.5, 2.0])
        out = remove_low_intensity(0.01)(s)
        assert list(out.mz) == [100.0, 300.0]

    def test_keeps_all_when_threshold_zero(self):
        s = make([100.0, 200.0], [1.0, 100.0])
        assert remove_low_intensity(0.0)(s).num_peaks == 2

    def test_empty_noop(self):
        s = make([], [])
        assert remove_low_intensity()(s) is s

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            remove_low_intensity(1.0)


class TestTopKPerWindow:
    def test_keeps_k_per_window(self):
        mz = [100.0, 110.0, 120.0, 250.0, 260.0]
        inten = [5.0, 9.0, 1.0, 3.0, 7.0]
        out = keep_top_k_per_window(k=2, window=100.0)(make(mz, inten))
        assert list(out.mz) == [100.0, 110.0, 250.0, 260.0]

    def test_noop_when_few_peaks(self):
        s = make([100.0], [1.0])
        assert keep_top_k_per_window(k=5)(s) is s

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            keep_top_k_per_window(k=0)
        with pytest.raises(ValueError):
            keep_top_k_per_window(window=0.0)


class TestDeisotope:
    def test_collapses_satellite(self):
        s = make([500.0, 501.00335], [10.0, 4.0])
        out = deisotope(0.01)(s)
        assert out.num_peaks == 1
        assert out.mz[0] == 500.0
        assert out.intensity[0] == pytest.approx(14.0)

    def test_keeps_larger_following_peak(self):
        # second peak more intense: not a satellite
        s = make([500.0, 501.00335], [4.0, 10.0])
        assert deisotope(0.01)(s).num_peaks == 2

    def test_unrelated_peaks_untouched(self):
        s = make([500.0, 502.5], [10.0, 4.0])
        assert deisotope(0.01)(s).num_peaks == 2

    def test_chain_of_satellites(self):
        s = make([500.0, 501.00335, 502.0067], [10.0, 6.0, 3.0])
        out = deisotope(0.01)(s)
        assert out.num_peaks == 1
        assert out.intensity[0] == pytest.approx(19.0)


class TestRemovePrecursor:
    def test_removes_near_precursor(self):
        s = make([500.0, 1499.5, 1600.0], [1.0, 1.0, 1.0], precursor=1500.0)
        out = remove_precursor_peaks(2.0)(s)
        assert list(out.mz) == [500.0, 1600.0]

    def test_charge2_positions_removed(self):
        from repro.chem.peptide import mz_to_mass, peptide_mz

        neutral = mz_to_mass(800.0, 2)
        one_plus = peptide_mz(neutral, 1)
        s = make([500.0, 800.0, one_plus], [1.0, 1.0, 1.0], precursor=800.0, charge=2)
        out = remove_precursor_peaks(1.0)(s)
        assert list(out.mz) == [500.0]


class TestSqrtAndPipeline:
    def test_sqrt(self):
        s = make([100.0], [16.0])
        assert sqrt_transform()(s).intensity[0] == 4.0

    def test_pipeline_composes(self):
        s = make([100.0, 101.00335, 1499.9], [100.0, 40.0, 5.0], precursor=1500.0)
        out = preprocess(s, DEFAULT_PIPELINE)
        assert out.num_peaks == 1  # satellite folded, precursor removed
        assert out.mz[0] == 100.0

    def test_pipeline_preserves_metadata(self):
        s = make([100.0, 200.0], [1.0, 2.0], precursor=1234.0)
        out = preprocess(s, DEFAULT_PIPELINE)
        assert out.precursor_mz == 1234.0
        assert out.query_id == 0

    def test_improves_scoring_on_noisy_spectrum(self):
        """Preprocessing must not hurt (and usually helps) the true match."""
        from repro.chem.amino_acids import encode_sequence
        from repro.scoring.likelihood import LikelihoodRatioScorer
        from repro.spectra.experimental import SimulatorConfig, SpectrumSimulator

        pep = encode_sequence("MKTAYIAKQRQISFVK")
        noisy_cfg = SimulatorConfig(peak_dropout=0.2, noise_peaks=40.0)
        raw = SpectrumSimulator(noisy_cfg, seed=5).simulate(pep, query_id=0)
        clean = preprocess(raw, (remove_low_intensity(0.02),))
        scorer = LikelihoodRatioScorer()
        assert score(scorer, clean, pep) >= score(scorer, raw, pep) - 5.0
