"""Unit tests for isotope envelope modeling and its simulator integration."""

import numpy as np
import pytest

from repro.chem.amino_acids import encode_sequence
from repro.spectra.experimental import SimulatorConfig, SpectrumSimulator
from repro.spectra.isotopes import (
    ISOTOPE_SPACING,
    envelope_probabilities,
    expand_with_isotopes,
)
from repro.spectra.preprocess import deisotope
from tests.reference import score

PEPTIDE = encode_sequence("MKTAYIAKQRQISFVK")


class TestEnvelope:
    def test_monoisotopic_is_reference(self):
        rel = envelope_probabilities(1000.0)
        assert rel[0] == 1.0

    def test_satellites_grow_with_mass(self):
        small = envelope_probabilities(500.0)
        large = envelope_probabilities(3000.0)
        assert large[1] > small[1]

    def test_known_regime(self):
        # ~1.2 kDa peptide: +1 peak roughly half the monoisotopic
        rel = envelope_probabilities(1200.0)
        assert 0.4 < rel[1] < 0.9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            envelope_probabilities(0.0)
        with pytest.raises(ValueError):
            envelope_probabilities(100.0, max_isotopes=-1)


class TestExpand:
    def test_adds_satellites_at_spacing(self):
        mz, inten = expand_with_isotopes(np.array([1000.0]), np.array([1.0]))
        assert 1000.0 in mz
        assert any(np.isclose(mz, 1000.0 + ISOTOPE_SPACING))

    def test_small_fragments_skip_satellites(self):
        # a tiny fragment's +1 relative abundance falls below the default cutoff
        mz, _ = expand_with_isotopes(np.array([90.0]), np.array([1.0]), min_relative=0.06)
        assert len(mz) == 1

    def test_charge_halves_spacing(self):
        mz, _ = expand_with_isotopes(np.array([1000.0]), np.array([1.0]), charge=2)
        sats = np.sort(mz)[1:]
        assert np.isclose(sats[0] - 1000.0, ISOTOPE_SPACING / 2)

    def test_invalid_charge(self):
        with pytest.raises(ValueError):
            expand_with_isotopes(np.array([1.0]), np.array([1.0]), charge=0)


class TestSimulatorIntegration:
    def test_envelope_enlarges_spectra(self):
        base = SimulatorConfig(noise_peaks=0.0, peak_dropout=0.1)
        iso = SimulatorConfig(noise_peaks=0.0, peak_dropout=0.1, isotope_envelope=True)
        plain = SpectrumSimulator(base, seed=7).simulate(PEPTIDE, query_id=0)
        enveloped = SpectrumSimulator(iso, seed=7).simulate(PEPTIDE, query_id=0)
        assert enveloped.num_peaks > plain.num_peaks

    def test_deisotope_recovers_plain_peak_count(self):
        iso = SimulatorConfig(
            noise_peaks=0.0, peak_dropout=0.1, mz_jitter_sd=0.001, isotope_envelope=True
        )
        enveloped = SpectrumSimulator(iso, seed=8).simulate(PEPTIDE, query_id=0)
        cleaned = deisotope(tolerance=0.01)(enveloped)
        # most satellites removed: peak count shrinks substantially
        assert cleaned.num_peaks < enveloped.num_peaks
        assert cleaned.num_peaks <= enveloped.num_peaks * 0.75

    def test_search_quality_unharmed_by_envelope_plus_deisotope(self):
        from repro.scoring.likelihood import LikelihoodRatioScorer

        iso = SimulatorConfig(noise_peaks=3.0, peak_dropout=0.2, isotope_envelope=True)
        spectrum = SpectrumSimulator(iso, seed=9).simulate(PEPTIDE, query_id=0)
        cleaned = deisotope(tolerance=0.02)(spectrum)
        assert score(LikelihoodRatioScorer(), cleaned, PEPTIDE) > 0
