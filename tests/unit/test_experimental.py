"""Unit tests for the experimental-spectrum simulator."""

import numpy as np
import pytest

from repro.chem.amino_acids import encode_sequence
from repro.chem.peptide import peptide_mass, peptide_mz
from repro.spectra.experimental import SimulatorConfig, SpectrumSimulator
from tests.reference import by_ion_ladder

PEPTIDE = encode_sequence("MKTAYIAKQR")


class TestSimulatorConfig:
    def test_defaults_valid(self):
        SimulatorConfig()

    def test_dropout_bounds(self):
        with pytest.raises(ValueError):
            SimulatorConfig(peak_dropout=1.0)
        with pytest.raises(ValueError):
            SimulatorConfig(peak_dropout=-0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            SimulatorConfig(noise_peaks=-1)


class TestDeterminism:
    def test_same_seed_same_spectrum(self):
        a = SpectrumSimulator(seed=1).simulate(PEPTIDE, query_id=3)
        b = SpectrumSimulator(seed=1).simulate(PEPTIDE, query_id=3)
        assert np.array_equal(a.mz, b.mz)
        assert np.array_equal(a.intensity, b.intensity)
        assert a.precursor_mz == b.precursor_mz

    def test_different_query_ids_differ(self):
        sim = SpectrumSimulator(seed=1)
        a = sim.simulate(PEPTIDE, query_id=0)
        b = sim.simulate(PEPTIDE, query_id=1)
        assert not np.array_equal(a.mz, b.mz)

    def test_independent_of_call_order(self):
        sim1 = SpectrumSimulator(seed=2)
        _ = sim1.simulate(PEPTIDE, query_id=0)
        late = sim1.simulate(PEPTIDE, query_id=5)
        sim2 = SpectrumSimulator(seed=2)
        direct = sim2.simulate(PEPTIDE, query_id=5)
        assert np.array_equal(late.mz, direct.mz)


class TestPhysics:
    def test_precursor_near_true_mz(self):
        spec = SpectrumSimulator(seed=3).simulate(PEPTIDE, query_id=0)
        true_mz = peptide_mz(peptide_mass(PEPTIDE), 1)
        assert spec.precursor_mz == pytest.approx(true_mz, abs=0.05)

    def test_charge_propagates(self):
        spec = SpectrumSimulator(seed=3).simulate(PEPTIDE, query_id=0, charge=2)
        assert spec.charge == 2
        assert spec.parent_mass == pytest.approx(peptide_mass(PEPTIDE), abs=0.1)

    def test_most_peaks_near_ladder_with_low_noise(self):
        cfg = SimulatorConfig(peak_dropout=0.1, noise_peaks=0.0, mz_jitter_sd=0.01)
        spec = SpectrumSimulator(cfg, seed=4).simulate(PEPTIDE, query_id=0)
        ladder = by_ion_ladder(PEPTIDE)
        near = [np.any(np.abs(ladder - m) < 0.2) for m in spec.mz]
        assert all(near)

    def test_dropout_reduces_peak_count(self):
        lo = SpectrumSimulator(SimulatorConfig(peak_dropout=0.0, noise_peaks=0.0), seed=5)
        hi = SpectrumSimulator(SimulatorConfig(peak_dropout=0.8, noise_peaks=0.0, min_peaks=1), seed=5)
        assert (
            hi.simulate(PEPTIDE, query_id=0).num_peaks
            < lo.simulate(PEPTIDE, query_id=0).num_peaks
        )

    def test_zero_dropout_keeps_full_ladder(self):
        cfg = SimulatorConfig(peak_dropout=0.0, noise_peaks=0.0)
        spec = SpectrumSimulator(cfg, seed=6).simulate(PEPTIDE, query_id=0)
        assert spec.num_peaks == len(by_ion_ladder(PEPTIDE))

    def test_min_peaks_respected_under_heavy_dropout(self):
        cfg = SimulatorConfig(peak_dropout=0.95, noise_peaks=0.0, min_peaks=5)
        spec = SpectrumSimulator(cfg, seed=7).simulate(PEPTIDE, query_id=0)
        assert spec.num_peaks >= 5

    def test_noise_adds_peaks(self):
        quiet = SimulatorConfig(peak_dropout=0.0, noise_peaks=0.0)
        noisy = SimulatorConfig(peak_dropout=0.0, noise_peaks=30.0)
        a = SpectrumSimulator(quiet, seed=8).simulate(PEPTIDE, query_id=0)
        b = SpectrumSimulator(noisy, seed=8).simulate(PEPTIDE, query_id=0)
        assert b.num_peaks > a.num_peaks

    def test_query_id_recorded(self):
        spec = SpectrumSimulator(seed=9).simulate(PEPTIDE, query_id=42)
        assert spec.query_id == 42
