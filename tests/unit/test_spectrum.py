"""Unit tests for repro.spectra.spectrum."""

import numpy as np
import pytest

from repro.chem.peptide import mz_to_mass
from repro.errors import SpectrumError
from repro.spectra.spectrum import Spectrum


def make(mz, intensity=None, precursor=1000.0, charge=1, qid=0):
    mz = np.asarray(mz, dtype=float)
    if intensity is None:
        intensity = np.ones_like(mz)
    return Spectrum(mz, np.asarray(intensity, dtype=float), precursor, charge, qid)


class TestInvariants:
    def test_valid_construction(self):
        s = make([100.0, 200.0, 300.0])
        assert s.num_peaks == 3

    def test_unsorted_mz_rejected(self):
        with pytest.raises(SpectrumError):
            make([200.0, 100.0])

    def test_duplicate_mz_rejected(self):
        with pytest.raises(SpectrumError):
            make([100.0, 100.0])

    def test_nonpositive_mz_rejected(self):
        with pytest.raises(SpectrumError):
            make([0.0, 100.0])

    def test_negative_intensity_rejected(self):
        with pytest.raises(SpectrumError):
            make([100.0], intensity=[-1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(SpectrumError):
            Spectrum(np.array([1.0, 2.0]), np.array([1.0]), 500.0)

    def test_bad_precursor_rejected(self):
        with pytest.raises(SpectrumError):
            make([100.0], precursor=0.0)

    def test_bad_charge_rejected(self):
        with pytest.raises(SpectrumError):
            make([100.0], charge=0)

    def test_arrays_frozen(self):
        s = make([100.0, 200.0])
        with pytest.raises(ValueError):
            s.mz[0] = 1.0
        with pytest.raises(ValueError):
            s.intensity[0] = 1.0

    def test_unpickled_arrays_frozen_without_revalidating(self, monkeypatch):
        """The multiproc engine ships spectra pickled (spawn): they come
        back equal and read-only, and ``__post_init__`` does not run again."""
        import pickle

        s = make([100.0, 200.0], intensity=[3.0, 0.5], precursor=512.25, charge=2, qid=7)
        payload = pickle.dumps(s)
        monkeypatch.setattr(Spectrum, "__post_init__", lambda self: pytest.fail("revalidated"))
        back = pickle.loads(payload)
        assert (back.precursor_mz, back.charge, back.query_id) == (512.25, 2, 7)
        assert back.mz.tolist() == [100.0, 200.0] and back.intensity.tolist() == [3.0, 0.5]
        with pytest.raises(ValueError):
            back.mz[0] = 1.0
        with pytest.raises(ValueError):
            back.intensity[0] = 1.0

    def test_empty_spectrum_allowed(self):
        s = make([])
        assert s.num_peaks == 0


class TestDerived:
    def test_parent_mass(self):
        s = make([100.0], precursor=500.0, charge=2)
        assert s.parent_mass == pytest.approx(mz_to_mass(500.0, 2))

    def test_nbytes_positive(self):
        assert make([100.0, 200.0]).nbytes > 0


class TestFromPeaks:
    def test_sorts_unsorted_input(self):
        s = Spectrum.from_peaks(
            np.array([300.0, 100.0, 200.0]), np.array([3.0, 1.0, 2.0]), 1000.0
        )
        assert list(s.mz) == [100.0, 200.0, 300.0]
        assert list(s.intensity) == [1.0, 2.0, 3.0]

    def test_merges_duplicate_mz(self):
        s = Spectrum.from_peaks(
            np.array([100.0, 100.0, 200.0]), np.array([1.0, 4.0, 2.0]), 1000.0
        )
        assert list(s.mz) == [100.0, 200.0]
        assert list(s.intensity) == [5.0, 2.0]

    def test_empty(self):
        s = Spectrum.from_peaks(np.array([]), np.array([]), 1000.0)
        assert s.num_peaks == 0
