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


class TestNonFinite:
    """NaN fails every comparison, so each invariant is checked in a form
    NaN cannot pass; infinities are refused beside it."""

    @pytest.mark.parametrize(
        "mz",
        [[np.nan], [100.0, np.nan], [np.nan, 100.0], [100.0, np.nan, 300.0], [100.0, np.inf]],
    )
    def test_non_finite_mz_rejected(self, mz):
        with pytest.raises(SpectrumError, match="finite"):
            make(mz)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_intensity_rejected(self, value):
        with pytest.raises(SpectrumError, match="finite"):
            make([100.0, 200.0], intensity=[1.0, value])

    @pytest.mark.parametrize("precursor", [np.nan, np.inf])
    def test_non_finite_precursor_rejected(self, precursor):
        with pytest.raises(SpectrumError, match="finite"):
            make([100.0], precursor=precursor)

    @pytest.mark.parametrize("mz", [[100.0, np.nan], [np.nan, 100.0], [300.0, np.inf, 100.0]])
    def test_from_peaks_refuses_before_the_merge(self, mz):
        # the sort-and-merge path would fold the NaN peak into 100.0
        with pytest.raises(SpectrumError, match="finite"):
            Spectrum.from_peaks(np.array(mz), np.ones(len(mz)), 500.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_from_peaks_refuses_a_non_finite_intensity(self, value):
        with pytest.raises(SpectrumError, match="finite"):
            Spectrum.from_peaks(np.array([200.0, 100.0]), np.array([value, 1.0]), 500.0)

    def test_an_mgf_peak_reading_nan_is_refused(self):
        import io

        from repro.spectra.mgf import read_mgf

        text = "BEGIN IONS\nPEPMASS=500\n100.0 1\nnan 1\nEND IONS\n"
        with pytest.raises(SpectrumError, match="finite"):
            read_mgf(io.StringIO(text))
