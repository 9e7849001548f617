"""Unit tests for repro.spectra.theoretical (ion models)."""

import numpy as np
import pytest

from repro.chem.amino_acids import encode_sequence
from repro.chem.peptide import peptide_mass
from repro.constants import MONOISOTOPIC_MASS, PROTON_MASS, WATER_MASS
from repro.spectra.theoretical import IonSeries, fragment_mz, theoretical_spectrum
from tests.reference import by_ion_ladder


class TestFragmentMz:
    def test_b_ion_count(self):
        enc = encode_sequence("PEPTIDE")
        assert len(fragment_mz(enc, IonSeries.B)) == 6

    def test_b1_value(self):
        enc = encode_sequence("PEPTIDE")
        b = fragment_mz(enc, IonSeries.B)
        assert b[0] == pytest.approx(MONOISOTOPIC_MASS["P"] + PROTON_MASS)

    def test_y1_value(self):
        enc = encode_sequence("PEPTIDE")
        y = fragment_mz(enc, IonSeries.Y)
        assert y[0] == pytest.approx(
            MONOISOTOPIC_MASS["E"] + WATER_MASS + PROTON_MASS
        )

    def test_a_is_b_minus_co(self):
        enc = encode_sequence("PEPTIDE")
        a = fragment_mz(enc, IonSeries.A)
        b = fragment_mz(enc, IonSeries.B)
        assert np.allclose(b - a, 27.994915)

    def test_complementarity(self):
        # b_i + y_(L-i) = parent mass + 2 protons (for singly charged)
        enc = encode_sequence("MKTAYIAK")
        b = fragment_mz(enc, IonSeries.B)
        y = fragment_mz(enc, IonSeries.Y)
        parent = peptide_mass(enc)
        for i in range(len(enc) - 1):
            assert b[i] + y[len(enc) - 2 - i] == pytest.approx(parent + 2 * PROTON_MASS)

    def test_doubly_charged_fragments(self):
        enc = encode_sequence("PEPTIDE")
        z1 = fragment_mz(enc, IonSeries.B, charge=1)
        z2 = fragment_mz(enc, IonSeries.B, charge=2)
        assert np.allclose(z2, (z1 + PROTON_MASS) / 2)

    def test_single_residue_has_no_fragments(self):
        assert len(fragment_mz(encode_sequence("K"), IonSeries.B)) == 0

    def test_invalid_charge(self):
        with pytest.raises(ValueError):
            fragment_mz(encode_sequence("PEK"), IonSeries.B, charge=0)


class TestTheoreticalSpectrum:
    def test_sorted_output(self):
        mz, inten = theoretical_spectrum(encode_sequence("MKTAYIAK"))
        assert np.all(np.diff(mz) >= 0)
        assert len(mz) == len(inten) == 2 * 7

    def test_y_series_strongest(self):
        mz, inten = theoretical_spectrum(encode_sequence("PEPTIDE"))
        assert inten.max() == pytest.approx(1.0)  # y weight

    def test_multiple_charges_expand_peaks(self):
        enc = encode_sequence("PEPTIDEK")
        mz1, _ = theoretical_spectrum(enc, charges=(1,))
        mz12, _ = theoretical_spectrum(enc, charges=(1, 2))
        assert len(mz12) == 2 * len(mz1)

    def test_empty_for_single_residue(self):
        mz, inten = theoretical_spectrum(encode_sequence("K"))
        assert len(mz) == 0


class TestByIonLadder:
    def test_matches_concatenated_series(self):
        enc = encode_sequence("MKTAYIAK")
        ladder = by_ion_ladder(enc)
        expected = np.sort(
            np.concatenate(
                [fragment_mz(enc, IonSeries.B), fragment_mz(enc, IonSeries.Y)]
            )
        )
        assert np.allclose(ladder, expected)

    def test_sorted(self):
        ladder = by_ion_ladder(encode_sequence("ACDEFGHIKLMNPQRSTVWY"))
        assert np.all(np.diff(ladder) >= 0)

    def test_short_peptides_empty(self):
        assert len(by_ion_ladder(encode_sequence("A"))) == 0
        assert len(by_ion_ladder(np.empty(0, dtype=np.uint8))) == 0
