"""Unit tests for repro.chem.peptide."""

import pytest

from repro.chem.amino_acids import encode_sequence
from repro.chem.peptide import mz_to_mass, peptide_mass, peptide_mz
from repro.constants import MONOISOTOPIC_MASS, PROTON_MASS, WATER_MASS


class TestPeptideMass:
    def test_single_residue(self):
        assert peptide_mass(encode_sequence("G")) == pytest.approx(
            MONOISOTOPIC_MASS["G"] + WATER_MASS
        )

    def test_known_peptide(self):
        # glycylglycine: 2*G + water = 132.0535 Da (literature value)
        assert peptide_mass(encode_sequence("GG")) == pytest.approx(132.0535, abs=1e-3)

    def test_mass_is_order_independent(self):
        assert peptide_mass(encode_sequence("PEK")) == pytest.approx(
            peptide_mass(encode_sequence("KEP"))
        )

    def test_average_heavier_than_monoisotopic(self):
        enc = encode_sequence("PEPTIDEK")
        assert peptide_mass(enc, monoisotopic=False) > peptide_mass(enc, monoisotopic=True)


class TestMz:
    def test_charge_one(self):
        assert peptide_mz(1000.0, 1) == pytest.approx(1000.0 + PROTON_MASS)

    def test_charge_two_halves(self):
        mz2 = peptide_mz(1000.0, 2)
        assert mz2 == pytest.approx((1000.0 + 2 * PROTON_MASS) / 2)

    def test_roundtrip_with_mass(self):
        for z in (1, 2, 3):
            assert mz_to_mass(peptide_mz(1234.5, z), z) == pytest.approx(1234.5)

    def test_invalid_charge(self):
        with pytest.raises(ValueError):
            peptide_mz(100.0, 0)
        with pytest.raises(ValueError):
            mz_to_mass(100.0, -1)
