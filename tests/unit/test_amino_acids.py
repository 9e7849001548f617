"""Unit tests for repro.chem.amino_acids."""

import numpy as np
import pytest

from repro.chem.amino_acids import (
    RESIDUE_CODES,
    Modification,
    STANDARD_MODIFICATIONS,
    decode_sequence,
    encode_sequence,
    is_valid_sequence,
    mass_table,
)
from repro.constants import AMINO_ACIDS, MONOISOTOPIC_MASS
from repro.errors import InvalidSequenceError


class TestEncoding:
    def test_roundtrip(self):
        s = "PEPTIDEK"
        assert decode_sequence(encode_sequence(s)) == s

    def test_encoded_dtype_and_values(self):
        enc = encode_sequence("ACD")
        assert enc.dtype == np.uint8
        assert list(enc) == [ord("A"), ord("C"), ord("D")]

    def test_empty_sequence_encodes_to_empty_array(self):
        assert len(encode_sequence("")) == 0

    def test_invalid_residue_raises(self):
        with pytest.raises(InvalidSequenceError, match="X"):
            encode_sequence("PEPXTIDE")

    def test_lowercase_rejected(self):
        with pytest.raises(InvalidSequenceError):
            encode_sequence("peptide")

    def test_b_j_o_u_z_rejected(self):
        # non-standard IUPAC codes must not silently pass
        for ch in "BJOUZ":
            with pytest.raises(InvalidSequenceError):
                encode_sequence(f"AA{ch}AA")

    def test_validation_can_be_skipped(self):
        enc = encode_sequence("AXA", validate=False)
        assert len(enc) == 3
        assert not is_valid_sequence(enc)

    def test_encoded_array_is_writable_copy(self):
        enc = encode_sequence("AAA")
        enc[0] = ord("C")  # must not raise (frombuffer views are read-only)
        assert decode_sequence(enc) == "CAA"


class TestMassTable:
    def test_all_twenty_residues_present(self):
        table = mass_table()
        for aa in AMINO_ACIDS:
            assert table[ord(aa)] == pytest.approx(MONOISOTOPIC_MASS[aa])

    def test_invalid_codes_are_nan(self):
        table = mass_table()
        assert np.isnan(table[ord("X")])
        assert np.isnan(table[0])

    def test_table_is_read_only(self):
        table = mass_table()
        with pytest.raises(ValueError):
            table[ord("A")] = 0.0

    def test_average_differs_from_monoisotopic(self):
        assert mass_table(True)[ord("A")] != mass_table(False)[ord("A")]

    def test_leucine_isoleucine_isobaric(self):
        # L and I are indistinguishable by mass — a fundamental MS fact
        table = mass_table()
        assert table[ord("L")] == table[ord("I")]

class TestIsValidSequence:
    def test_requires_uint8(self):
        with pytest.raises(TypeError):
            is_valid_sequence(np.array([65, 67], dtype=np.int64))

    def test_empty_is_valid(self):
        assert is_valid_sequence(np.empty(0, dtype=np.uint8))


class TestModifications:
    def test_standard_modifications_target_valid_residues(self):
        for mod in STANDARD_MODIFICATIONS.values():
            assert mod.target in AMINO_ACIDS

    def test_invalid_target_raises(self):
        with pytest.raises(InvalidSequenceError):
            Modification("bogus", "X", 1.0)

    def test_residue_codes_cover_alphabet(self):
        assert len(RESIDUE_CODES) == 20
        assert decode_sequence(RESIDUE_CODES) == AMINO_ACIDS
