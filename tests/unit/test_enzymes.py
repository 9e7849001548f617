"""Unit tests for generalized proteases."""

import numpy as np
import pytest

from repro.chem.amino_acids import encode_sequence
from repro.chem.digest import cleavage_sites
from repro.chem.enzymes import PROTEASES, Protease, get_protease
from repro.errors import InvalidSequenceError


def spans_to_strs(seq, spans):
    return [seq[a:b] for a, b in spans]


class TestProtease:
    def test_trypsin_matches_digest_module(self):
        trypsin = PROTEASES["trypsin"]
        for seq in ("AKARPA", "MKTAYIAKQRQISFVK", "GGGG", "KKKK", "AKP"):
            enc = encode_sequence(seq)
            assert np.array_equal(trypsin.cleavage_sites(enc), cleavage_sites(enc)), seq

    def test_lysc_cuts_only_after_k(self):
        enc = encode_sequence("AKARA")
        assert list(PROTEASES["lys-c"].cleavage_sites(enc)) == [1]

    def test_lysc_ignores_proline_rule(self):
        enc = encode_sequence("AKPA")
        assert list(PROTEASES["lys-c"].cleavage_sites(enc)) == [1]

    def test_gluc_cuts_after_e(self):
        seq = "PEPTIDE"
        spans = list(PROTEASES["glu-c"].peptides(encode_sequence(seq)))
        assert spans_to_strs(seq, spans) == ["PE", "PTIDE"]

    def test_chymotrypsin_aromatic_sites(self):
        enc = encode_sequence("AFAWAYALA")
        sites = PROTEASES["chymotrypsin"].cleavage_sites(enc)
        assert list(sites) == [1, 3, 5, 7]

    def test_chymotrypsin_proline_block(self):
        enc = encode_sequence("AFPA")
        assert len(PROTEASES["chymotrypsin"].cleavage_sites(enc)) == 0

    def test_trypsin_p_variant_cuts_before_proline(self):
        enc = encode_sequence("AKPA")
        assert list(PROTEASES["trypsin/p"].cleavage_sites(enc)) == [1]

    def test_peptides_cover_sequence(self):
        seq = "AFAWAYALAEKD"
        for protease in PROTEASES.values():
            spans = list(protease.peptides(encode_sequence(seq), 0))
            assert "".join(seq[a:b] for a, b in spans) == seq, protease.name

    def test_invalid_residue_rule(self):
        with pytest.raises(InvalidSequenceError):
            Protease("bogus", "KX")

    def test_empty_rule_rejected(self):
        with pytest.raises(ValueError):
            Protease("nothing", "")

    def test_get_protease(self):
        assert get_protease("trypsin").name == "trypsin"
        with pytest.raises(KeyError):
            get_protease("pacman")

    def test_missed_cleavages_validated(self):
        with pytest.raises(ValueError):
            list(PROTEASES["trypsin"].peptides(encode_sequence("AKA"), -1))

    def test_empty_sequence(self):
        assert len(PROTEASES["trypsin"].cleavage_sites(encode_sequence(""))) == 0
