"""Unit tests for tryptic digestion: cleavage sites and trypsin's peptide spans."""

import pytest

from repro.chem.amino_acids import encode_sequence
from repro.chem.digest import cleavage_sites
from repro.chem.enzymes import PROTEASES

TRYPSIN = PROTEASES["trypsin"]


def spans_to_strs(seq, spans):
    return [seq[a:b] for a, b in spans]


class TestCleavageSites:
    def test_cleaves_after_k_and_r(self):
        sites = cleavage_sites(encode_sequence("AKARA"))
        assert list(sites) == [1, 3]

    def test_no_cleavage_before_proline(self):
        # KP and RP bonds survive trypsin
        assert list(cleavage_sites(encode_sequence("AKPA"))) == []
        assert list(cleavage_sites(encode_sequence("ARPA"))) == []

    def test_terminal_kr_not_a_site(self):
        # the sequence end is a fragment boundary anyway
        assert list(cleavage_sites(encode_sequence("AAK"))) == []

    def test_empty_sequence(self):
        assert len(cleavage_sites(encode_sequence(""))) == 0


class TestTrypticPeptides:
    def test_simple_digest(self):
        seq = "AAKBBRCC".replace("B", "G")  # AAK | GGR | CC
        spans = list(TRYPSIN.peptides(encode_sequence(seq)))
        assert spans_to_strs(seq, spans) == ["AAK", "GGR", "CC"]

    def test_missed_cleavages(self):
        seq = "AAKGGRCC"
        spans = list(TRYPSIN.peptides(encode_sequence(seq), missed_cleavages=1))
        assert spans_to_strs(seq, spans) == ["AAK", "AAKGGR", "GGR", "GGRCC", "CC"]

    def test_two_missed_cleavages_include_full_sequence(self):
        seq = "AAKGGRCC"
        spans = set(spans_to_strs(seq, TRYPSIN.peptides(encode_sequence(seq), 2)))
        assert seq in spans

    def test_length_filters(self):
        seq = "AAKGGRCC"
        spans = list(TRYPSIN.peptides(encode_sequence(seq), 1, min_length=4))
        assert spans_to_strs(seq, spans) == ["AAKGGR", "GGRCC"]

    def test_no_sites_yields_whole_sequence(self):
        seq = "AAAAA"
        spans = list(TRYPSIN.peptides(encode_sequence(seq)))
        assert spans_to_strs(seq, spans) == [seq]

    def test_trailing_k_produces_no_empty_fragment(self):
        seq = "AAKGGK"
        spans = list(TRYPSIN.peptides(encode_sequence(seq)))
        assert spans_to_strs(seq, spans) == ["AAK", "GGK"]
        assert all(b > a for a, b in spans)

    def test_negative_missed_cleavages_rejected(self):
        with pytest.raises(ValueError):
            list(TRYPSIN.peptides(encode_sequence("AAK"), -1))

    def test_spans_cover_sequence_exactly_at_zero_missed(self):
        seq = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEK"
        spans = list(TRYPSIN.peptides(encode_sequence(seq), 0))
        covered = "".join(seq[a:b] for a, b in spans)
        assert covered == seq
