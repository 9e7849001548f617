"""Property-based tests for mass arithmetic and digestion invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import decode_sequence, encode_sequence
from repro.chem.digest import cleavage_sites
from repro.chem.enzymes import PROTEASES
from repro.chem.peptide import mz_to_mass, peptide_mass, peptide_mz
from repro.constants import AMINO_ACIDS, WATER_MASS

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=60)
nonempty = sequences.filter(lambda s: len(s) >= 2)
TRYPSIN = PROTEASES["trypsin"]


@given(sequences)
def test_encode_decode_roundtrip(seq):
    assert decode_sequence(encode_sequence(seq)) == seq


@given(sequences, sequences)
def test_mass_additivity(a, b):
    """mass(a + b) = mass(a) + mass(b) - water (one bond, one water)."""
    total = peptide_mass(encode_sequence(a + b))
    assert total == np.float64(total)
    parts = peptide_mass(encode_sequence(a)) + peptide_mass(encode_sequence(b)) - WATER_MASS
    assert abs(total - parts) < 1e-6


@given(sequences)
def test_mass_permutation_invariant(seq):
    shuffled = "".join(sorted(seq))
    assert abs(peptide_mass(encode_sequence(seq)) - peptide_mass(encode_sequence(shuffled))) < 1e-6


@given(sequences, st.integers(min_value=1, max_value=5))
def test_mz_roundtrip(seq, charge):
    mass = peptide_mass(encode_sequence(seq))
    assert abs(mz_to_mass(peptide_mz(mass, charge), charge) - mass) < 1e-9


@given(nonempty, st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_digest_spans_valid_and_within_bounds(seq, missed):
    enc = encode_sequence(seq)
    spans = list(TRYPSIN.peptides(enc, missed_cleavages=missed))
    for start, stop in spans:
        assert 0 <= start < stop <= len(seq)


@given(nonempty)
def test_zero_missed_digest_is_a_partition(seq):
    enc = encode_sequence(seq)
    spans = list(TRYPSIN.peptides(enc, 0))
    covered = "".join(seq[a:b] for a, b in spans)
    assert covered == seq
    # fragments are non-overlapping and ordered
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 == a2


@given(nonempty, st.integers(min_value=0, max_value=2))
def test_higher_missed_cleavage_is_superset(seq, missed):
    enc = encode_sequence(seq)
    lower = set(TRYPSIN.peptides(enc, missed))
    higher = set(TRYPSIN.peptides(enc, missed + 1))
    assert lower <= higher


@given(nonempty)
def test_cleavage_sites_are_k_or_r_not_before_p(seq):
    enc = encode_sequence(seq)
    for site in cleavage_sites(enc):
        assert seq[site] in "KR"
        assert site + 1 >= len(seq) or seq[site + 1] != "P"
