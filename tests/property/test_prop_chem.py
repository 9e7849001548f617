"""Property-based tests for mass arithmetic and digestion invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import decode_sequence, encode_sequence
from repro.chem.digest import cleavage_sites
from repro.chem.enzymes import PROTEASES
from repro.chem.peptide import mz_to_mass, peptide_mass, peptide_mz
from repro.chem.protein import ProteinDatabase
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


# -- ProteinDatabase.subset: one gather, equal to the per-sequence copy ----


def subset_by_loop(db: ProteinDatabase, indices: np.ndarray) -> ProteinDatabase:
    """``subset`` as a per-sequence slice assignment: the oracle."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return ProteinDatabase.empty()
    lengths = db.lengths[indices]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    residues = np.empty(int(offsets[-1]), dtype=np.uint8)
    starts = db.offsets[:-1]
    for out, idx in enumerate(indices):
        first = starts[idx]
        residues[offsets[out] : offsets[out + 1]] = db.residues[first : first + lengths[out]]
    names = [db._names[i] for i in indices] if db._names is not None else None
    masses = db._parent_masses[indices] if db._parent_masses is not None else None
    return ProteinDatabase(residues, offsets, db.ids[indices], names, _parent_masses=masses)


def assert_same_database(got: ProteinDatabase, want: ProteinDatabase) -> None:
    assert got.residues.dtype == want.residues.dtype
    for name in ("residues", "offsets", "ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got._names == want._names
    assert (got._parent_masses is None) == (want._parent_masses is None)
    if want._parent_masses is not None:
        assert np.array_equal(got._parent_masses, want._parent_masses)


@st.composite
def picks(draw):
    """A database and indices into it: empty, one, repeated, reversed or
    negative picks among them."""
    seqs = draw(st.lists(sequences, min_size=1, max_size=10))
    n = len(seqs)
    indices = draw(
        st.one_of(
            st.just([]),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=1),
            st.lists(st.integers(-n, n - 1), min_size=1, max_size=25),
            st.just(list(range(n))[::-1]),
        )
    )
    return ProteinDatabase.from_sequences(seqs), np.array(indices, dtype=np.int64)


@given(picks(), st.booleans())
@settings(max_examples=120)
def test_subset_equals_the_loop(picked, cached):
    """With and without the parent-mass cache filled beforehand."""
    db, indices = picked
    if cached:
        db.parent_masses()
    got, want = db.subset(indices), subset_by_loop(db, indices)
    assert_same_database(got, want)
    assert (got._parent_masses is not None) == (cached and len(indices) > 0)
