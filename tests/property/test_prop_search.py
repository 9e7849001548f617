"""Property-based tests for candidate generation, partitioning, hits."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.mass_index import MassIndex
from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.peptide import peptide_mass
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS, PROTON_MASS
from repro.core.config import SearchConfig
from repro.core.partition import partition_bounds, partition_database
from repro.core.search import ShardSearcher
from repro.scoring.hits import Hit, TopHitList
from repro.spectra.spectrum import Spectrum
from tests.reference import offer_hits, reference_candidates, top_tau

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=40)
databases = st.lists(sequences, min_size=1, max_size=12).map(
    ProteinDatabase.from_sequences
)


_MODS = (
    STANDARD_MODIFICATIONS["oxidation"],
    STANDARD_MODIFICATIONS["phosphorylation_s"],
)


@given(
    databases,
    st.lists(st.floats(min_value=50.0, max_value=3000.0), min_size=0, max_size=8),
    st.sampled_from([0.0, 0.5, 3.0, 40.0]),
    st.sampled_from([(), _MODS[:1], _MODS]),
)
@settings(max_examples=80, deadline=None)
def test_reference_counts_equal_count_each(db, masses, delta, mods):
    """The oracle's definition-level enumeration and the engines' exact
    counting kernel (two binary searches per tier over the row table,
    a running presence count for a PTM tier) agree query by query."""
    queries = [
        Spectrum.from_peaks(
            np.empty(0), np.empty(0), precursor_mz=m + PROTON_MASS, charge=1, query_id=i
        )
        for i, m in enumerate(masses)
    ]
    cfg = SearchConfig(delta=delta, modifications=mods)
    counts = ShardSearcher(db, cfg).count_each(queries)
    assert counts.tolist() == [len(reference_candidates(db, cfg, q)) for q in queries]


@given(databases, st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_partition_concat_identity(db, p):
    shards = partition_database(db, p)
    assert ProteinDatabase.concat(shards) == db


@given(databases, st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_partition_bounds_sound(db, p):
    bounds = partition_bounds(db.offsets, p)
    assert bounds[0] == 0 and bounds[-1] == len(db)
    assert all(bounds[i] <= bounds[i + 1] for i in range(p))


@given(databases, st.floats(min_value=50.0, max_value=3000.0), st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_window_count_equals_enumeration(db, center, width):
    index = MassIndex(db)
    lo, hi = center - width, center + width
    assert index.count_in_window(lo, hi) == len(index.candidates_in_window(lo, hi))


@given(databases, st.floats(min_value=50.0, max_value=3000.0), st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_window_masses_within_bounds(db, center, width):
    index = MassIndex(db)
    lo, hi = center - width, center + width
    spans = index.candidates_in_window(lo, hi)
    assert np.all(spans.mass >= lo - 1e-9)
    assert np.all(spans.mass <= hi + 1e-9)


@given(
    databases,
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=50.0, max_value=3000.0),
    st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_shard_counts_sum_to_whole(db, p, center, width):
    """Candidate sets over shards partition the whole database's set."""
    lo, hi = center - width, center + width
    whole = MassIndex(db).count_in_window(lo, hi)
    parts = sum(
        MassIndex(s).count_in_window(lo, hi)
        for s in partition_database(db, p)
        if len(s)
    )
    assert whole == parts


@given(databases)
@settings(max_examples=40, deadline=None)
def test_span_masses_match_direct_mass(db):
    index = MassIndex(db)
    spans = index.candidates_in_window(0.0, 1e9)
    for k in range(len(spans)):
        seq = db.sequence(int(spans.seq_index[k]))
        sub = seq[int(spans.start[k]) : int(spans.stop[k])]
        assert abs(spans.mass[k] - peptide_mass(sub)) < 1e-6


hits = st.builds(
    Hit,
    query_id=st.just(0),
    score=st.floats(min_value=-100, max_value=100, allow_nan=False),
    protein_id=st.integers(min_value=0, max_value=50),
    start=st.integers(min_value=0, max_value=100),
    stop=st.integers(min_value=101, max_value=200),
    mass=st.floats(min_value=100, max_value=5000),
    mod_delta=st.sampled_from([0.0, 15.994915]),
)


@given(st.lists(hits, max_size=60), st.integers(min_value=1, max_value=10), st.randoms())
@settings(max_examples=80)
def test_tophitlist_order_independent(hit_list, tau, rnd):
    """Any insertion order, cut into any batches, yields the identical
    top-tau list."""
    a = TopHitList(tau)
    offer_hits(a, 0, hit_list)
    shuffled = list(hit_list)
    rnd.shuffle(shuffled)
    b = TopHitList(tau)
    cuts = sorted(rnd.sample(range(len(shuffled) + 1), min(4, len(shuffled) + 1)))
    for lo, hi in zip([0] + cuts, cuts + [len(shuffled)]):
        offer_hits(b, 0, shuffled[lo:hi])
    assert a.sorted_hits() == b.sorted_hits()


@given(st.lists(hits, max_size=60), st.integers(min_value=1, max_value=10))
@settings(max_examples=60)
def test_tophitlist_is_true_top_tau(hit_list, tau):
    hl = TopHitList(tau)
    for h in hit_list:
        offer_hits(hl, 0, [h])
    assert hl.sorted_hits() == top_tau(hit_list, tau)
