"""Property tests: the candidate-major sweep equals per-query search bitwise.

``ShardSearcher.search_sweep`` is a pure throughput transform — sorted
query windows merge-joined against the shard's sorted mass arrays,
overlapping windows coalesced into cohorts, cohort members scored
against shared candidate blocks.  Every observable — hits, per-query
evaluated counts, work counters — must be *identical* to the per-query
path across PTM mixes, score cutoffs, candidate-length floors, index
on/off, cohort caps and query permutations.  The scalar path is the
oracle; any drift here is a bug in the sweep, never an acceptable
approximation.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.search import ShardSearcher
from repro.spectra.spectrum import Spectrum

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30)
databases = st.lists(sequences, min_size=1, max_size=8).map(
    ProteinDatabase.from_sequences
)

_MODS = (
    STANDARD_MODIFICATIONS["oxidation"],
    STANDARD_MODIFICATIONS["phosphorylation_s"],
)


@st.composite
def spectra(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(min_value=0, max_value=25))
    mz = np.sort(rng.uniform(60.0, 2500.0, n))
    intensity = rng.uniform(0.0, 1.0, n)
    precursor = draw(st.floats(min_value=80.0, max_value=1500.0))
    charge = draw(st.integers(min_value=1, max_value=3))
    return Spectrum.from_peaks(
        mz, intensity, precursor_mz=precursor, charge=charge, query_id=0
    )


query_lists = st.lists(spectra(), min_size=0, max_size=10).map(
    lambda qs: [replace(q, query_id=i) for i, q in enumerate(qs)]
)


def _assert_identical(searcher, queries):
    per_query, sweep = {}, {}
    st_pq = searcher.search(queries, per_query)
    st_sw = searcher.search_sweep(queries, sweep)
    assert set(per_query) == set(sweep)
    for qid in per_query:
        assert per_query[qid].sorted_hits() == sweep[qid].sorted_hits()
        assert per_query[qid].evaluated == sweep[qid].evaluated
    assert st_pq.candidates_evaluated == st_sw.candidates_evaluated
    assert st_pq.queries_processed == st_sw.queries_processed
    assert st_pq.rows_scored == st_sw.rows_scored
    assert st_pq.index_rows == st_sw.index_rows
    assert st_sw.sweep_queries == len(queries)
    return st_sw


@given(
    databases,
    query_lists,
    st.sampled_from([0.3, 3.0, 25.0]),
    st.sampled_from([(), _MODS[:1], _MODS]),
    st.one_of(st.none(), st.floats(min_value=-5.0, max_value=5.0)),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
    st.sampled_from([1, 2, 8, 64]),
    # the four pair kernels, and hypergeometric for the block-fallback route
    st.sampled_from(["shared_peaks", "hyperscore", "xcorr", "likelihood", "hypergeometric"]),
)
@settings(max_examples=100, deadline=None)
def test_sweep_bitwise_equal_to_per_query(
    db, queries, delta, mods, cutoff, min_len, use_index, cohort, scorer
):
    cfg = SearchConfig(
        delta=delta,
        tau=10,
        scorer=scorer,
        modifications=tuple(mods),
        score_cutoff=cutoff,
        min_candidate_length=min_len,
        use_index=use_index,
        use_sweep=True,
        sweep_cohort=cohort,
    )
    _assert_identical(ShardSearcher(db, cfg), queries)


@given(databases, query_lists, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sweep_invariant_under_query_permutation(db, queries, rnd):
    """Sweep output per qid is independent of the caller's query order."""
    cfg = SearchConfig(delta=3.0, tau=10, scorer="shared_peaks", use_sweep=True)
    searcher = ShardSearcher(db, cfg)
    reference = {}
    searcher.search(queries, reference)
    shuffled = list(queries)
    rnd.shuffle(shuffled)
    permuted = {}
    searcher.search_sweep(shuffled, permuted)
    assert set(reference) == set(permuted)
    for qid in reference:
        assert reference[qid].sorted_hits() == permuted[qid].sorted_hits()
        assert reference[qid].evaluated == permuted[qid].evaluated


@given(databases, query_lists, st.sampled_from([1, 3, 64]))
@settings(max_examples=30, deadline=None)
def test_run_dispatches_on_config(db, queries, cohort):
    """``run`` picks the sweep exactly when configured, same results."""
    base = SearchConfig(delta=3.0, tau=10, scorer="shared_peaks")
    swept = replace(base, use_sweep=True, sweep_cohort=cohort)
    h_base, h_swept = {}, {}
    st_base = ShardSearcher(db, base).run(queries, h_base)
    st_swept = ShardSearcher(db, swept).run(queries, h_swept)
    assert st_base.sweep_queries == 0 and st_base.sweep_cohorts == 0
    assert st_swept.sweep_queries == len(queries)
    assert set(h_base) == set(h_swept)
    for qid in h_base:
        assert h_base[qid].sorted_hits() == h_swept[qid].sorted_hits()
