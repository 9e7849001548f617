"""Property tests: streamed search is bitwise-identical to direct search.

The partitioned store's exactness contract (see ``repro.core.streaming``):
a :class:`~repro.core.streaming.StreamingSearcher` pass over mass
partitions of the row table — double-buffered prefetch, per-partition window slices,
every partition's rows scored directly — retains exactly the hits the
direct :class:`~repro.core.search.ShardSearcher` and the scalar reference
search (``tests/reference.py``) retain: score bits, per-query
``evaluated`` counts and all.  Hypothesis drives arbitrary small
databases and query sets through every registered scorer, block caps
1/2/64, read-ahead allowed or starved by the budget, and partitions of
one to three rows, so every pass crosses many partition boundaries.  Each database repeats one
sequence often enough that a run of equal-mass rows cannot fit two
partitions, and each workload holds a query on that run: every example
has equal-mass rows on both sides of a cut and a window that spans at
least three partitions.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import encode_sequence
from repro.chem.peptide import peptide_mass, peptide_mz
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.core.streaming import StreamingSearcher
from repro.scoring.registry import SCORER_NAMES
from repro.spectra.spectrum import Spectrum
from repro.store import save_partitioned_index
from tests.reference import assert_report_matches, assert_same_hitlists, reference_search

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=40)

#: bytes of one row of the row table (``partition_mb`` is measured in them)
_ROW_BYTES = 12


@st.composite
def spectra(draw, query_id, precursor=None):
    n = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    mz = np.sort(rng.uniform(60.0, 2500.0, n))
    intensity = rng.uniform(0.0, 1.0, n)
    if precursor is None:
        precursor = draw(st.floats(min_value=150.0, max_value=2500.0, allow_nan=False))
    return Spectrum.from_peaks(
        mz, intensity, precursor_mz=precursor, charge=1, query_id=query_id
    )


@st.composite
def workloads(draw):
    """``(db, queries, rows_per_partition)`` with the forced geometry.

    The database holds ``2 * rows_per_partition + 1`` copies of one
    sequence, so each of its prefixes is a run of equal-mass rows too
    long for two partitions; query 0 sits on its five-residue prefix.
    """
    rows = draw(st.integers(min_value=1, max_value=3))
    repeated = draw(st.text(alphabet=AMINO_ACIDS, min_size=5, max_size=12))
    others = draw(st.lists(sequences, min_size=0, max_size=6))
    db = ProteinDatabase.from_sequences(others + [repeated] * (2 * rows + 1))
    on_the_run = peptide_mz(peptide_mass(encode_sequence(repeated[:5])))
    queries = [draw(spectra(0, precursor=on_the_run))] + [
        draw(spectra(qid)) for qid in range(1, draw(st.integers(1, 4)))
    ]
    return db, queries, rows


def _store(db, rows, tmp):
    return save_partitioned_index(
        db, Path(tmp) / "pidx", partition_mb=rows * _ROW_BYTES / (1 << 20)
    )


@given(
    workloads(),
    st.sampled_from(SCORER_NAMES),
    st.sampled_from([1, 2, 64]),
    st.sampled_from([0.5, 3.0, 200.0]),
    st.sampled_from([1, 5, 8]),
    st.sampled_from([None, 0.0, 2.0]),
)
@settings(max_examples=40, deadline=None)
def test_streamed_search_reports_equal_resident(
    workload, scorer_name, cap, delta, min_length, cutoff
):
    """Every scorer x block cap x window width x length floor x score
    cutoff: the hits, each query's ``evaluated`` and the candidate total
    of the scalar reference, and the direct search's whole report."""
    db, queries, rows = workload
    config = SearchConfig(
        tau=5, scorer=scorer_name, sweep_cohort=cap, delta=delta,
        min_candidate_length=min_length, score_cutoff=cutoff,
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = _store(db, rows, tmp)
        cuts = list(zip(store.partitions, store.partitions[1:]))
        assert any(a.mass_hi == b.mass_lo for a, b in cuts)  # equal masses cut apart
        lo, hi = queries[0].parent_mass - delta, queries[0].parent_mass + delta
        assert sum(p.mass_lo <= hi and p.mass_hi >= lo for p in store.partitions) >= 3
        streamed = search_serial(db, queries, config, index_store=store)
        hitlists = {}
        StreamingSearcher(store, config, database=db).run(queries, hitlists)
    reference = reference_search(db, config, queries)
    assert_same_hitlists(reference, hitlists)
    assert_report_matches(reference, streamed)
    assert reports_equal(streamed, search_serial(db, queries, config))
    assert streamed.extras["index_provenance"]["fingerprint"] == store.fingerprint
    assert streamed.extras["index_provenance"]["source"] == "streamed"


@given(workloads(), st.sampled_from([1, 64]))
@settings(max_examples=15, deadline=None)
def test_prefetch_off_and_memory_budget_do_not_change_hits(workload, cap):
    """A budget below two partitions turns read-ahead off (every visit
    waits on its own read), one of two allows it: same hits either way."""
    db, queries, rows = workload
    config = SearchConfig(tau=5, sweep_cohort=cap)
    direct = search_serial(db, queries, config)
    with tempfile.TemporaryDirectory() as tmp:
        store = _store(db, rows, tmp)
        for partitions in (2.0, 1.5):
            budget = partitions * store.max_partition_bytes / (1 << 20)
            searcher = StreamingSearcher(store, config, database=db, memory_budget_mb=budget)
            hitlists = {}
            searcher.run(queries, hitlists)
            for q in queries:
                got = [h.sort_key() for h in hitlists[q.query_id].sorted_hits()]
                ref = [h.sort_key() for h in direct.hits[q.query_id]]
                assert got == ref
