"""Property tests: streamed search is bitwise-identical to resident.

The partitioned store's exactness contract (see ``repro.core.streaming``):
a :class:`~repro.core.streaming.StreamingSearcher` pass over compressed
m/z partitions — double-buffered prefetch, per-partition window slices,
overflow through the direct batch path — retains exactly the hits the
resident :class:`~repro.core.search.ShardSearcher` and the scalar
reference search (``tests/reference.py``) retain, score bits and all.
Hypothesis drives arbitrary small databases and query sets through all
four index-capable scorers, block caps 1/2/64, prefetch on/off, and tiny
partition sizes so every pass crosses many partition boundaries.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.store import save_index, save_partitioned_index
from tests.reference import assert_report_matches, reference_search

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=40)
databases = st.lists(sequences, min_size=1, max_size=10).map(
    ProteinDatabase.from_sequences
)

_SCORER_NAMES = ["shared_peaks", "hyperscore", "xcorr", "likelihood"]


@st.composite
def spectra(draw, query_id=7):
    import numpy as np

    from repro.spectra.spectrum import Spectrum

    n = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    mz = np.sort(rng.uniform(60.0, 2500.0, n))
    intensity = rng.uniform(0.0, 1.0, n)
    precursor = draw(st.floats(min_value=150.0, max_value=2500.0, allow_nan=False))
    return Spectrum.from_peaks(
        mz, intensity, precursor_mz=precursor, charge=1, query_id=query_id
    )


@st.composite
def workloads(draw):
    """A database plus a small multi-query workload."""
    db = draw(databases)
    n = draw(st.integers(min_value=1, max_value=4))
    queries = [draw(spectra(query_id=qid)) for qid in range(n)]
    return db, queries


@given(
    workloads(),
    st.sampled_from(_SCORER_NAMES),
    st.sampled_from([1, 2, 64]),
    st.sampled_from([6, 48]),
)
@settings(max_examples=25, deadline=None)
def test_streamed_search_reports_equal_resident(workload, scorer_name, cap, max_length):
    """All four scorers x block caps: identical hits, identical
    per-query evaluated accounting, identical candidate totals.  At
    ``max_length`` 6 most spans are out of the index envelope, so the
    overflow blocks carry the search."""
    db, queries = workload
    config = SearchConfig(tau=5, scorer=scorer_name, sweep_cohort=cap)
    with tempfile.TemporaryDirectory() as tmp:
        # ~64 KiB partitions force many partition crossings per window
        store = save_partitioned_index(
            db, Path(tmp) / "pidx", partition_mb=1.0 / 16.0, max_length=max_length
        )
        streamed = search_serial(db, queries, config, index_store=store)
        resident = search_serial(
            db, queries, config,
            index_store=save_index(db, Path(tmp) / "ridx", max_length=max_length),
        )
    assert reports_equal(streamed, resident)
    assert_report_matches(reference_search(db, config, queries), streamed)
    assert streamed.extras["sweep_queries"] == resident.extras["sweep_queries"]
    assert (
        streamed.extras["index_provenance"]["fingerprint"]
        == store.fingerprint
    )
    assert streamed.extras["index_provenance"]["source"] == "streamed"


@given(workloads(), st.sampled_from([1, 64]))
@settings(max_examples=15, deadline=None)
def test_prefetch_off_and_memory_budget_do_not_change_hits(workload, cap):
    """Serial decode (no prefetch thread) and a tight memory budget are
    pure transport knobs: same hits either way."""
    db, queries = workload
    config = SearchConfig(tau=5, sweep_cohort=cap)
    with tempfile.TemporaryDirectory() as tmp:
        store = save_partitioned_index(
            db, Path(tmp) / "pidx", partition_mb=1.0 / 16.0
        )
        resident = search_serial(db, queries, config)

        from repro.core.streaming import StreamingSearcher
        from repro.scoring.hits import TopHitList

        for kwargs in (
            {"prefetch": False},
            {"memory_budget_mb": 2.0 * store.max_partition_bytes / (1 << 20) + 1.0},
        ):
            searcher = StreamingSearcher(store, config, database=db, **kwargs)
            hitlists = {}
            searcher.run(queries, hitlists)
            for q in queries:
                got = [h.sort_key() for h in hitlists[q.query_id].sorted_hits()]
                ref = [h.sort_key() for h in resident.hits[q.query_id]]
                assert got == ref


@given(databases, st.sampled_from([6, 48]))
@settings(max_examples=15, deadline=None)
def test_a_partial_decode_is_a_subset_of_the_full_decode(db, max_length):
    """Decoding only the posting lists a scorer reads changes which
    arrays come out, never their bits: for every subset of lists the
    view holds the ``row_*`` columns plus exactly those lists' arrays,
    each bitwise the same-named array of a full decode."""
    from repro.index.layout import POSTING_LISTS, partition_arrays

    with tempfile.TemporaryDirectory() as tmp:
        store = save_partitioned_index(
            db, Path(tmp) / "pidx", partition_mb=1.0 / 16.0, max_length=max_length
        )
        for pid in range(store.num_partitions):
            full = store.decode_partition(pid).arrays
            for lists in [(), ("ladder",), ("series",), tuple(POSTING_LISTS)]:
                part = store.decode_partition(pid, lists).arrays
                assert set(part) == set(partition_arrays(lists))
                for name, arr in part.items():
                    assert arr.dtype == full[name].dtype, name
                    assert arr.tobytes() == full[name].tobytes(), name
