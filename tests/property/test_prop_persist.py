"""Property tests: a persisted index serves bitwise-identical results.

The store's exactness contract (see ``repro.store``): a
:class:`~repro.index.fragment_index.FragmentIndex` wired from
memory-mapped (or heap-loaded) buffers scores exactly like the
in-process build it was saved from — same posting lists, same merged
hit streams.  Covered here at the posting kernels of the two scorers
they serve, and through whole serial searches of all four paper scorers
over a loaded store (posting-served or scored directly from its shard
buffers), which must also equal the scalar reference search
(``tests/reference.py``).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.index import IndexBuilder
from repro.index.layout import ROW_ARRAYS
from repro.scoring import HyperScorer, SharedPeakScorer
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from repro.store import open_index, save_index
from tests.reference import assert_report_matches, reference_search

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30)
databases = st.lists(sequences, min_size=1, max_size=8).map(
    ProteinDatabase.from_sequences
)

#: every scorer ``FragmentIndex.score_block`` serves
_SCORERS = [SharedPeakScorer, HyperScorer]
_SCORER_NAMES = ["shared_peaks", "hyperscore", "xcorr", "likelihood"]


@st.composite
def spectra(draw, query_id=7):
    """Observed spectra, including empty and single-peak degenerates."""
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


@given(databases, spectra(), st.sampled_from(_SCORERS), st.booleans())
@settings(max_examples=40, deadline=None)
def test_loaded_index_scores_bitwise_equal_in_memory(db, spectrum, scorer_cls, mmap):
    """score_block over a store-loaded view == over the in-process build,
    bit for bit, with both memmap and heap backing."""
    with tempfile.TemporaryDirectory() as tmp:
        store = save_index(db, Path(tmp) / "idx")
        loaded = open_index(store.path).load_shard(mmap=mmap)
        mem = IndexBuilder(fragment_tolerance=0.5, max_length=48).build(db).view()
        for name in ROW_ARRAYS:  # one row table, so one row id space
            assert np.asarray(loaded.index.arrays[name]).tobytes() == mem.arrays[name].tobytes()
        rows = np.nonzero(mem.holds(np.arange(mem.num_rows)))[0]
        rows = rows[np.asarray(mem.rows.mass)[rows] <= 8000.0]
        if not len(rows):
            return
        scorer = scorer_cls()
        cohort = SpectrumBatch([spectrum])
        got = loaded.index.score_block(scorer, cohort, [rows])
        ref = mem.score_block(scorer, cohort, [rows])
        assert got.tobytes() == ref.tobytes()


@given(workloads(), st.sampled_from(_SCORER_NAMES), st.sampled_from([1, 2, 64]))
@settings(max_examples=25, deadline=None)
def test_serial_search_from_store_reports_equal_rebuild(workload, scorer_name, cap):
    """Full serial searches produce identical hit lists — the scalar
    reference's — whether scored directly or over an mmap-loaded store."""
    db, queries = workload
    config = SearchConfig(tau=5, scorer=scorer_name, sweep_cohort=cap)
    with tempfile.TemporaryDirectory() as tmp:
        store = save_index(db, Path(tmp) / "idx")
        from_store = search_serial(db, queries, config, index_store=store)
        direct = search_serial(db, queries, config)
    assert reports_equal(from_store, direct)
    assert_report_matches(reference_search(db, config, queries), from_store)
    # same work happened on both sides, served differently
    assert from_store.extras["sweep_queries"] == direct.extras["sweep_queries"]
    assert from_store.extras["rows_scored"] == direct.extras["rows_scored"]
    assert direct.extras["index_rows"] == 0
    if scorer_name in ("xcorr", "likelihood"):  # no posting kernel: scored directly
        assert from_store.extras["index_rows"] == 0
    # provenance names the store; a direct search has none to name
    assert from_store.extras["index_provenance"]["fingerprint"] == store.fingerprint
    assert from_store.extras["index_provenance"]["source"] == "loaded"
    assert "index_provenance" not in direct.extras
    assert from_store.extras["index_load_time"] > 0.0
    assert from_store.extras["index_mmap_bytes"] == store.nbytes
