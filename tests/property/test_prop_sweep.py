"""Property tests: the candidate-major sweep equals the scalar search bitwise.

``ShardSearcher.run`` is a pure throughput transform — sorted query
windows merge-joined against the shard's sorted mass arrays,
overlapping windows coalesced into cohorts, cohort members scored
against shared candidate blocks.  Every observable — hits, per-query
evaluated counts, the candidate total — must be *identical* to the
scalar reference search (``tests/reference.py``) across PTM mixes, score
cutoffs, candidate-length floors, cohort caps and query permutations —
and so must the store searcher's sweep over a heap-built row table and
index, PTM mixes included.  The scalar path is the oracle; any drift
here is a bug in the sweep, never an acceptable approximation.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.partition import partition_database
from repro.core.search import QueryBlock, ShardSearcher
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from tests.conftest import store_searcher
from tests.reference import assert_same_hitlists, candidates_evaluated, reference_search

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


def _assert_identical(searcher, db, queries):
    reference = reference_search(db, searcher.config, queries)
    sweep = {}
    stats = searcher.run(queries, sweep)
    assert_same_hitlists(reference, sweep)
    assert stats.candidates_evaluated == candidates_evaluated(reference)
    assert stats.queries_processed == len(queries)
    assert stats.sweep_queries == len(queries)
    return stats


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
    db, queries, delta, mods, cutoff, min_len, indexed, cohort, scorer
):
    cfg = SearchConfig(
        delta=delta,
        tau=10,
        scorer=scorer,
        modifications=tuple(mods),
        score_cutoff=cutoff,
        min_candidate_length=min_len,
        sweep_cohort=cohort,
    )
    searcher = store_searcher(db, cfg) if indexed else ShardSearcher(db, cfg)
    stats = _assert_identical(searcher, db, queries)
    assert indexed or stats.index_rows == 0
    # the work counters do not depend on the index or the cap
    plain = ShardSearcher(db, replace(cfg, sweep_cohort=1))
    st_plain = plain.run(queries, {})
    assert st_plain.rows_scored == stats.rows_scored
    assert st_plain.index_rows == 0


@given(databases, query_lists, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sweep_invariant_under_query_permutation(db, queries, rnd):
    """Sweep output per qid is independent of the caller's query order."""
    cfg = SearchConfig(delta=3.0, tau=10, scorer="shared_peaks")
    searcher = store_searcher(db, cfg)
    reference = reference_search(db, cfg, queries)
    shuffled = list(queries)
    rnd.shuffle(shuffled)
    permuted = {}
    searcher.run(shuffled, permuted)
    assert_same_hitlists(reference, permuted)


def _batches_equal(got: SpectrumBatch, want: SpectrumBatch) -> None:
    assert [s.query_id for s in got.spectra] == [s.query_id for s in want.spectra]
    for a, b in zip(
        (got.mz, got.intensity, got.offsets, *got.padded_mz()),
        (want.mz, want.intensity, want.offsets, *want.padded_mz()),
    ):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _bindings_equal(scorer, got: SpectrumBatch, want: SpectrumBatch) -> None:
    """A slice's binding is the one a fresh batch of its members makes."""
    if not hasattr(scorer, "bind"):
        return
    sliced, fresh = got.bound(scorer), scorer.bind(want)
    if hasattr(fresh, "processed"):  # xcorr: same vectors, where the slice puts them
        assert sliced.limits.tolist() == fresh.limits.tolist()
        for k in range(len(fresh.limits)):
            got, want = (
                v.processed[v.bases[k] : v.bases[k] + v.limits[k]] for v in (sliced, fresh)
            )
            assert got.tobytes() == want.tobytes()
    else:
        assert sliced.tobytes() == fresh.tobytes()


@given(
    databases,
    query_lists,
    st.sampled_from([(), _MODS[:1], _MODS]),
    st.sampled_from([1, 2, 8, 64]),
    st.sampled_from(["shared_peaks", "hyperscore", "xcorr", "likelihood", "hypergeometric"]),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_prepared_block_equals_fresh_passes(db, queries, mods, cohort, scorer, p, data):
    """One block prepared for a rotation (packed, or not as a single pass
    leaves it), swept against several shards in a drawn order, whole and
    as B-style mass-order prefixes and arbitrary ``[a, b)`` slices: every
    pass's hits and ``ShardStats`` are those of a pass given a fresh list,
    the hits the scalar reference's, and a packed block's batch and
    binding slices what a fresh batch of the same members makes."""
    cfg = SearchConfig(
        delta=25.0, tau=5, scorer=scorer, modifications=tuple(mods), sweep_cohort=cohort
    )
    shards = partition_database(db, p)
    searchers = [ShardSearcher(shard, cfg) for shard in shards]
    prepared = QueryBlock.prepare(queries, cfg)
    if data.draw(st.booleans(), label="packed"):  # as a rotation prepares it
        prepared.pack()
    assert QueryBlock.prepare(prepared, cfg) is prepared
    n = len(queries)
    by_mass = [queries[m] for m in prepared.order.tolist()]
    kept, fresh, reference = {}, {}, {}
    for t in data.draw(st.permutations(range(p))):
        how = data.draw(st.sampled_from(["whole", "prefix", "slice"]))
        a = data.draw(st.integers(0, n)) if how == "slice" else 0
        b = data.draw(st.integers(a, n)) if how != "whole" else n
        if how == "prefix" and b:  # the prefix a mass limit selects
            part = prepared.lighter_than(float(prepared.masses[b - 1]))
            b = len(part)
        else:
            part = prepared if how == "whole" else prepared.slice(a, b)
        # a block lists its members in the caller's order, a slice in mass order
        members = list(queries) if part is prepared else by_mass[a:b]
        assert [q.query_id for q in part.queries] == [q.query_id for q in members]
        got = searchers[t].run(part, kept)
        want = ShardSearcher(shards[t], cfg).run(members, fresh)
        assert got == want
        reference_search(shards[t], cfg, members, reference)
        assert_same_hitlists(fresh, kept)
        assert_same_hitlists(reference, kept)
        if b > a:  # the slice's batch holds its members in mass order
            batch = part.spectra(0, b - a)
            _batches_equal(batch, SpectrumBatch(by_mass[a:b]))
            _bindings_equal(searchers[t].scorer, batch, SpectrumBatch(by_mass[a:b]))
