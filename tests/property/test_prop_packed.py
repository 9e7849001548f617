"""Property tests: packed scoring blocks equal the scalar search bitwise.

The sweep packs runs of overlapping windows into scoring blocks of up to
``sweep_cohort`` members whose windows need not overlap.  Packing decides
only how many rows one kernel call sees, so every observable must stay
that of the scalar reference search (``tests/reference.py``) — whatever the
window layout (all disjoint, all overlapping, mixed, a run longer than
the cap, a member whose window is empty in the middle of a block), the
cap, the modification tiers and filters, the number of shards feeding a
hit list, and the path the block is scored on (direct kernels, a resident
``FragmentIndex``, a streamed partitioned store).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.mass_index import MassIndex, coalesce_windows
from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS, PROTON_MASS
from repro.core.config import SearchConfig
from repro.core.search import ShardSearcher
from repro.core.streaming import StreamingSearcher
from repro.spectra.spectrum import Spectrum
from repro.store import save_partitioned_index
from tests.conftest import store_searcher
from tests.reference import assert_same_hitlists, candidates_evaluated, reference_search

sequences = st.text(alphabet=AMINO_ACIDS, min_size=2, max_size=30)
databases = st.lists(sequences, min_size=2, max_size=8).map(
    ProteinDatabase.from_sequences
)

_MODS = (
    STANDARD_MODIFICATIONS["oxidation"],
    STANDARD_MODIFICATIONS["phosphorylation_s"],
)
_SCORERS = ["shared_peaks", "hyperscore", "xcorr", "likelihood"]
_CAPS = [1, 2, 64]

#: sites are >= 1 Da apart and clusters stay within 0.05 Da of theirs, so
#: at this delta windows overlap inside a cluster and nowhere else
_NARROW = 0.1
#: wide enough that every window around one site overlaps every other
_WIDE = 3.0


def _query(mass: float, seed: int, query_id: int) -> Spectrum:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 25))
    return Spectrum.from_peaks(
        np.sort(rng.uniform(60.0, 2500.0, n)),
        rng.uniform(0.0, 1.0, n),
        precursor_mz=mass + PROTON_MASS,
        charge=1,
        query_id=query_id,
    )


def _sites(db: ProteinDatabase):
    """Candidate masses >= 1 Da apart, and midpoints of >= 1 Da mass gaps."""
    masses = np.unique(MassIndex.for_shard(db).mass)
    occupied = [float(masses[0])]
    for m in masses[1:].tolist():
        if m - occupied[-1] >= 1.0:
            occupied.append(m)
    gaps = np.nonzero(np.diff(masses) >= 1.0)[0]
    vacant = ((masses[gaps] + masses[gaps + 1]) / 2.0).tolist()
    return occupied, vacant


@st.composite
def layouts(draw):
    """``(db, queries, delta, kind)`` with a known window layout.

    ``disjoint``: one query per site, vacant sites included, so no two
    windows overlap and some are empty with neighbours on both sides.
    ``overlapping``: every query within 1 Da of one site at the wide
    delta, so all windows form one run, longer than a small cap.
    ``mixed``: clusters of 1-4 overlapping queries at the narrow delta,
    clusters disjoint from each other, vacant sites in between.
    """
    db = draw(databases)
    kind = draw(st.sampled_from(["disjoint", "overlapping", "mixed"]))
    occupied, vacant = _sites(db)
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == "overlapping":
        site = occupied[int(rng.integers(len(occupied)))]
        masses = site + rng.uniform(-1.0, 1.0, draw(st.integers(2, 7)))
        delta = _WIDE
    else:
        sites = np.array(sorted(occupied + vacant))
        first = int(rng.integers(len(sites)))
        sites = sites[first : first + draw(st.integers(1, 8))]
        if kind == "disjoint":
            masses = sites
        else:
            masses = np.concatenate(
                [s + rng.uniform(-0.05, 0.05, int(rng.integers(1, 5))) for s in sites]
            )
        delta = _NARROW
    masses = rng.permutation(masses)  # the sweep sorts; callers need not
    queries = [_query(float(m), seed + i, i) for i, m in enumerate(masses)]
    return db, queries, delta, kind


def _check_layout(queries, delta, kind):
    """The layout is the one its name promises (coverage, not luck)."""
    masses = np.sort([q.parent_mass for q in queries])
    runs = coalesce_windows(masses - delta, masses + delta, len(queries) + 1)
    if kind == "disjoint":
        assert len(runs) == len(queries)
    elif kind == "overlapping":
        assert len(runs) == 1


def _reference(shards, queries, cfg):
    """Scalar search over every shard into one set of hit lists."""
    hitlists = {}
    for shard in shards:
        reference_search(shard, cfg, queries, hitlists)
    return hitlists, candidates_evaluated(hitlists)


@given(
    layouts(),
    st.sampled_from(_CAPS),
    st.sampled_from(_SCORERS),
    st.booleans(),
    st.booleans(),
    st.sampled_from([(), _MODS[:1], _MODS]),
    st.one_of(st.none(), st.floats(min_value=-5.0, max_value=5.0)),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=120, deadline=None)
def test_packed_sweep_equals_per_query_search(
    layout, cap, scorer, indexed, two_shards, mods, cutoff, min_len
):
    db, queries, delta, kind = layout
    _check_layout(queries, delta, kind)
    cfg = SearchConfig(
        delta=delta,
        tau=5,
        scorer=scorer,
        modifications=tuple(mods),
        score_cutoff=cutoff,
        min_candidate_length=min_len,
        sweep_cohort=cap,
    )
    half = len(db) // 2
    shards = (
        [db.slice_range(0, half), db.slice_range(half, len(db))] if two_shards else [db]
    )
    reference, ref_candidates = _reference(shards, queries, cfg)
    hitlists, candidates = {}, 0
    for shard in shards:
        if indexed:
            searcher = store_searcher(shard, cfg)
            # the postings are consulted only by a scorer they serve
            assert (searcher.index is not None) == (scorer in ("shared_peaks", "hyperscore"))
        else:
            searcher = ShardSearcher(shard, cfg)
        stats = searcher.run(queries, hitlists)
        candidates += stats.candidates_evaluated
        assert stats.sweep_queries == len(queries)
        assert stats.sweep_cohorts <= len(queries)
        if indexed and two_shards:
            # a store pass packs only the queries whose windows meet its
            # rows' mass range: every query over the whole database's
            # rows, not necessarily over a half's
            continue
        assert -(-len(queries) // cap) <= stats.sweep_cohorts
        if kind == "disjoint":  # nothing overlaps, yet blocks fill to the cap
            assert stats.sweep_cohorts == -(-len(queries) // cap)
    assert_same_hitlists(reference, hitlists)
    assert candidates == ref_candidates


@given(
    layouts(),
    st.sampled_from(_CAPS),
    st.sampled_from(_SCORERS),
    st.booleans(),
    st.sampled_from([(), _MODS[:1], _MODS]),
    st.one_of(st.none(), st.floats(min_value=-5.0, max_value=5.0)),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_packed_streamed_sweep_equals_per_query_search(
    layout, cap, scorer, two_passes, mods, cutoff, min_len
):
    """Blocks of a partition's members, the queries in one pass or in
    two (as two query blocks of the multiproc grid would run them)."""
    db, queries, delta, kind = layout
    _check_layout(queries, delta, kind)
    cfg = SearchConfig(
        delta=delta,
        tau=5,
        scorer=scorer,
        modifications=tuple(mods),
        score_cutoff=cutoff,
        min_candidate_length=min_len,
        sweep_cohort=cap,
    )
    reference, ref_candidates = _reference([db], queries, cfg)
    hitlists, candidates = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        # four-row partitions: a query's window crosses partition edges
        store = save_partitioned_index(
            db, Path(tmp) / "pidx", partition_mb=4 * 12 / (1 << 20)
        )
        searcher = StreamingSearcher(store, cfg, database=db)
        half = len(queries) // 2 if two_passes else 0
        for part in (queries[:half], queries[half:]):
            candidates += searcher.run(part, hitlists).candidates_evaluated
    assert_same_hitlists(reference, hitlists)
    assert candidates == ref_candidates


def test_empty_window_in_the_middle_of_a_block():
    """Three disjoint windows in one block; the middle one selects nothing."""
    db = ProteinDatabase.from_sequences(["GGA", "WWWWF", "PEPTIDEK"])
    occupied, vacant = _sites(db)
    middle = next(v for v in vacant if occupied[0] < v < occupied[-1])
    queries = [
        _query(m, seed, qid)
        for qid, (m, seed) in enumerate([(occupied[-1], 1), (middle, 2), (occupied[0], 3)])
    ]
    cfg = SearchConfig(delta=_NARROW, tau=5, scorer="hyperscore", sweep_cohort=64)
    counts = ShardSearcher(db, cfg).count_each(queries).tolist()
    assert counts[1] == 0 and min(counts[::2]) > 0
    for searcher in (ShardSearcher(db, cfg), store_searcher(db, cfg)):
        hitlists = {}
        stats = searcher.run(queries, hitlists)
        assert stats.sweep_cohorts == 1
        reference, _ = _reference([db], queries, cfg)
        assert_same_hitlists(reference, hitlists)
        assert hitlists[1].evaluated == 0 and hitlists[1].sorted_hits() == []
