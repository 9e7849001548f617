"""A master-worker reply is sized from exact counts, not from scores.

A worker reports at most tau hits per query, so its reply carries
``min(kept, tau)`` hits per query, ``kept`` the query's candidates of at
least ``min_candidate_length`` residues.  ``CandidateGenerator.count_many``
counts those without scoring, PTM tiers included, so the worker sends
its hit lists unscored and the master's first read at S4 flushes every
batch's pass in one sweep.  Against the scored lists and the per-batch
form (each batch scored before its reply is sized):

- ``count_many`` under a length floor equals the floor applied to
  ``candidates()``, over PTM tiers (a negative delta included), floors
  of 1, 5 and above every candidate, and empty windows;
- each batch's counted reply size equals ``len(ledger.columns(h).scores)``
  after the flush, at tau 1 and 50, with and without a score cutoff
  (under one the batch is scored first, as before), and is 0 under
  MODELED execution;
- a master-worker REAL run equals the per-batch form in hits, virtual
  time, traces and ``evaluated``, with and without a score cutoff and
  under a crash fault plan, and a fault-free one flushes in one sweep.
"""

from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.amino_acids import STANDARD_MODIFICATIONS, Modification
from repro.chem.peptide import peptide_mz
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core import master_worker, rotation
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.driver import run_search
from repro.core.search import QueryBlock, ShardSearcher
from repro.errors import DeadlockError
from repro.faults import FaultPlan, RankCrash
from repro.scoring.hits import TopHitList
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum
from repro.workloads.queries import QueryWorkload

OXIDATION = STANDARD_MODIFICATIONS["oxidation"]
PHOSPHO_S = STANDARD_MODIFICATIONS["phosphorylation_s"]
AMMONIA_LOSS = Modification("ammonia_loss_q", "Q", -17.026549)
FAST = SearchConfig(tau=5, scorer="shared_peaks", delta=25.0)
#: the ledger's own counters, which the per-batch form counts differently
LEDGER_EXTRAS = ("shard_passes", "flush_sweeps")

sequences = st.text(alphabet=AMINO_ACIDS, min_size=6, max_size=40)
databases = st.lists(sequences, min_size=1, max_size=8).map(ProteinDatabase.from_sequences)
# masses under 300 Da open windows no span of six residues reaches
query_masses = st.lists(st.floats(min_value=50.0, max_value=3000.0), min_size=0, max_size=40)
tiers = st.sampled_from([(), (OXIDATION,), (AMMONIA_LOSS,), (PHOSPHO_S, AMMONIA_LOSS, OXIDATION)])
#: 1000 is above every candidate here
floors = st.sampled_from([1, 5, 1000])


def make_query(mass: float, qid: int) -> Spectrum:
    mz = np.array([mass * 0.25, mass * 0.5, mass * 0.75])
    return Spectrum(mz, np.ones(3), peptide_mz(mass, 1), 1, qid)


@given(databases, query_masses, tiers, floors)
@settings(max_examples=80, deadline=None)
def test_count_many_applies_the_length_floor(db, masses, mods, floor):
    config = replace(FAST, modifications=mods, min_candidate_length=floor)
    queries = [make_query(m, i) for i, m in enumerate(masses)]
    generator = ShardSearcher(db, config, max_parent_mass=heaviest_parent_mass(queries)).generator
    want = [int((generator.candidates(q).lengths >= floor).sum()) for q in queries]
    got = generator.count_many(np.array([q.parent_mass for q in queries]), floor)
    assert got.tolist() == want
    # the floorless count is unchanged by a floor counted first
    unfloored = [len(generator.candidates(q)) for q in queries]
    assert generator.count_many(np.array([q.parent_mass for q in queries])).tolist() == unfloored


@given(
    databases,
    query_masses,
    tiers,
    floors,
    st.sampled_from([1, 50]),
    st.sampled_from([None, 0.0, 2.0]),
    st.sampled_from(list(ExecutionMode)),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_counted_reply_equals_the_scored_lists(db, masses, mods, floor, tau, cutoff, mode, ids):
    """Batches of up to 16 queries charged into one ledger, each reply
    sized as the worker sizes it; then every batch's lists read.  Query
    ids repeat modulo ``ids``: queries sharing an id share a list."""
    config = replace(
        FAST, modifications=mods, min_candidate_length=floor, tau=tau, score_cutoff=cutoff,
        execution=mode,
    )
    queries = [make_query(m, i % ids) for i, m in enumerate(masses)]
    searcher = ShardSearcher(db, config, max_parent_mass=heaviest_parent_mass(queries))
    ledger = rotation.PassLedger()
    replies = []
    for first in range(0, len(queries), 16):
        block = QueryBlock.prepare(queries[first : first + 16], config)
        hitlists = {}
        ledger.record(searcher, block, hitlists)
        replies.append((master_worker._reply_hits(ledger, searcher, block, hitlists, config), hitlists))
    for size, hitlists in replies:
        assert size == len(ledger.columns(hitlists).scores)
        if mode is ExecutionMode.MODELED:
            assert size == 0
    if mode is ExecutionMode.REAL and cutoff is None and queries and ids >= len(queries):
        assert ledger.sweeps == 1  # counted replies: the first read flushed every batch


# -- whole runs against the per-batch form -----------------------------------


def scored_reply_hits(ledger, _searcher, _block, hitlists, _config):
    """The reply size as it was: the batch scored (the ledger flushed)
    and its packed hits counted."""
    return len(ledger.columns(hitlists).scores)


def run_both(db, queries, p, config, cluster_factory=lambda: None):
    """The counted run and the per-batch one (fresh cluster configs),
    checked equal; returns both reports."""
    made, oracle_made = [], []
    init = TopHitList.__init__

    def spied(made):
        def construct(self, tau):
            init(self, tau)
            made.append(self)

        return mock.patch.object(TopHitList, "__init__", construct)

    with spied(made):
        counted = run_search(db, queries, "master_worker", p, config, cluster_factory())
    with spied(oracle_made), mock.patch.object(master_worker, "_reply_hits", scored_reply_hits):
        oracle = run_search(db, queries, "master_worker", p, config, cluster_factory())
    a, b = counted.hits.columns, oracle.hits.columns
    for name, x, y in zip(a._fields, a, b):
        assert np.array_equal(x, y), name
    assert counted.candidates_evaluated == oracle.candidates_evaluated
    assert sum(h.evaluated for h in made) == sum(h.evaluated for h in oracle_made)
    assert repr(counted.virtual_time) == repr(oracle.virtual_time)
    assert counted.peak_memory == oracle.peak_memory
    for r, ta in counted.trace.per_rank.items():
        tb = oracle.trace.per_rank[r]
        for name in ("compute", "wait", "comm_issued", "collective", "recovery", "sweep"):
            assert repr(getattr(ta, name)) == repr(getattr(tb, name)), (r, name)
        assert ta.events == tb.events
    keep = lambda extras: {k: v for k, v in extras.items() if k not in LEDGER_EXTRAS}  # noqa: E731
    assert keep(counted.extras) == keep(oracle.extras)
    assert counted.extras["shard_passes"] == oracle.extras["shard_passes"]
    return counted, oracle


@pytest.fixture(scope="module")
def batches_queries(tiny_db):
    """100 findable queries: seven batches of 16 at most."""
    return QueryWorkload(num_queries=100, seed=5, source=tiny_db).build()[0]


@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize("cutoff", [None, 2.0])
def test_run_equals_the_per_batch_form(tiny_db, batches_queries, p, cutoff):
    """Fault free: one sweep for every batch, unless a score cutoff
    makes each batch score before its reply (one sweep a batch)."""
    config = replace(FAST, score_cutoff=cutoff)
    counted, oracle = run_both(tiny_db, batches_queries, p, config)
    batches = -(-len(batches_queries) // 16)
    assert counted.extras["shard_passes"] == batches
    assert oracle.extras["flush_sweeps"] == batches
    assert counted.extras["flush_sweeps"] == (1 if cutoff is None else batches)


def test_ptm_run_equals_the_per_batch_form(tiny_db, batches_queries):
    """Narrow windows and a high floor: many queries keep fewer than tau."""
    config = replace(
        FAST, modifications=(OXIDATION, AMMONIA_LOSS), scorer="hyperscore", delta=3.0, tau=50,
        min_candidate_length=12,
    )
    counted, _oracle = run_both(tiny_db, batches_queries, 4, config)
    assert counted.extras["flush_sweeps"] == 1


def test_shared_query_ids_equal_the_per_batch_form(tiny_db, batches_queries):
    """Queries sharing an id in one batch fill one list: its reply
    carries at most tau hits for them together."""
    queries = [replace(q, query_id=q.query_id % 7) for q in batches_queries]
    run_both(tiny_db, queries, 4, replace(FAST, tau=2))


@pytest.mark.parametrize("cutoff", [None, 2.0])
def test_crash_plans_equal_the_per_batch_form(tiny_db, batches_queries, cutoff):
    """A worker crash the run outlives (rank 1 after its last batch) and
    one it does not (rank 3 mid-run: master-worker recovers nothing, and
    both forms end in the same deadlock)."""
    config = replace(FAST, score_cutoff=cutoff)
    horizon = run_search(tiny_db, batches_queries, "master_worker", 4, config).virtual_time

    def crash(rank, share):
        plan = FaultPlan(crashes=(RankCrash(rank, share * horizon),))
        return lambda: ClusterConfig(num_ranks=4, fault_plan=plan, record_events=True)

    counted, _oracle = run_both(tiny_db, batches_queries, 4, config, crash(1, 0.6))
    assert [f.rank for f in counted.trace.failures] == [1]
    per_batch = mock.patch.object(master_worker, "_reply_hits", scored_reply_hits)
    for form in (nullcontext(), per_batch):
        with form, pytest.raises(DeadlockError):
            run_search(tiny_db, batches_queries, "master_worker", 4, config, crash(3, 0.3)())

