"""Deferred shard passes equal eager ones, bit for bit.

A simulated engine charges each shard pass from its plan and exact
counts (``ShardSearcher.pass_stats``) and records it in the run's
``rotation.PassLedger``, which scores the recorded passes later, one
sweep per delivered shard object.  The oracle is the eager pass every
engine ran before: ``eager_score_pass`` below scores a pass when it is
made and charges the stats scoring returned, and ``EagerLedger`` does the
same for an adopter's rescans.  Against it:

- plan-derived stats equal scored stats field by field (PTM tiers,
  Algorithm B's ``lighter_than`` slices, empty blocks, more ranks than
  sequences, both execution modes);
- deferred A, A-nomask, B and master-worker runs equal eager ones in
  hits, ``virtual_time``, per-rank trace totals and events and
  ``candidates_evaluated``, on the default network, on hardware RMA with
  skewed rank speeds (several flushes) and under a crash that forces a
  salvage and an adoption;
- a flush whose pending records hold one query id twice against one
  shard (a dead rank's pass and its adopter's rescan) splits the sweep,
  so each record's lists get exactly what an eager pass gives them.
"""

from contextlib import contextmanager
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.peptide import peptide_mz
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core import master_worker, rotation
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.driver import run_search
from repro.core.partition import partition_database
from repro.core.results import reports_equal
from repro.core.search import QueryBlock, ShardSearcher
from repro.faults import FaultPlan, RankCrash
from repro.scoring.hits import pack_hit_columns
from repro.simmpi.network import NetworkModel
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum

OXIDATION = STANDARD_MODIFICATIONS["oxidation"]
PHOSPHO_S = STANDARD_MODIFICATIONS["phosphorylation_s"]
FAST = SearchConfig(tau=5, scorer="shared_peaks", delta=25.0)
ENGINES = ("algorithm_a", "algorithm_a_nomask", "algorithm_b", "master_worker")
#: the counters only scoring knows; a plan leaves them 0
SCORED_ONLY = ("batches", "rows_scored", "index_rows")
#: the ledger's own counters, which an eager run does not keep
LEDGER_EXTRAS = ("shard_passes", "flush_sweeps")


# -- the oracle: a pass scored when it is made ------------------------------


def eager_score_pass(
    comm, _ledger, searcher, queries, hitlists, config, label, rotation_step=True
):
    """``rotation.score_pass`` as it was before passes were deferred."""
    stats = searcher.run(queries, hitlists)
    overhead = config.cost.query_processing_overhead(stats, len(queries))
    comm.compute(
        rotation._pass_time(config, searcher, stats, rotation_step)
        + (0.0 if stats.sweep_queries else overhead),
        detail=f"{label} score",
    )
    if stats.sweep_queries:
        comm.sweep_setup(overhead, detail=f"{label} sweep")
    return stats


class EagerLedger(rotation.PassLedger):
    """Scores each recorded pass at once (an adopter's rescans) and
    returns the stats scoring counted; nothing is left to flush."""

    def record(self, searcher, queries, hitlists):
        self.passes += 1
        return searcher.run(queries, hitlists)


@contextmanager
def eager():
    with mock.patch.object(rotation, "PassLedger", EagerLedger), mock.patch.object(
        rotation, "score_pass", eager_score_pass
    ), mock.patch.object(master_worker, "score_pass", eager_score_pass):
        yield


def assert_bitwise(deferred, eager_report):
    assert reports_equal(eager_report, deferred)  # scores compared bitwise
    assert deferred.candidates_evaluated == eager_report.candidates_evaluated
    assert repr(deferred.virtual_time) == repr(eager_report.virtual_time)
    assert deferred.peak_memory == eager_report.peak_memory
    a, b = deferred.trace, eager_report.trace
    assert (a is None) == (b is None)
    if a is not None:
        assert sorted(a.per_rank) == sorted(b.per_rank)
        for r, ta in a.per_rank.items():
            tb = b.per_rank[r]
            for name in ("compute", "wait", "comm_issued", "collective", "recovery", "sweep"):
                assert repr(getattr(ta, name)) == repr(getattr(tb, name)), (r, name)
            assert ta.events == tb.events
    keep = lambda extras: {k: v for k, v in extras.items() if k not in LEDGER_EXTRAS}  # noqa: E731
    assert keep(deferred.extras) == keep(eager_report.extras)


def both(db, queries, algorithm, p, config, cluster_factory=lambda p: None):
    """The deferred and the eager report of one run (fresh cluster configs)."""
    deferred = run_search(db, queries, algorithm, p, config, cluster_factory(p))
    with eager():
        oracle = run_search(db, queries, algorithm, p, config, cluster_factory(p))
    return deferred, oracle


# -- plan-derived stats ------------------------------------------------------

sequences = st.text(alphabet=AMINO_ACIDS, min_size=6, max_size=40)
databases = st.lists(sequences, min_size=1, max_size=8).map(ProteinDatabase.from_sequences)
query_masses = st.lists(st.floats(min_value=400.0, max_value=3000.0), min_size=0, max_size=8)


def make_query(mass: float, qid: int) -> Spectrum:
    mz = np.array([mass * 0.25, mass * 0.5, mass * 0.75])
    return Spectrum(mz, np.ones(3), peptide_mz(mass, 1), 1, qid)


@given(
    databases,
    query_masses,
    st.integers(min_value=1, max_value=12),
    st.sampled_from([(), (OXIDATION,), (PHOSPHO_S, OXIDATION)]),
    st.sampled_from(list(ExecutionMode)),
    st.sampled_from([None, 0.0]),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=300.0, max_value=3200.0),
)
@settings(max_examples=60, deadline=None)
def test_plan_stats_equal_scored_stats(db, masses, p, mods, mode, cutoff, cohort, limit):
    """Every shard of a p-way split (p may exceed the sequences: empty
    shards), the whole block and a B slice (``lighter_than``, possibly
    empty): ``pass_stats`` is what ``run`` counts, field by field."""
    config = replace(
        FAST, modifications=mods, execution=mode, score_cutoff=cutoff, sweep_cohort=cohort,
        min_candidate_length=4,
    )
    queries = [make_query(m, i) for i, m in enumerate(masses)]
    block = QueryBlock.prepare(queries, config)
    for shard in partition_database(db, p):
        searcher = ShardSearcher(shard, config, max_parent_mass=heaviest_parent_mass(queries))
        for served in (block, block.lighter_than(limit)):
            planned = searcher.pass_stats(served)
            scored = searcher.run(served, {})
            for f in fields(planned):
                expected = 0 if f.name in SCORED_ONLY else getattr(scored, f.name)
                assert getattr(planned, f.name) == expected, f.name


# -- deferred runs are eager runs ------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("algorithm", ENGINES)
def test_deferred_run_is_the_eager_run(tiny_db, tiny_queries, algorithm, p):
    """Software RMA: a fault-free A or B run flushes once, one sweep per
    shard object; master-worker flushes once per batch."""
    deferred, oracle = both(tiny_db, tiny_queries, algorithm, p, FAST)
    assert_bitwise(deferred, oracle)
    if p == 1 and algorithm == "master_worker":
        return  # the serial search
    passes, sweeps = deferred.extras["shard_passes"], deferred.extras["flush_sweeps"]
    if algorithm == "master_worker":
        assert passes == sweeps == -(-len(tiny_queries) // 16)
    else:
        assert passes <= p * p and sweeps <= p
        assert passes == p * p or algorithm == "algorithm_b"


@pytest.mark.parametrize("algorithm", ["algorithm_a", "algorithm_b"])
def test_ptm_runs_are_the_eager_runs(tiny_db, tiny_queries, algorithm):
    config = replace(FAST, modifications=(OXIDATION,), scorer="hyperscore", delta=3.0)
    assert_bitwise(*both(tiny_db, tiny_queries, algorithm, 3, config))


@pytest.mark.parametrize("algorithm", ENGINES)
def test_hardware_rma_with_skewed_ranks_flushes_often(tiny_db, tiny_queries, algorithm):
    """No rendezvous per step: ranks finish their rotations apart, each
    flush finds only some ranks' passes, and the runs still agree."""
    p = 5

    def cluster(p):
        return ClusterConfig(
            num_ranks=p,
            network=NetworkModel(software_rma=False),
            rank_speeds=tuple(0.3 + 0.4 * r for r in range(p)),
            record_events=True,
        )

    deferred, oracle = both(tiny_db, tiny_queries, algorithm, p, FAST, cluster)
    assert_bitwise(deferred, oracle)
    if algorithm != "master_worker":
        # one flush would make one sweep per shard object
        assert deferred.extras["flush_sweeps"] > p


@pytest.mark.parametrize("algorithm", ["algorithm_a", "algorithm_a_nomask", "algorithm_b"])
def test_crash_salvage_and_adoption(tiny_db, tiny_queries, algorithm):
    """Rank 2 of 5 dies mid-rotation: survivors salvage its shard, rank 3
    adopts its block and rescans it against every shard, so the block's
    query ids meet shards the dead rank had already visited."""
    p = 5
    base = run_search(tiny_db, tiny_queries, algorithm, p, FAST)
    setup = base.extras.get("sorting_time", 0.0)  # B's sort phase survives no crash
    crash_at = setup + 0.35 * (base.virtual_time - setup)

    def cluster(p):
        plan = FaultPlan(crashes=(RankCrash(2, crash_at),))
        return ClusterConfig(num_ranks=p, fault_plan=plan, record_events=True)

    met = []
    record = rotation.PassLedger.record

    def spied(self, searcher, queries, hitlists):
        met.extend((q.query_id, id(searcher)) for q in queries.queries)
        return record(self, searcher, queries, hitlists)

    with mock.patch.object(rotation.PassLedger, "record", spied):
        deferred, oracle = both(tiny_db, tiny_queries, algorithm, p, FAST, cluster)
    assert_bitwise(deferred, oracle)
    assert deferred.extras["failed_ranks"] == [2]
    events = [e for tr in deferred.trace.per_rank.values() for e in tr.events]
    assert any(detail.startswith("salvage D2") for _c, _s, _d, detail in events)
    assert any(detail.startswith("rescore Q2") for _c, _s, _d, detail in events)
    assert len(met) > len(set(met))  # a query id met one shard twice


# -- one flush, one query id twice against one shard ------------------------


@pytest.mark.parametrize("scorer", ["shared_peaks", "likelihood"])
def test_a_repeated_query_id_splits_the_sweep(tiny_db, tiny_queries, scorer):
    """A dead rank's pass and its adopter's rescan, both pending: each
    record's lists get the eager pass's hits, a record repeating an id
    of the sweep before it starting a sweep of its own."""
    config = replace(FAST, scorer=scorer, delta=3.0)
    shards = partition_database(tiny_db, 2)
    searchers = [ShardSearcher(s, config) for s in shards]
    block = QueryBlock.prepare(list(tiny_queries), config)
    half = block.lighter_than(float(np.median(block.masses)))
    # (searcher, served block, owner dict index) in record order
    passes = [(0, block, 0), (1, half, 0), (0, block, 1), (1, block, 1), (0, half, 2)]
    ledger = rotation.PassLedger()
    deferred = [{}, {}, {}]
    oracle = [{}, {}, {}]
    for s, served, owner in passes:
        ledger.record(searchers[s], served, deferred[owner])
        searchers[s].run(served, oracle[owner])
    ledger.flush()
    # shard 0: block | block | half, each repeating ids of the one before;
    # shard 1: half | block
    assert ledger.sweeps == 5
    for got, want in zip(deferred, oracle):
        assert sorted(got) == sorted(want)
        a, b = pack_hit_columns(got, sorted(got)), pack_hit_columns(want, sorted(want))
        for name, x, y in zip(a._fields, a, b):
            assert np.array_equal(x, y), name
        assert [got[q].evaluated for q in sorted(got)] == [want[q].evaluated for q in sorted(want)]


def test_distinct_queries_share_one_sweep(tiny_db, tiny_queries):
    config = replace(FAST, delta=3.0)
    searcher = ShardSearcher(tiny_db, config)
    block = QueryBlock.prepare(list(tiny_queries), config)
    ledger = rotation.PassLedger()
    lists = [{}, {}]
    ledger.record(searcher, block.slice(0, 5), lists[0])
    ledger.record(searcher, block.slice(5, len(block)), lists[1])
    ledger.flush()
    assert (ledger.passes, ledger.sweeps) == (2, 1)
    ledger.flush()  # nothing pending: no sweep
    assert ledger.sweeps == 1
