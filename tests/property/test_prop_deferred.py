"""Deferred shard passes equal eager ones, bit for bit.

A simulated engine charges each shard pass from its plan and exact
counts (``ShardSearcher.pass_stats``) and records it in the run's
``rotation.PassLedger``.  Under MODELED execution the ledger counts each
query's candidates into its list's ``evaluated`` and keeps nothing;
under REAL execution it scores the recorded passes later: each shard's
records cut into sweeps where a query id would repeat, and one sweep
per query-id -> hit-list map, over every shard whose sweep has that map
laid end to end.  The oracle is the eager pass every engine ran before:
``eager_score_pass`` below scores a pass when it is made and charges
the stats scoring returned, and ``EagerLedger`` does the same for an
adopter's rescans.  Against it:

- plan-derived stats equal scored stats field by field (PTM tiers,
  Algorithm B's ``lighter_than`` slices, empty blocks, more ranks than
  sequences, both execution modes);
- deferred A, A-nomask, B and master-worker runs equal eager ones in
  hits, ``virtual_time``, per-rank trace totals and events,
  ``candidates_evaluated`` and the sum of every hit list's
  ``evaluated``, in both execution modes, on the default network, on
  hardware RMA with skewed rank speeds (several flushes), under PTM
  tiers, under a crash that forces a salvage and an adoption, and for a
  B run whose shards serve different query prefixes (several sweeps in
  one flush); each REAL run makes exactly the sweeps the merge rule
  predicts from its records (``predicted_sweeps``);
- a flush whose pending records hold one query id twice against one
  shard (a dead rank's pass and its adopter's rescan) splits the sweep,
  so each record's lists get exactly what an eager pass gives them;
- sweeps with equal maps merge into one sweep over their shards laid
  end to end, and neither a subset map nor the same ids mapped to other
  lists joins them.
"""

import random
from contextlib import contextmanager
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.generator import heaviest_parent_mass
from repro.candidates.mass_index import MassIndex
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
from repro.scoring.hits import TopHitList, pack_hit_columns
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
    # every column, masses too: a row's mass is a difference of running
    # sums, which a longer running sum could round otherwise
    a, b = deferred.hits.columns, eager_report.hits.columns
    for name, x, y in zip(a._fields, a, b):
        assert np.array_equal(x, y), name
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


def predicted_sweeps(records):
    """The sweeps the merge rule makes of one flush's ``(searcher, block,
    lists)`` records, in record order: each shard's records cut before
    one repeating a query id of the sweep, one sweep per distinct
    query-id -> hit-list map."""
    per_shard = {}
    for searcher, block, lists in records:
        per_shard.setdefault(id(searcher), []).append((block, lists))
    maps = set()
    for shard_records in per_shard.values():
        sweep = {}
        for block, lists in shard_records:
            ids = {q.query_id for q in block.queries}
            if ids & sweep.keys():
                maps.add(frozenset((k, id(v)) for k, v in sweep.items()))
                sweep = {}
            sweep.update((k, lists[k]) for k in ids)
        maps.add(frozenset((k, id(v)) for k, v in sweep.items()))
    return len(maps)


@contextmanager
def watched_ledger(flushes):
    """Append to ``flushes`` the sweeps the rule predicts for each
    non-empty flush of the deferred ledgers made inside."""
    record, flush = rotation.PassLedger.record, rotation.PassLedger.flush
    pending = []

    def spied_record(self, searcher, queries, hitlists):
        stats = record(self, searcher, queries, hitlists)
        if queries and searcher.config.execution is ExecutionMode.REAL:
            pending.append((searcher, queries, hitlists))
        return stats

    def spied_flush(self):
        if pending:
            flushes.append(predicted_sweeps(pending))
            pending.clear()
        flush(self)

    with mock.patch.object(rotation.PassLedger, "record", spied_record), mock.patch.object(
        rotation.PassLedger, "flush", spied_flush
    ):
        yield


@contextmanager
def hit_lists_made(made):
    """Append to ``made`` every ``TopHitList`` constructed inside."""
    init = TopHitList.__init__

    def spied(self, tau):
        init(self, tau)
        made.append(self)

    with mock.patch.object(TopHitList, "__init__", spied):
        yield


def both(db, queries, algorithm, p, config, cluster_factory=lambda p: None):
    """The deferred and the eager report of one run (fresh cluster
    configs), checked bitwise — the sum of every hit list's
    ``evaluated`` too — and the sweeps each deferred flush made checked
    against the rule; returns ``(deferred, flushes)``, the predicted
    sweeps per non-empty flush."""
    flushes, made, oracle_made = [], [], []
    with watched_ledger(flushes), hit_lists_made(made):
        deferred = run_search(db, queries, algorithm, p, config, cluster_factory(p))
    with eager(), hit_lists_made(oracle_made):
        oracle = run_search(db, queries, algorithm, p, config, cluster_factory(p))
    assert_bitwise(deferred, oracle)
    assert sum(h.evaluated for h in made) == sum(h.evaluated for h in oracle_made)
    if "flush_sweeps" in deferred.extras:
        assert deferred.extras["flush_sweeps"] == sum(flushes)
    else:
        assert flushes == []  # MODELED, or a serial search: no flush scored anything
    return deferred, flushes


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
            planned = searcher.pass_stats(served, searcher.generator.count_many(served.masses))
            scored = searcher.run(served, {})
            for f in fields(planned):
                expected = 0 if f.name in SCORED_ONLY else getattr(scored, f.name)
                assert getattr(planned, f.name) == expected, f.name


# -- deferred runs are eager runs ------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("algorithm", ENGINES)
def test_deferred_run_is_the_eager_run(tiny_db, tiny_queries, algorithm, p):
    """Software RMA: a fault-free A or B run flushes once; A's query-id
    maps are equal on every shard, so it sweeps once over the shards laid
    end to end; master-worker flushes once per batch, one sweep each."""
    deferred, flushes = both(tiny_db, tiny_queries, algorithm, p, FAST)
    if p == 1 and algorithm == "master_worker":
        return  # the serial search
    passes, sweeps = deferred.extras["shard_passes"], deferred.extras["flush_sweeps"]
    if algorithm == "master_worker":
        assert passes == sweeps == len(flushes) == -(-len(tiny_queries) // 16)
    else:
        assert len(flushes) == 1 and sweeps <= p
        assert (passes, sweeps) == (p * p, 1) or algorithm == "algorithm_b"


@pytest.mark.parametrize("p", [2, 3, 8])
@pytest.mark.parametrize("algorithm", ENGINES)
def test_modeled_run_is_the_eager_run(tiny_db, tiny_queries, algorithm, p):
    """MODELED: each pass counts its candidates into ``evaluated`` when
    recorded (``both`` compares the totals) and no flush sweeps."""
    config = replace(FAST, execution=ExecutionMode.MODELED)
    deferred, flushes = both(tiny_db, tiny_queries, algorithm, p, config)
    assert flushes == [] and "flush_sweeps" not in deferred.extras


@pytest.mark.parametrize("algorithm", ["algorithm_a", "algorithm_b"])
def test_ptm_runs_are_the_eager_runs(tiny_db, tiny_queries, algorithm):
    config = replace(FAST, modifications=(OXIDATION,), scorer="hyperscore", delta=3.0)
    both(tiny_db, tiny_queries, algorithm, 3, config)


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

    _deferred, flushes = both(tiny_db, tiny_queries, algorithm, p, FAST, cluster)
    if algorithm != "master_worker":  # one batch here: one flush
        assert len(flushes) > 1


def test_light_shards_keep_b_sweeps_apart():
    """Peptide-length sequences: after B's sort the light shards serve
    only a mass-order prefix of a rank's queries, so their maps differ
    and one flush holds several sweeps, while the heavy shards, which
    serve every query, share one."""
    rng = random.Random(7)
    db = ProteinDatabase.from_sequences(
        ["".join(rng.choice(AMINO_ACIDS) for _ in range(rng.randint(6, 24))) for _ in range(40)]
    )
    queries = [make_query(700.0 + 45.0 * k, k) for k in range(36)]
    p = 6
    deferred, flushes = both(db, queries, "algorithm_b", p, FAST)
    assert len(flushes) == 1 and 1 < flushes[0] < p


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
        deferred, _flushes = both(tiny_db, tiny_queries, algorithm, p, FAST, cluster)
    assert deferred.extras["failed_ranks"] == [2]
    events = [e for tr in deferred.trace.per_rank.values() for e in tr.events]
    assert any(detail.startswith("salvage D2") for _c, _s, _d, detail in events)
    assert any(detail.startswith("rescore Q2") for _c, _s, _d, detail in events)
    assert len(met) > len(set(met))  # a query id met one shard twice


# -- the ledger on its own ------------------------------------------------


def assert_lists_equal(got, want):
    assert sorted(got) == sorted(want)
    a, b = pack_hit_columns(got, sorted(got)), pack_hit_columns(want, sorted(want))
    for name, x, y in zip(a._fields, a, b):
        assert np.array_equal(x, y), name
    assert [got[q].evaluated for q in sorted(got)] == [want[q].evaluated for q in sorted(want)]


def deferred_and_eager(searchers, passes, owners):
    """Record ``passes`` — ``(searcher index, served block, owner index)``
    — in a fresh ledger and score them eagerly too; returns the ledger
    after one flush, the shard sizes its sweeps ran over, and per owner
    the deferred and the eager lists."""
    ledger = rotation.PassLedger()
    deferred = [{} for _ in range(owners)]
    oracle = [{} for _ in range(owners)]
    for s, served, owner in passes:
        ledger.record(searchers[s], served, deferred[owner])
        searchers[s].run(served, oracle[owner])
    swept = []
    run = ShardSearcher.run

    def spied(searcher, queries, hitlists):
        swept.append(searcher)
        return run(searcher, queries, hitlists)

    with mock.patch.object(ShardSearcher, "run", spied):
        ledger.flush()
    modeled = searchers[0].config.execution is ExecutionMode.MODELED
    records = [(searchers[s], b, deferred[o]) for s, b, o in passes]
    predicted = 0 if modeled else predicted_sweeps(records)
    assert ledger.sweeps == len(swept) == predicted
    for got, want in zip(deferred, oracle):
        assert_lists_equal(got, want)
    return ledger, swept


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
    # shard 0: block | block | half, each repeating ids of the one before;
    # shard 1: half | block.  The two `block -> owner 1` sweeps share one
    # map and merge; shard 1's `half -> owner 0` is a subset of shard 0's
    # `block -> owner 0` and does not: 4 sweeps
    ledger, swept = deferred_and_eager(searchers, passes, 3)
    assert ledger.sweeps == 4
    assert sorted(len(s.shard) for s in swept) == sorted(
        [len(shards[0]), len(shards[0]), len(shards[1]), len(tiny_db)]
    )


@pytest.mark.parametrize("scorer", ["shared_peaks", "likelihood"])
def test_only_equal_maps_merge(tiny_db, tiny_queries, scorer):
    """Shards 0 and 1 serve ``block`` into the same lists: one sweep over
    both laid end to end.  Shard 2 serves it into other lists (the same
    ids) and shard 3 a subset of it into the same lists: each sweeps its
    own searcher."""
    config = replace(FAST, scorer=scorer, delta=3.0)
    shards = partition_database(tiny_db, 4)
    searchers = [ShardSearcher(s, config) for s in shards]
    block = QueryBlock.prepare(list(tiny_queries), config)
    half = block.lighter_than(float(np.median(block.masses)))
    passes = [(0, block, 0), (2, block, 1), (1, block, 0), (3, half, 0)]
    ledger, swept = deferred_and_eager(searchers, passes, 2)
    assert ledger.sweeps == 3
    merged, own = swept[0], swept[1:]
    assert len(merged.shard) == len(shards[0]) + len(shards[1])
    assert merged.shard.ids.tolist() == shards[0].ids.tolist() + shards[1].ids.tolist()
    assert own == [searchers[2], searchers[3]]


def test_a_merged_searcher_takes_the_merged_table(tiny_db, monkeypatch):
    """A searcher over shards laid end to end scores over the table
    merged from theirs; one that would build its own over the longer
    buffer is refused."""
    config = replace(FAST, delta=3.0)
    searchers = [ShardSearcher(s, config) for s in partition_database(tiny_db, 2)]
    merged = rotation._end_to_end(searchers)
    parts = [s.generator.index.mass for s in searchers]
    assert np.array_equal(np.sort(merged.generator.index.mass), np.sort(np.concatenate(parts)))
    merge = MassIndex.end_to_end

    def forgotten(cls, parts, shard):
        table = merge(parts, shard)
        shard._mass_index = None  # not kept: the searcher builds its own
        return table

    monkeypatch.setattr(MassIndex, "end_to_end", classmethod(forgotten))
    with pytest.raises(RuntimeError, match="merged row table"):
        rotation._end_to_end(searchers)


def test_a_modeled_pass_is_counted_when_recorded(tiny_db, tiny_queries):
    config = replace(FAST, delta=3.0, execution=ExecutionMode.MODELED)
    searchers = [ShardSearcher(s, config) for s in partition_database(tiny_db, 2)]
    block = QueryBlock.prepare(list(tiny_queries), config)
    half = block.lighter_than(float(np.median(block.masses)))
    passes = [(0, block, 0), (1, half, 0), (1, block, 1)]
    ledger, swept = deferred_and_eager(searchers, passes, 2)
    assert ledger.sweeps == 0 and swept == []
    assert ledger.passes == 3


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
