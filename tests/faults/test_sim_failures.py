"""Fault-injected simulator runs: recovery correctness and cost accounting.

The central property (the paper's parallel == serial validation, extended
to faulty machines): a run under a :class:`FaultPlan` must produce hits
*identical* to the fault-free run — survivors adopt dead ranks' query
blocks and rescan them in full, merges deduplicate, and scoring is
deterministic.  For Algorithm A even the candidate-evaluation count is
preserved (the adopter's full rescan contributes exactly the orphaned
block's cells); Algorithm B's adopters rescan unpruned, so only the hits
are asserted there.
"""

from dataclasses import replace

import pytest

from repro.core.algorithm_a import run_algorithm_a
from repro.core.algorithm_b import run_algorithm_b
from repro.errors import DeadlockError
from repro.faults import (
    FaultPlan,
    NicDegradation,
    RankCrash,
    Straggler,
    TransientFaults,
)
from repro.simmpi.scheduler import ClusterConfig

RANKS = 8


def hit_keys(report):
    return {qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()}


@pytest.fixture(scope="module")
def baseline_a(tiny_db, tiny_queries):
    return run_algorithm_a(tiny_db, tiny_queries, RANKS)


@pytest.fixture(scope="module")
def baseline_b(tiny_db, tiny_queries):
    return run_algorithm_b(tiny_db, tiny_queries, RANKS)


def run_a_with(plan, tiny_db, tiny_queries):
    cfg = ClusterConfig(num_ranks=RANKS, fault_plan=plan)
    return run_algorithm_a(tiny_db, tiny_queries, RANKS, cluster_config=cfg)


def run_b_with(plan, tiny_db, tiny_queries):
    cfg = ClusterConfig(num_ranks=RANKS, fault_plan=plan)
    return run_algorithm_b(tiny_db, tiny_queries, RANKS, cluster_config=cfg)


class TestAlgorithmACrashes:
    def test_one_rank_killed_mid_rotation_output_identical(
        self, tiny_db, tiny_queries, baseline_a
    ):
        """The issue's acceptance scenario: kill 1 of 8 ranks mid-rotation;
        the run completes and hits equal the fault-free run exactly."""
        crash_at = 0.5 * baseline_a.virtual_time
        plan = FaultPlan(crashes=(RankCrash(3, crash_at),))
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.candidates_evaluated == baseline_a.candidates_evaluated
        assert report.extras["failed_ranks"] == [3]
        assert report.extras["recovery_time"] > 0.0
        assert report.extras["recovery_fetches"] > 0
        assert report.num_ranks == RANKS

    def test_recovery_costs_virtual_time(self, tiny_db, tiny_queries, baseline_a):
        crash_at = 0.5 * baseline_a.virtual_time
        plan = FaultPlan(crashes=(RankCrash(3, crash_at),))
        report = run_a_with(plan, tiny_db, tiny_queries)
        # Surviving a crash is not free: the makespan grows by the
        # adopter's rescan plus the salvage transfers.
        assert report.virtual_time > baseline_a.virtual_time
        assert report.trace.total_recovery > 0.0

    def test_two_crashes_still_identical(self, tiny_db, tiny_queries, baseline_a):
        t = baseline_a.virtual_time
        plan = FaultPlan(crashes=(RankCrash(1, 0.4 * t), RankCrash(5, 0.7 * t)))
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.candidates_evaluated == baseline_a.candidates_evaluated
        assert report.extras["failed_ranks"] == [1, 5]

    def test_adopters_chain_when_successor_dies_too(
        self, tiny_db, tiny_queries, baseline_a
    ):
        """Adjacent crashes force the recovery responsibility to chain
        past the dead successor (ring-order adoption)."""
        t = baseline_a.virtual_time
        plan = FaultPlan(crashes=(RankCrash(2, 0.5 * t), RankCrash(3, 0.55 * t)))
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.candidates_evaluated == baseline_a.candidates_evaluated
        assert sorted(report.extras["failed_ranks"]) == [2, 3]

    def test_fault_free_plan_adds_no_recovery(self, tiny_db, tiny_queries, baseline_a):
        report = run_a_with(FaultPlan(), tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.extras["failed_ranks"] == []
        assert report.extras["recovery_fetches"] == 0


class TestDegradedMachines:
    def test_straggler_slows_makespan_but_not_results(
        self, tiny_db, tiny_queries, baseline_a
    ):
        plan = FaultPlan(stragglers=(Straggler(2, factor=0.25),))
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.candidates_evaluated == baseline_a.candidates_evaluated
        assert report.virtual_time > baseline_a.virtual_time

    def test_nic_degradation_slows_makespan_but_not_results(
        self, tiny_db, tiny_queries, baseline_a
    ):
        plan = FaultPlan(nic_degradations=(NicDegradation(0, factor=0.05),))
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.virtual_time > baseline_a.virtual_time

    def test_transient_faults_charged_and_counted(
        self, tiny_db, tiny_queries, baseline_a
    ):
        plan = FaultPlan(transient=TransientFaults(probability=0.3, penalty=1e-3, seed=5))
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.extras["recovery_retries"] > 0
        assert report.virtual_time > baseline_a.virtual_time

    def test_transient_runs_are_reproducible(self, tiny_db, tiny_queries):
        plan = FaultPlan(transient=TransientFaults(probability=0.2, seed=9))
        first = run_a_with(plan, tiny_db, tiny_queries)
        second = run_a_with(plan, tiny_db, tiny_queries)
        assert first.virtual_time == second.virtual_time
        assert first.extras["recovery_retries"] == second.extras["recovery_retries"]


class TestSeededPlansProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_plan_preserves_algorithm_a_output(
        self, seed, tiny_db, tiny_queries, baseline_a
    ):
        """Sampled fault plans (crash + straggler + NIC + transient mixes)
        never change what Algorithm A computes, only when it finishes."""
        horizon = baseline_a.virtual_time
        plan = FaultPlan.random(seed, num_ranks=RANKS, horizon=horizon)
        # Keep crashes inside the supported window: after the initial
        # barrier (shard exposure), i.e. comfortably into the rotation.
        crashes = tuple(
            RankCrash(c.rank, max(c.time, 0.3 * horizon)) for c in plan.crashes
        )
        plan = replace(plan, crashes=crashes)
        report = run_a_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_a)
        assert report.candidates_evaluated == baseline_a.candidates_evaluated
        assert report.extras["failed_ranks"] == [c.rank for c in plan.crashes]


class TestAlgorithmBCrashes:
    def test_post_sort_crash_output_identical(self, tiny_db, tiny_queries, baseline_b):
        crash_at = 0.9 * baseline_b.virtual_time
        plan = FaultPlan(crashes=(RankCrash(4, crash_at),))
        report = run_b_with(plan, tiny_db, tiny_queries)
        assert hit_keys(report) == hit_keys(baseline_b)
        assert report.extras["failed_ranks"] == [4]
        assert report.extras["recovery_time"] > 0.0

    def test_sort_phase_crash_aborts_loudly(self, tiny_db, tiny_queries):
        """A crash during B2's alltoallv redistribution is outside the
        supported fault window: redistributed sequences have no surviving
        replica, so the run must fail loudly, not silently drop data."""
        plan = FaultPlan(crashes=(RankCrash(0, 0.0),))
        with pytest.raises(DeadlockError, match="sort phase"):
            run_b_with(plan, tiny_db, tiny_queries)
