"""Integration: the candidate-major sweep across engines.

The block cap must be invisible in results everywhere the shard pass is
wired: simulated Algorithms A/B (including fault-injected runs), the
serial engine, and the real multiprocessing engine under both fork and
spawn with mass-sorted query blocks.
"""

import multiprocessing as mp
from dataclasses import replace

import pytest

from repro.core.algorithm_a import run_algorithm_a
from repro.core.algorithm_b import run_algorithm_b
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.engines.multiproc import run_multiprocess_search
from repro.faults import FaultPlan, RankCrash
from repro.simmpi.scheduler import ClusterConfig

RANKS = 6


def hit_keys(report):
    return {qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()}


@pytest.fixture()
def sweep_config():
    return SearchConfig(tau=10, sweep_cohort=8)


@pytest.fixture()
def serial_reference(tiny_db, tiny_queries):
    # one block of 64 on one rank; the runs below use blocks of 8
    return search_serial(tiny_db, tiny_queries, SearchConfig(tau=10))


class TestSimulatedEngines:
    def test_serial_sweep_equals_per_query(self, tiny_db, tiny_queries, sweep_config, serial_reference):
        report = search_serial(tiny_db, tiny_queries, sweep_config)
        assert hit_keys(report) == hit_keys(serial_reference)
        assert report.candidates_evaluated == serial_reference.candidates_evaluated
        assert report.extras["sweep_queries"] == len(tiny_queries)
        assert report.extras["sweep_cohorts"] >= 1

    def test_algorithm_a_sweep_under_faults(self, tiny_db, tiny_queries, sweep_config, serial_reference):
        baseline = run_algorithm_a(tiny_db, tiny_queries, RANKS, sweep_config)
        plan = FaultPlan(crashes=(RankCrash(2, 0.5 * baseline.virtual_time),))
        cfg = ClusterConfig(num_ranks=RANKS, fault_plan=plan)
        report = run_algorithm_a(
            tiny_db, tiny_queries, RANKS, sweep_config, cluster_config=cfg
        )
        assert hit_keys(report) == hit_keys(serial_reference)
        assert report.candidates_evaluated == serial_reference.candidates_evaluated
        assert report.extras["failed_ranks"] == [2]
        assert report.extras["sweep_queries"] > 0
        assert report.extras["sweep_cohorts"] > 0

    def test_algorithm_b_sweep_under_faults(self, tiny_db, tiny_queries, sweep_config, serial_reference):
        baseline = run_algorithm_b(tiny_db, tiny_queries, RANKS, sweep_config)
        plan = FaultPlan(crashes=(RankCrash(4, 0.9 * baseline.virtual_time),))
        cfg = ClusterConfig(num_ranks=RANKS, fault_plan=plan)
        report = run_algorithm_b(
            tiny_db, tiny_queries, RANKS, sweep_config, cluster_config=cfg
        )
        assert hit_keys(report) == hit_keys(serial_reference)
        assert report.extras["failed_ranks"] == [4]
        assert report.extras["sweep_queries"] > 0

    def test_sweep_setup_traced_separately(self, tiny_db, tiny_queries, sweep_config):
        """REAL passes charge the sweep terms as their own trace category;
        MODELED passes count without scoring and keep the paper's
        per-query overhead inside compute."""
        report = run_algorithm_a(tiny_db, tiny_queries, RANKS, sweep_config)
        assert report.trace.total_sweep > 0.0
        assert report.extras["sweep_setup_time"] == report.trace.total_sweep
        modeled = replace(sweep_config, execution=ExecutionMode.MODELED)
        baseline = run_algorithm_a(tiny_db, tiny_queries, RANKS, modeled)
        assert baseline.trace.total_sweep == 0.0
        assert "sweep_setup_time" not in baseline.extras


class TestMultiprocess:
    def test_sorted_blocks_identical_hits_inline(self, tiny_db, tiny_queries, sweep_config, serial_reference):
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=1, config=sweep_config, query_blocks=3
        )
        assert reports_equal(serial_reference, report)
        assert report.extras["sweep_queries"] > 0

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_sorted_blocks_identical_hits_pooled(
        self, method, tiny_db, tiny_queries, sweep_config, serial_reference
    ):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"{method} unavailable")
        report = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=2,
            config=sweep_config,
            query_blocks=3,
            start_method=method,
        )
        assert reports_equal(serial_reference, report)
        assert report.extras["sweep_queries"] > 0
        assert report.extras["sweep_cohorts"] > 0
