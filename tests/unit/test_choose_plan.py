"""The plan rule, branch by branch, with nothing timed.

:func:`repro.core.driver.choose_plan` makes two comparisons — stream or
not (a partitioned store *and* a budget under the resident footprint),
serial or multiproc (two cores *and* candidates over the crossover).
The host's core count is monkeypatched, so every branch is pinned on
any machine.
"""

import json
import multiprocessing
import os

import pytest

from repro.core import driver
from repro.core.config import SearchConfig
from repro.core.driver import TUNING_SCHEMA, Plan, choose_plan
from repro.core.search import search_serial
from repro.errors import ConfigError
from repro.store import save_index, save_partitioned_index
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def workload():
    return generate_database(60, seed=5), generate_queries(12, seed=6)


@pytest.fixture(scope="module")
def pstore(workload, tmp_path_factory):
    return save_partitioned_index(
        workload[0], tmp_path_factory.mktemp("rule") / "p", partition_mb=0.5
    )


def footprint_mb(workload):
    db, queries = workload
    return (db.nbytes + sum(q.nbytes for q in queries)) / (1024 * 1024)


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    set_cpus(2)
    return set_cpus


class TestSerialOrMultiproc:
    def test_candidates_below_and_above_the_crossover(self, workload, cpus, monkeypatch):
        db, queries = workload
        total = choose_plan(db, queries).inputs["candidates"]
        assert total > 0
        monkeypatch.setattr(driver, "MULTIPROC_CROSSOVER_CANDIDATES", total)
        assert choose_plan(db, queries) == Plan()  # equal is not above
        monkeypatch.setattr(driver, "MULTIPROC_CROSSOVER_CANDIDATES", total - 1)
        plan = choose_plan(db, queries)
        assert (plan.algorithm, plan.num_workers, plan.query_blocks) == (
            "multiproc", 2, driver.MULTIPROC_QUERY_BLOCKS
        )
        assert plan.source == "direct"
        assert plan.inputs["crossover"] == total - 1

    def test_candidates_are_the_engines_exact_count(self, workload):
        db, queries = workload
        config = SearchConfig(scorer="hyperscore")
        plan = choose_plan(db, queries, config)
        assert plan.inputs["candidates"] == search_serial(db, queries, config).candidates_evaluated

    def test_one_core_is_serial_at_any_size(self, workload, cpus, monkeypatch):
        db, queries = workload
        cpus(1)
        monkeypatch.setattr(driver, "MULTIPROC_CROSSOVER_CANDIDATES", 0)
        plan = choose_plan(db, queries)
        assert plan == Plan()
        assert plan.inputs["cpus"] == 1

    def test_width_is_two_on_a_wide_host(self, workload, cpus, monkeypatch):
        db, queries = workload
        cpus(16)
        monkeypatch.setattr(driver, "MULTIPROC_CROSSOVER_CANDIDATES", 0)
        assert choose_plan(db, queries).num_workers == 2

    def test_spawn_only_where_fork_is_missing(self, workload, cpus, monkeypatch):
        db, queries = workload
        monkeypatch.setattr(driver, "MULTIPROC_CROSSOVER_CANDIDATES", 0)
        assert choose_plan(db, queries).start_method == (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert choose_plan(db, queries).start_method == "spawn"


class TestStreamOrNot:
    def test_store_without_budget_is_direct(self, workload, pstore, cpus):
        plan = choose_plan(*workload, store=pstore)
        assert plan.source == "direct"
        assert plan.inputs["store"] is True
        assert plan.inputs["memory_budget_mb"] is None

    def test_store_with_budget_over_the_footprint_is_direct(self, workload, pstore):
        budget = 2 * footprint_mb(workload)
        assert choose_plan(*workload, store=pstore, memory_budget_mb=budget).source == "direct"

    def test_store_with_budget_under_the_footprint_streams(self, workload, pstore):
        budget = footprint_mb(workload) / 2
        plan = choose_plan(*workload, store=pstore, memory_budget_mb=budget)
        assert plan.source == "streamed"
        db, queries = workload
        assert plan.inputs["resident_bytes"] == db.nbytes + sum(q.nbytes for q in queries)
        assert plan.inputs["memory_budget_mb"] == budget

    def test_budget_under_the_footprint_without_store_is_typed_error(self, workload):
        with pytest.raises(ConfigError, match="no partitioned store"):
            choose_plan(*workload, memory_budget_mb=footprint_mb(workload) / 2)

    def test_a_resident_store_is_nothing_to_stream(self, workload, tmp_path):
        resident = save_index(workload[0], tmp_path / "r")
        assert choose_plan(*workload, store=resident).inputs["store"] is False
        with pytest.raises(ConfigError):
            choose_plan(*workload, store=resident, memory_budget_mb=footprint_mb(workload) / 2)


class TestTuningSection:
    def test_section_records_inputs_choice_and_overrides(self, workload, pstore):
        plan = choose_plan(
            *workload, store=pstore, memory_budget_mb=footprint_mb(workload) / 2
        )
        section = plan.tuning_section(["--query-blocks"])
        assert section["schema"] == TUNING_SCHEMA == "repro.tuning/4"
        assert section["inputs"] == plan.inputs
        assert set(section["inputs"]) == {
            "candidates", "crossover", "cpus", "memory_budget_mb", "resident_bytes", "store"
        }
        assert section["choice"]["label"] == plan.label
        assert section["choice"]["source"] == "streamed"
        assert section["overrides"] == ["--query-blocks"]
        assert json.loads(json.dumps(section)) == section
