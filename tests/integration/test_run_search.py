"""`run_search` is the one dispatch: every engine, store and fault-plan
combination goes through it and returns the scalar reference's hits."""

import pytest

from repro.core.driver import run_search
from repro.errors import ConfigError, IndexCompatError
from repro.faults.plan import FaultPlan, RankCrash
from repro.store import save_index, save_partitioned_index
from tests.reference import assert_report_matches, reference_search

CRASH_RANK_0 = FaultPlan(crashes=(RankCrash(0, 1e-4),))


@pytest.fixture(scope="module")
def stores(tiny_db, tmp_path_factory):
    root = tmp_path_factory.mktemp("stores")
    save_index(tiny_db, str(root / "resident"))
    save_partitioned_index(tiny_db, str(root / "partitioned"), partition_mb=0.25)
    return {None: None, "resident": str(root / "resident"), "partitioned": str(root / "partitioned")}


@pytest.mark.parametrize(
    "algorithm, ranks, store, plan",
    [
        ("serial", 1, None, None),
        ("serial", 1, "resident", None),
        ("serial", 1, "partitioned", None),
        ("multiproc", 2, None, CRASH_RANK_0),
        ("algorithm_a", 4, None, CRASH_RANK_0),
    ],
)
def test_every_path_returns_the_reference_hits(
    algorithm, ranks, store, plan, tiny_db, tiny_queries, fast_config, stores
):
    report = run_search(
        tiny_db, tiny_queries, algorithm, ranks, fast_config,
        index_path=stores[store], fault_plan=plan,
    )
    assert_report_matches(reference_search(tiny_db, fast_config, tiny_queries), report)
    if plan is not None:  # the fault was injected and survived, not dropped
        assert report.extras.get("recovery_retries") or report.extras["failed_ranks"]


@pytest.mark.parametrize("store", ["resident", "partitioned"])
def test_simulated_engine_refuses_a_store(store, tiny_db, tiny_queries, fast_config, stores):
    with pytest.raises(IndexCompatError, match="real engines"):
        run_search(tiny_db, tiny_queries, "algorithm_a", 2, fast_config, index_path=stores[store])


def test_memory_budget_needs_a_partitioned_store(tiny_db, tiny_queries, fast_config, stores):
    with pytest.raises(ConfigError, match="silently meaningless"):
        run_search(tiny_db, tiny_queries, "serial", 1, fast_config, memory_budget_mb=64)
    with pytest.raises(ConfigError, match="resident-format store"):
        run_search(
            tiny_db, tiny_queries, "serial", 1, fast_config,
            index_path=stores["resident"], memory_budget_mb=64,
        )


@pytest.mark.parametrize("algorithm, ranks", [("serial", 1), ("multiproc", 2)])
@pytest.mark.parametrize("store", ["resident", "partitioned"])
def test_search_the_store_cannot_serve_is_typed(
    algorithm, ranks, store, tiny_db, tiny_queries, stores
):
    from repro.core.config import SearchConfig

    with pytest.raises(IndexCompatError, match="modeled execution"):
        run_search(
            tiny_db, tiny_queries, algorithm, ranks,
            SearchConfig(tau=10, execution="modeled"), index_path=stores[store],
        )
