"""Integration: fragment-ion index + zero-copy transport in the
multiprocessing engine.

The engine must return bitwise-identical hits whether scores come from
a store's memory-mapped index or the direct batch path, under both fork and
spawn start methods, and its per-task payload must carry only id
references (the database and query payloads ship once, via the worker
context).
"""

import multiprocessing
import os

import pytest

from repro.core.config import SearchConfig
from repro.core.partition import partition_queries_by_mass
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.engines.multiproc import _TASK_WIRE_BYTES, _Supervisor, run_multiprocess_search
from repro.faults.supervisor import RetryPolicy
from repro.store import save_index, save_partitioned_index

_START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


def _cfg(**kw):
    return SearchConfig(tau=10, **kw)


class TestIndexOnOff:
    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_identical_hits_index_on_and_off(
        self, tiny_db, tiny_queries, start_method, tmp_path
    ):
        store = save_index(tiny_db, tmp_path / "resident")
        cfg = _cfg(scorer="hyperscore")  # a scorer the postings serve
        on = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=cfg,
            start_method=start_method, index_path=str(store.path),
        )
        off = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=cfg,
            start_method=start_method,
        )
        assert reports_equal(on, off)
        assert reports_equal(search_serial(tiny_db, tiny_queries, cfg), on)
        assert on.extras["index_rows"] > 0
        assert 0.0 < on.extras["index_probe_fraction"] <= 1.0
        assert off.extras["index_rows"] == 0
        assert off.extras["index_probe_fraction"] == 0.0

    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_partitioned_store_keeps_both_workers_busy(
        self, tiny_db, tiny_queries, start_method, tmp_path
    ):
        """Over a partitioned store the query blocks carry the
        parallelism.  Split by partition count instead, every worker but
        the first would own high-mass partitions no query reaches."""
        store = save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=1.0 / 16.0)
        cfg = _cfg(scorer="hyperscore")
        reach = max(q.parent_mass for q in tiny_queries) + cfg.delta
        assert store.partitions[store.num_partitions // 2].mass_lo > reach
        report = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=cfg, query_blocks=4,
            start_method=start_method, index_path=str(store.path),
        )
        assert reports_equal(search_serial(tiny_db, tiny_queries, cfg), report)
        assert report.extras["query_blocks"] == 4
        assert report.extras["tasks_completed"] == 4
        # no task is idle: every block of the grid brings hits back
        for block in partition_queries_by_mass(tiny_queries, 4):
            assert any(report.hits[q.query_id] for q in block)

    def test_query_blocks_split_matches_serial(self, tiny_db, tiny_queries):
        rep = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=_cfg(), query_blocks=3
        )
        assert rep.extras["query_blocks"] == 3
        assert reports_equal(search_serial(tiny_db, tiny_queries, _cfg()), rep)


class TestZeroCopyTransport:
    def test_task_payload_is_id_references_only(self):
        sup = _Supervisor(None, {7: 2}, RetryPolicy(max_retries=0), None)
        payload = sup._payload(7)
        assert payload == (7, 0, 2)
        assert all(isinstance(v, int) for v in payload)

    def test_bytes_shipped_drop_vs_replicated(self, tiny_db, tiny_queries):
        """Per-task traffic is a handful of ints; the old design shipped
        the database and the query block inside every task."""
        rep = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=2, config=_cfg(), query_blocks=2
        )
        ex = rep.extras
        assert ex["tasks_total"] == ex["query_blocks"] == 2
        assert ex["bytes_shipped_tasks"] == _TASK_WIRE_BYTES * ex["tasks_total"]
        assert ex["bytes_shipped"] == ex["bytes_shipped_setup"] + ex["bytes_shipped_tasks"]
        assert ex["bytes_shipped"] < ex["bytes_shipped_replicated"]

    @pytest.mark.skipif(
        set(_START_METHODS) != {"fork", "spawn"}, reason="needs fork and spawn"
    )
    def test_spawn_counts_one_context_per_worker(self, tiny_db, tiny_queries):
        """Fork workers inherit one copy of the context; the pool
        initializer pickles one to every spawned worker."""
        setup = {
            method: run_multiprocess_search(
                tiny_db, tiny_queries, num_workers=2, config=_cfg(),
                start_method=method,
            ).extras["bytes_shipped_setup"]
            for method in ("fork", "spawn")
        }
        assert setup["spawn"] == 2 * setup["fork"] > 0

    def test_inline_path_reports_bytes_too(self, tiny_db, tiny_queries):
        rep = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=1, config=_cfg(), query_blocks=4
        )
        assert rep.extras["bytes_shipped"] < rep.extras["bytes_shipped_replicated"]
