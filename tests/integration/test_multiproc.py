"""Integration: the real multiprocessing engine."""

import multiprocessing
import os
import random
import time
from dataclasses import replace

import pytest

from repro.core import results
from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.core.results import reports_equal
from repro.engines import multiproc
from repro.engines.multiproc import run_multiprocess_search
from repro.scoring.hits import HitTable
from repro.store import save_index, save_partitioned_index
from repro.workloads.queries import QueryWorkload
from tests.reference import assert_report_matches, reference_search


class TestMultiprocess:
    def test_output_matches_serial(self, small_db, tiny_queries):
        cfg = SearchConfig(tau=10)
        ref = search_serial(small_db, tiny_queries, cfg)
        rep = run_multiprocess_search(small_db, tiny_queries, num_workers=2, config=cfg)
        assert reports_equal(ref, rep)

    def test_single_worker_inline(self, small_db, tiny_queries):
        cfg = SearchConfig(tau=10)
        rep = run_multiprocess_search(small_db, tiny_queries, num_workers=1, config=cfg)
        ref = search_serial(small_db, tiny_queries, cfg)
        assert reports_equal(ref, rep)

    def test_more_tasks_than_workers(self, small_db, tiny_queries):
        cfg = SearchConfig(tau=10)
        rep = run_multiprocess_search(
            small_db, tiny_queries, num_workers=2, config=cfg, query_blocks=3
        )
        # the database stays whole: one task per query block
        assert "num_shards" not in rep.extras
        assert rep.extras["tasks_total"] == 3
        assert reports_equal(search_serial(small_db, tiny_queries, cfg), rep)

    def test_wall_time_recorded(self, small_db, tiny_queries):
        rep = run_multiprocess_search(
            small_db, tiny_queries, num_workers=1, config=SearchConfig(tau=5)
        )
        assert rep.virtual_time > 0
        assert rep.extras["wall_time"] == rep.virtual_time

    def test_wall_time_covers_the_parent_side_merge(
        self, tiny_db, tiny_queries, monkeypatch
    ):
        """The clock stops once the merged hits exist, not before: time the
        parent spends unpacking and merging is time the caller paid.  The
        merge steps an injected clock by an hour no real run could take."""
        from repro.engines import multiproc

        class SteppedClock:
            """The ``time`` module with a ``perf_counter`` that can jump."""

            offset = 0.0

            def perf_counter(self):
                return time.perf_counter() + self.offset

            def __getattr__(self, name):
                return getattr(time, name)

        clock, merge, step = SteppedClock(), multiproc.merge_rank_hits, 3600.0

        def stepping_merge(per_rank_hits, tau):
            clock.offset += step
            return merge(per_rank_hits, tau)

        monkeypatch.setattr(multiproc, "time", clock)
        monkeypatch.setattr(multiproc, "merge_rank_hits", stepping_merge)
        rep = run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=1, config=SearchConfig(tau=5)
        )
        assert rep.extras["wall_time"] >= step
        assert rep.extras["candidates_per_second"] <= rep.candidates_evaluated / step

    def test_invalid_workers(self, small_db, tiny_queries):
        with pytest.raises(ValueError):
            run_multiprocess_search(small_db, tiny_queries, num_workers=0)

    @pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2, reason="needs 2 cores")
    def test_queries_without_candidates_reported_empty(self, small_db, foreign_queries):
        cfg = SearchConfig(tau=5, delta=0.0001)
        rep = run_multiprocess_search(small_db, foreign_queries, num_workers=2, config=cfg)
        assert set(rep.hits) == {q.query_id for q in foreign_queries}


_START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]
# (num_workers, start_method, query_blocks): one worker runs inline, so the
# start method only matters for two; spawn differs from fork only in how the
# context reaches a worker, so it gets two block counts instead of four (each
# spawn run costs ~1.5 s of interpreter start-up)
_GRID = (
    [(1, None, b) for b in (1, 2, 3, 5)]
    + [(2, "fork", b) for b in (1, 2, 3, 5) if "fork" in _START_METHODS]
    + [(2, "spawn", b) for b in (2, 5) if "spawn" in _START_METHODS]
)


class TestQueryMajorDecomposition:
    """Mass-contiguous query blocks, one task each: the same
    hits as serial on every path, whatever order the queries came in."""

    @pytest.fixture(scope="class")
    def queries(self, tiny_queries, foreign_queries):
        # ids 0..11 findable, 100..109 mostly missing, 200 matching nothing
        foreign = [replace(q, query_id=100 + i) for i, q in enumerate(foreign_queries)]
        nothing = replace(tiny_queries[0], query_id=200, precursor_mz=1.0e5)
        return list(tiny_queries) + foreign + [nothing]

    @pytest.fixture(scope="class")
    def serial(self, tiny_db, queries):
        report = search_serial(tiny_db, queries, SearchConfig(tau=10))
        assert report.hits[200] == []
        return report

    @pytest.fixture(scope="class")
    def paths(self, tiny_db, tmp_path_factory):
        """path name -> (config, extra keyword arguments)."""
        root = tmp_path_factory.mktemp("grid")
        resident = save_index(tiny_db, root / "resident")
        partitioned = save_partitioned_index(
            tiny_db, root / "partitioned", partition_mb=1.0 / 16.0
        )
        config = SearchConfig(tau=10)
        return {
            "direct": (config, {}),
            "resident_store": (config, {"index_path": str(resident.path)}),
            "partitioned_store": (config, {"index_path": str(partitioned.path)}),
        }

    @pytest.mark.parametrize("num_workers,start_method,query_blocks", _GRID)
    @pytest.mark.parametrize("path", ["direct", "resident_store", "partitioned_store"])
    def test_identical_to_serial_on_every_path(
        self, tiny_db, queries, serial, paths, path,
        num_workers, start_method, query_blocks,
    ):
        config, kwargs = paths[path]
        shuffled = list(queries)
        random.Random(f"{path}/{num_workers}/{query_blocks}").shuffle(shuffled)
        rep = run_multiprocess_search(
            tiny_db, shuffled, num_workers=num_workers, config=config,
            query_blocks=query_blocks, start_method=start_method, **kwargs,
        )
        assert reports_equal(serial, rep, score_rtol=0)
        assert set(rep.hits) == {q.query_id for q in queries}
        assert list(rep.hits) == [q.query_id for q in shuffled]  # caller's order
        assert rep.candidates_evaluated == serial.candidates_evaluated
        assert rep.extras["tasks_total"] >= num_workers
        assert rep.extras["query_blocks"] >= query_blocks

    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_the_parent_keeps_columns_as_columns(
        self, tiny_db, queries, paths, start_method, monkeypatch
    ):
        """Every query id arrives from exactly one task: on every path
        (one whole-database searcher each) the parent concatenates the
        tasks' columns and folds nothing.  The hits are the scalar
        oracle's."""
        folds = []
        fold = results._fold_repeated_queries
        monkeypatch.setattr(
            results, "_fold_repeated_queries", lambda *a: folds.append(1) or fold(*a)
        )
        oracle = reference_search(tiny_db, SearchConfig(tau=10), queries)
        for path in ("direct", "resident_store", "partitioned_store"):
            config, kwargs = paths[path]
            del folds[:]
            rep = run_multiprocess_search(
                tiny_db, queries, num_workers=2, config=config,
                query_blocks=3, start_method=start_method, **kwargs,
            )
            assert len(folds) == 0, path
            assert isinstance(rep.hits, HitTable)
            assert_report_matches(oracle, rep)

    def test_a_checkpointed_run_assembles_hits(
        self, tiny_db, queries, serial, tmp_path, monkeypatch
    ):
        """With a checkpoint the report's hits are still the tasks'
        columns concatenated, not the checkpoint's fold of them."""
        merged = []
        merge = multiproc.merge_rank_hits
        monkeypatch.setattr(
            multiproc,
            "merge_rank_hits",
            lambda parts, tau: merged.append(len(parts)) or merge(parts, tau),
        )
        rep = run_multiprocess_search(
            tiny_db, queries, num_workers=1, config=SearchConfig(tau=10),
            query_blocks=3, checkpoint_path=str(tmp_path / "run.ckpt"),
        )
        assert merged == [rep.extras["tasks_total"]] == [3]
        assert isinstance(rep.hits, HitTable)
        assert reports_equal(serial, rep, score_rtol=0)
        assert list(rep.hits) == [q.query_id for q in queries]

    def test_direct_path_scores_each_query_once_in_few_cohorts(self, small_db):
        """The database is not split when no store is given, and
        blocks are mass ranges: every query is swept exactly once, and
        blocking costs the sweep at most one extra cohort per cut."""
        queries = QueryWorkload(num_queries=90, seed=8, source=small_db).build()[0]
        random.Random(8).shuffle(queries)
        config = SearchConfig(tau=10, sweep_cohort=8)
        serial = search_serial(small_db, queries, config)
        blocks = 3
        rep = run_multiprocess_search(
            small_db, queries, num_workers=2, config=config, query_blocks=blocks
        )
        assert reports_equal(serial, rep, score_rtol=0)
        assert rep.extras["tasks_total"] == blocks
        assert rep.extras["sweep_queries"] == len(queries)
        assert rep.extras["sweep_cohorts"] <= serial.extras["sweep_cohorts"] + blocks
        assert rep.extras["rows_scored"] == serial.extras["rows_scored"]

    def test_query_blocks_is_a_floor(self, tiny_db, tiny_queries):
        """A grid narrower than the pool is widened to one task per worker."""
        config = SearchConfig(tau=10)
        rep = run_multiprocess_search(tiny_db, tiny_queries, num_workers=2, config=config)
        assert (rep.extras["query_blocks"], rep.extras["tasks_total"]) == (2, 2)
        with pytest.raises(ValueError):
            run_multiprocess_search(tiny_db, tiny_queries, num_workers=1, query_blocks=0)
