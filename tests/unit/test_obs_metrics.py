"""Unit tests for the metrics registry (repro.obs.metrics)."""

import threading

import pytest

from repro.core.config import SearchConfig
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_SPAN,
    MetricsRegistry,
    enable_metrics,
    get_metrics,
    use_registry,
)
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


class TestCounters:
    def test_count_accumulates(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        assert reg.counter_value("a") == 5

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.0)
        assert reg.snapshot()["gauges"]["g"] == 7.0


class TestHistograms:
    def test_bucket_placement(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5, buckets=(1.0, 10.0))
        reg.observe("h", 5.0)
        reg.observe("h", 50.0)  # overflow bucket
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["buckets"] == [1.0, 10.0]
        assert hist["counts"] == [1, 1, 1]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(55.5)

    def test_layout_fixed_at_first_observation(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5, buckets=(1.0,))
        reg.observe("h", 0.5, buckets=(2.0, 3.0))  # ignored
        assert reg.snapshot()["histograms"]["h"]["buckets"] == [1.0]

    def test_default_buckets(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.5)
        assert reg.snapshot()["histograms"]["h"]["buckets"] == list(DEFAULT_BUCKETS)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            MetricsRegistry().observe("h", 1.0, buckets=(3.0, 1.0))


class TestSpans:
    def test_span_records_duration_and_args(self):
        reg = MetricsRegistry()
        with reg.span("work", category="test", shard=3):
            pass
        (span,) = reg.spans
        assert span["name"] == "work"
        assert span["cat"] == "test"
        assert span["args"] == {"shard": 3}
        assert span["dur"] >= 0

    def test_span_recorded_even_when_body_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("work"):
                raise RuntimeError("boom")
        assert len(reg.spans) == 1


class TestDisabledMode:
    """Disabled registries must be no-ops, not cheap-ops."""

    def test_mutators_record_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.count("a")
        reg.gauge("g", 1.0)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_span_returns_shared_null_singleton(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.span("a") is NULL_SPAN
        assert reg.span("b", category="x", arg=1) is NULL_SPAN
        with reg.span("c"):
            pass
        assert reg.spans == []

    def test_default_registry_starts_disabled(self):
        assert get_metrics().enabled is False

    def test_results_identical_with_telemetry_on_and_off(self):
        """Telemetry must never feed back into computation."""
        db = generate_database(100, seed=3)
        queries = generate_queries(8, seed=5)
        config = SearchConfig(tau=10)
        baseline = search_serial(db, queries, config)
        registry = enable_metrics()
        registry.reset()
        try:
            instrumented = search_serial(db, queries, config)
        finally:
            enable_metrics(False)
        assert reports_equal(baseline, instrumented)
        assert registry.counter_value("search.queries") == 8
        assert registry.counter_value("search.candidates") > 0


    @pytest.mark.parametrize("streamed", [False, True])
    def test_traced_sweep_emits_plan_and_block_spans(self, streamed, tmp_path):
        """One ``sweep.plan`` a pass, one ``sweep.block`` per scoring
        block with its size attrs, and the same hits traced or not."""
        from repro.store import save_partitioned_index

        db = generate_database(60, seed=3)
        queries = generate_queries(40, seed=5)
        config = SearchConfig(tau=10, sweep_cohort=16)
        store = save_partitioned_index(db, tmp_path / "pidx", partition_mb=0.25) if streamed else None
        baseline = search_serial(db, queries, config, index_store=store)
        registry = MetricsRegistry()
        with use_registry(registry):
            traced = search_serial(db, queries, config, index_store=store)
        assert reports_equal(baseline, traced, score_rtol=0.0)
        spans = registry.spans
        plans = [s for s in spans if s["name"] == "sweep.plan"]
        blocks = [s for s in spans if s["name"] == "sweep.block"]
        assert len(plans) == 1 and plans[0]["args"]["queries"] == len(queries)
        assert len(blocks) == traced.extras["sweep_cohorts"] > 1
        assert len(blocks) == registry.counter_value("sweep.cohorts")
        # one shard-pass telemetry block for the resident and the streamed pass
        assert registry.counter_value("search.candidates") == traced.candidates_evaluated
        hist = registry.snapshot()["histograms"]["search.candidates_per_query"]
        assert hist["count"] == 1
        assert sum(b["args"]["rows"] for b in blocks) == traced.candidates_evaluated
        assert all(1 <= b["args"]["runs"] <= b["args"]["members"] <= 16 for b in blocks)
        members = sum(b["args"]["members"] for b in blocks)
        assert members >= len(queries) if streamed else members == len(queries)
        outer = next(s for s in spans if s["name"] in ("search.shard", "search.stream"))
        for s in plans + blocks:  # nested inside the pass span
            assert outer["ts"] <= s["ts"] and s["dur"] <= outer["dur"]


class TestMergeSnapshot:
    def test_counters_add_gauges_overwrite_spans_concat(self):
        a = MetricsRegistry()
        a.count("c", 2)
        a.gauge("g", 1.0)
        with a.span("s"):
            pass
        b = MetricsRegistry()
        b.count("c", 3)
        b.gauge("g", 9.0)
        with b.span("s"):
            pass
        a.merge_snapshot(b.snapshot())
        assert a.counter_value("c") == 5
        assert a.snapshot()["gauges"]["g"] == 9.0
        assert len(a.spans) == 2

    def test_histogram_cells_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.observe("h", 0.5, buckets=(1.0,))
            reg.observe("h", 5.0, buckets=(1.0,))
        a.merge_snapshot(b.snapshot())
        hist = a.snapshot()["histograms"]["h"]
        assert hist["counts"] == [2, 2]
        assert hist["count"] == 4

    def test_mismatched_bucket_layouts_raise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 0.5, buckets=(1.0,))
        b.observe("h", 0.5, buckets=(2.0,))
        with pytest.raises(ValueError, match="mismatched bucket layouts"):
            a.merge_snapshot(b.snapshot())

    def test_merge_none_is_noop(self):
        reg = MetricsRegistry()
        reg.merge_snapshot(None)
        reg.merge_snapshot({})
        assert reg.snapshot()["counters"] == {}

    def test_merge_into_empty_adopts_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("h", 0.5, buckets=(1.0,))
        a.merge_snapshot(b.snapshot())
        assert a.snapshot()["histograms"]["h"]["count"] == 1


class TestThreadSafety:
    def test_concurrent_counts_do_not_lose_increments(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.count("hits")
                reg.observe("lat", 0.01)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == 8000
        assert reg.snapshot()["histograms"]["lat"]["count"] == 8000


class TestUseRegistry:
    def test_swaps_and_restores_default(self):
        original = get_metrics()
        scoped = MetricsRegistry()
        with use_registry(scoped) as active:
            assert active is scoped
            assert get_metrics() is scoped
        assert get_metrics() is original

    def test_restores_on_exception(self):
        original = get_metrics()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_metrics() is original

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.gauge("g", 1.0)
        reg.observe("h", 1.0)
        with reg.span("s"):
            pass
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == snap["gauges"] == snap["histograms"] == {}
        assert snap["spans"] == []
