"""Unit tests for the Chrome trace-event exporter (repro.obs.chrome_trace)."""

import json

import pytest

from repro.core.config import ExecutionMode, SearchConfig
from repro.core.driver import run_search
from repro.obs.chrome_trace import (
    PHASE_COMPLETE,
    PHASE_METADATA,
    chrome_trace,
    events_from_metrics,
    events_from_summary,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.simmpi.scheduler import ClusterConfig
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def recorded_summary():
    db = generate_database(120, seed=3)
    queries = generate_queries(6, seed=5)
    report = run_search(
        db, queries, "algorithm_a", 2,
        SearchConfig(tau=5, execution=ExecutionMode.MODELED),
        cluster_config=ClusterConfig(num_ranks=2, record_events=True),
    )
    return report.trace


class TestEventsFromSummary:
    def test_requires_recorded_events(self):
        db = generate_database(100, seed=3)
        queries = generate_queries(4, seed=5)
        report = run_search(db, queries, "algorithm_a", 2, SearchConfig(tau=5))
        with pytest.raises(ValueError, match="record_events"):
            events_from_summary(report.trace)

    def test_one_lane_per_rank(self, recorded_summary):
        events = events_from_summary(recorded_summary)
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == PHASE_METADATA and e["name"] == "thread_name"
        }
        assert names == {0: "rank 0", 1: "rank 1"}
        assert {e["tid"] for e in events if e["ph"] == PHASE_COMPLETE} == {0, 1}

    def test_complete_events_follow_the_spec(self, recorded_summary):
        events = events_from_summary(recorded_summary)
        complete = [e for e in events if e["ph"] == PHASE_COMPLETE]
        assert complete
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0  # microseconds, virtual
            assert e["cat"] in {
                "compute", "wait", "comm_issued", "collective",
                "recovery", "sweep",
            }
            assert e["args"]["category"] == e["cat"]

    def test_virtual_seconds_scale_to_microseconds(self, recorded_summary):
        events = events_from_summary(recorded_summary)
        total_us = sum(e["dur"] for e in events if e["ph"] == PHASE_COMPLETE)
        total_s = sum(
            t.compute + t.wait + t.collective + t.comm_issued + t.recovery
            + t.sweep
            for t in recorded_summary.per_rank.values()
        )
        assert total_us == pytest.approx(total_s * 1e6, rel=1e-6)


class TestEventsFromMetrics:
    def test_empty_snapshot_gives_no_events(self):
        assert events_from_metrics({}) == []
        assert events_from_metrics({"spans": []}) == []

    def test_one_lane_per_process_anchored_at_zero(self):
        snapshot = {
            "spans": [
                {"name": "a", "cat": "task", "pid": 10, "ts": 100.0, "dur": 0.5, "args": {}},
                {"name": "b", "cat": "task", "pid": 11, "ts": 100.25, "dur": 0.5, "args": {"k": 1}},
            ]
        }
        events = events_from_metrics(snapshot)
        meta = [e for e in events if e["ph"] == PHASE_METADATA]
        assert {e["pid"] for e in meta} == {10, 11}
        complete = sorted(
            (e for e in events if e["ph"] == PHASE_COMPLETE), key=lambda e: e["ts"]
        )
        assert complete[0]["ts"] == 0.0  # earliest span anchors t=0
        assert complete[1]["ts"] == pytest.approx(0.25e6)
        assert complete[1]["args"] == {"k": 1}

    def test_real_registry_spans_export(self):
        reg = MetricsRegistry()
        with reg.span("outer", category="search"):
            pass
        events = events_from_metrics(reg.snapshot())
        assert [e["name"] for e in events if e["ph"] == PHASE_COMPLETE] == ["outer"]


class TestContainer:
    def test_chrome_trace_shape(self):
        doc = chrome_trace([], metadata={"algorithm": "a"})
        assert doc["traceEvents"] == []
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"algorithm": "a"}

    def test_write_produces_loadable_json(self, recorded_summary, tmp_path):
        path = tmp_path / "trace.json"
        events = events_from_summary(recorded_summary)
        write_chrome_trace(path, events, metadata={"engine": "simmpi"})
        doc = json.loads(path.read_text())
        assert doc["otherData"]["engine"] == "simmpi"
        assert len(doc["traceEvents"]) == len(events)
        # every event has the keys the trace-event spec requires
        for e in doc["traceEvents"]:
            assert {"name", "ph", "pid", "ts"} <= set(e)
            assert e["ph"] in (PHASE_COMPLETE, PHASE_METADATA)
