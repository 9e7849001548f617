"""Export run timelines as Chrome trace-event JSON.

Two timeline sources feed the same output format:

* **simulated runs** — per-rank ``RankTrace.events`` recorded under
  ``ClusterConfig(record_events=True)``: one lane (tid) per rank, in
  virtual time.  Masking is directly visible: a rank whose ``compute``
  slices tile the lane with no ``wait`` gaps masked its communication;
  ``wait`` slices *are* residual communication.
* **multiprocessing runs** — wall-clock spans from the metrics registry
  (``repro.obs.metrics``): one lane per OS process, so task dispatch,
  retries, store loads and checkpoint flushes appear where they really
  ran.

Output follows the Trace Event Format's JSON-object flavour (a
``traceEvents`` array of complete events, ``ph == "X"``, timestamps in
microseconds) plus ``M``-phase metadata naming the lanes, so files load
directly in ``chrome://tracing`` and Perfetto.  ``repro trace --format
chrome`` is the CLI entry point; see ``docs/observability.md`` for the
reading guide.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.simmpi.trace import TraceSummary

#: phase constants from the trace-event spec that this exporter emits
PHASE_COMPLETE = "X"
PHASE_METADATA = "M"

_SECONDS_TO_US = 1e6


def _metadata_event(pid: int, tid: Optional[int], name: str, value: str) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "name": name,
        "ph": PHASE_METADATA,
        "pid": pid,
        "ts": 0,
        "args": {"name": value},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def events_from_summary(summary: "TraceSummary", pid: int = 0) -> List[Dict[str, Any]]:
    """Per-rank virtual-time events -> complete events, one lane per rank.

    Requires the run to have recorded events
    (``ClusterConfig(record_events=True)``); raises ValueError otherwise,
    mirroring :func:`repro.analysis.timeline.ascii_gantt`.
    """
    if not any(t.events for t in summary.per_rank.values()):
        raise ValueError(
            "no events recorded; run with ClusterConfig(record_events=True)"
        )
    events: List[Dict[str, Any]] = [
        _metadata_event(pid, None, "process_name", "simmpi cluster")
    ]
    for rank in sorted(summary.per_rank):
        events.append(_metadata_event(pid, rank, "thread_name", f"rank {rank}"))
        for category, start, duration, detail in summary.per_rank[rank].events:
            events.append(
                {
                    "name": detail or category,
                    "cat": category,
                    "ph": PHASE_COMPLETE,
                    "ts": start * _SECONDS_TO_US,
                    "dur": duration * _SECONDS_TO_US,
                    "pid": pid,
                    "tid": rank,
                    "args": {"category": category},
                }
            )
    return events


def events_from_metrics(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Metrics-registry spans -> complete events, one lane per process.

    Span timestamps are wall-clock seconds (comparable across processes);
    the earliest span anchors t = 0 so the trace does not start at the
    epoch.
    """
    spans = snapshot.get("spans", [])
    if not spans:
        return []
    t0 = min(span["ts"] for span in spans)
    pids = sorted({span["pid"] for span in spans})
    events: List[Dict[str, Any]] = [
        _metadata_event(pid, None, "process_name", f"worker pid {pid}") for pid in pids
    ]
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "cat": span.get("cat") or "span",
                "ph": PHASE_COMPLETE,
                "ts": (span["ts"] - t0) * _SECONDS_TO_US,
                "dur": span["dur"] * _SECONDS_TO_US,
                "pid": span["pid"],
                "tid": 0,
                "args": dict(span.get("args", {})),
            }
        )
    return events


def chrome_trace(
    events: List[Dict[str, Any]], metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Wrap events in the JSON-object trace container."""
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def write_chrome_trace(
    path,
    events: List[Dict[str, Any]],
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(events, metadata), fh, indent=2)
        fh.write("\n")
