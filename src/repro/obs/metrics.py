"""The metrics registry: counters, gauges, histograms and timing spans.

One :class:`MetricsRegistry` instance collects everything the runtime
wants to measure about *itself* — not the simulated machine (that is
``simmpi.trace``'s job) but the real process: wall-clock spans around
the scoring hot paths, task dispatch/retry counters in the
multiprocessing engine, checkpoint I/O, index builds.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Telemetry is opt-in; the
   default registry is disabled and every mutator starts with a single
   ``if not self.enabled: return``.  ``span()`` returns one shared no-op
   context-manager singleton, so the hot paths pay an attribute check
   and a method call, nothing else — no allocation, no lock, no clock
   read.  Search results are bitwise identical either way, because
   telemetry never feeds back into computation.
2. **Safe under threads and processes.**  Mutation takes a lock
   (supervisor thread vs. pool callback threads).  Worker *processes*
   never share a registry: each task records into its own registry and
   ships a :meth:`snapshot` back with its result; the parent folds it in
   with :meth:`merge_snapshot`.  This works identically under fork and
   spawn because nothing but plain dicts crosses the boundary.
3. **JSON all the way down.**  A snapshot is a plain-dict tree that
   serializes as-is into the RunReport (see ``repro.obs.report``) and
   the Chrome-trace exporter (``repro.obs.chrome_trace``).

Metric names are dotted strings from the documented contract
(``docs/observability.md``): ``search.candidates``, ``sweep.cohorts``,
``multiproc.retries``, ``checkpoint.flushes``, ...
"""

from __future__ import annotations

import bisect
import contextlib
import os
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: default fixed histogram buckets (seconds-flavoured log scale); values
#: above the last edge land in the overflow bucket
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0
)

#: snapshot format version, embedded so RunReports are self-describing
SNAPSHOT_VERSION = 1


class _NullSpan:
    """The shared do-nothing context manager returned when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """A live timing span; records itself into the registry on exit.

    ``ts`` is wall-clock (``time.time``) so spans from different
    processes line up on one timeline; ``dur`` is measured with the
    monotonic ``time.perf_counter`` so it never goes negative under
    clock adjustment.
    """

    __slots__ = ("_registry", "name", "category", "args", "_t0", "_wall0")

    def __init__(self, registry: "MetricsRegistry", name: str, category: str, args: Dict[str, Any]):
        self._registry = registry
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "_Span":
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        duration = time.perf_counter() - self._t0
        self._registry._record_span(
            self.name, self.category, self._wall0, duration, self.args
        )
        return False


class MetricsRegistry:
    """Process-local registry of counters, gauges, histograms and spans."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # name -> (bucket edges, counts[len(edges)+1], sum, count)
        self._histograms: Dict[str, Dict[str, Any]] = {}
        # each span: {name, cat, pid, ts, dur, args}
        self._spans: List[Dict[str, Any]] = []

    # -- mutators --------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value`` (monotonic by contract)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(
        self, name: str, value: float, buckets: Optional[Sequence[float]] = None
    ) -> None:
        """Record ``value`` into the fixed-bucket histogram ``name``.

        The bucket layout is fixed at the histogram's first observation;
        later ``buckets`` arguments are ignored, which keeps merges
        well-defined.
        """
        if not self.enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                edges = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
                if list(edges) != sorted(edges) or len(edges) < 1:
                    raise ValueError(f"histogram buckets must be sorted, got {edges}")
                hist = self._histograms[name] = {
                    "buckets": list(edges),
                    "counts": [0] * (len(edges) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
            hist["counts"][bisect.bisect_left(hist["buckets"], value)] += 1
            hist["sum"] += value
            hist["count"] += 1

    def span(self, name: str, category: str = "", **args: Any):
        """Context manager timing a block; no-op singleton when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, category, args)

    def _record_span(
        self, name: str, category: str, ts: float, duration: float, args: Dict[str, Any]
    ) -> None:
        with self._lock:
            self._spans.append(
                {
                    "name": name,
                    "cat": category,
                    "pid": os.getpid(),
                    "ts": ts,
                    "dur": duration,
                    "args": args,
                }
            )

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0)

    @property
    def spans(self) -> List[Dict[str, Any]]:
        return list(self._spans)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready plain-dict image of everything recorded so far."""
        with self._lock:
            return {
                "version": SNAPSHOT_VERSION,
                "pid": os.getpid(),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "buckets": list(h["buckets"]),
                        "counts": list(h["counts"]),
                        "sum": h["sum"],
                        "count": h["count"],
                    }
                    for name, h in self._histograms.items()
                },
                "spans": [dict(s) for s in self._spans],
            }

    def merge_snapshot(self, snap: Optional[Dict[str, Any]]) -> None:
        """Fold another registry's snapshot in (cross-process aggregation).

        Counters and histogram cells add; gauges last-write-win; spans
        concatenate.  Histograms with mismatched bucket layouts raise —
        the contract fixes the layout per metric name.
        """
        if not snap:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(snap.get("gauges", {}))
            for name, theirs in snap.get("histograms", {}).items():
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = {
                        "buckets": list(theirs["buckets"]),
                        "counts": list(theirs["counts"]),
                        "sum": theirs["sum"],
                        "count": theirs["count"],
                    }
                    continue
                if mine["buckets"] != list(theirs["buckets"]):
                    raise ValueError(
                        f"histogram {name!r}: mismatched bucket layouts "
                        f"{mine['buckets']} vs {theirs['buckets']}"
                    )
                mine["counts"] = [a + b for a, b in zip(mine["counts"], theirs["counts"])]
                mine["sum"] += theirs["sum"]
                mine["count"] += theirs["count"]
            self._spans.extend(dict(s) for s in snap.get("spans", []))

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()


#: the process-wide default registry — disabled until someone opts in
_DEFAULT = MetricsRegistry(enabled=False)


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry the hot paths record into."""
    return _DEFAULT


def enable_metrics(enabled: bool = True) -> MetricsRegistry:
    """Switch the default registry on (or off); returns it for chaining.

    Enabling does not clear prior state; call :meth:`MetricsRegistry.reset`
    for a fresh run.
    """
    _DEFAULT.enabled = enabled
    return _DEFAULT


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry):
    """Temporarily make ``registry`` the process default.

    The multiprocessing engine runs each worker task under a fresh
    registry so nested instrumentation (store loads, shard searches,
    checkpoint writes) lands in a per-task snapshot that ships back to
    the supervisor with the task result.  Process-wide swap, so only for
    single-threaded scopes (worker processes are).
    """
    global _DEFAULT
    saved = _DEFAULT
    _DEFAULT = registry
    try:
        yield registry
    finally:
        _DEFAULT = saved
