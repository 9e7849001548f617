"""Run one workload: set up, measure passes, check every hit list.

End-to-end numbers come from passes with no wrapper installed.  With
``traced`` every other pass runs with the span wrappers on, and the
per-layer numbers come from those passes; the ratio of the two median
pass walls is the tracing overhead.  End-to-end times are divided by the
host's slowdown over the same interval (see :mod:`calibrate`); span
times are left as the clock read them.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import adapters, layers
from benchmarks.e2e.calibrate import Calibrator
from benchmarks.e2e.spans import Patches, Recorder, Span, summarise, write_trace
from benchmarks.e2e.stats import tail
from benchmarks.e2e.workloads import PassResult, Workload

RUNS = adapters.ROOT / "runs" / "bench_e2e"

#: (name, unit, better) of every end-to-end metric
END_TO_END: List[Tuple[str, str, str]] = [
    ("queries_per_s", "1/s", "higher"),
    ("candidates_per_s", "1/s", "higher"),
    ("latency_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

#: set-up is timed this many times and the median reported
SETUP_REPEATS = 3
#: a run makes at least this many passes, however long one takes
MIN_PASSES = 4


def signature(report: Any) -> Dict[int, int]:
    """Per query, a hash of its ranked hits with exact scores."""
    return {
        qid: hash(tuple((h.protein_id, h.start, h.stop, h.mod_delta, h.score) for h in hits))
        for qid, hits in report.hits.items()
    }


def digest(report: Any) -> int:
    """One order-independent digest of a whole hit set, scores bit for bit
    (hashes of ints and floats do not vary between processes)."""
    return hash(tuple(sorted(signature(report).items())))


def mismatches(found: Dict[int, int], expected: Dict[int, int]) -> int:
    """Queries whose hits differ from the reference, or are missing or extra."""
    wrong = sum(1 for qid, sig in expected.items() if found.get(qid) != sig)
    return wrong + sum(1 for qid in found if qid not in expected)


def reset_peak_rss() -> None:
    """Start a new high-water mark for this process's resident set.

    Linux only; where it is refused the mark keeps rising and a later
    reading is the peak so far, which the medians below tolerate.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Largest resident set of any process of this run since the last
    reset (worker processes: over their whole life).  Linux: KiB.

    This process's mark is read from ``VmHWM``: ``ru_maxrss`` of a
    process started by fork and exec never reads below what its parent
    held at the fork, which has nothing to do with the workload.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class _Measured:
    """Passes of one kind (plain or traced) and what each left behind."""

    walls: List[float] = field(default_factory=list)  #: seconds at nominal host speed
    factors: List[float] = field(default_factory=list)  #: raw wall / calibrated wall
    rss_mb: List[float] = field(default_factory=list)  #: peak resident set during the pass
    results: List[PassResult] = field(default_factory=list)
    signatures: List[Dict[str, Dict[int, int]]] = field(default_factory=list)
    last_reports: Dict[str, Any] = field(default_factory=dict)
    spans: List[List[Span]] = field(default_factory=list)


def _timed(cal: Calibrator, fn: Callable[[], Any]) -> Tuple[Any, float, float, float]:
    """``fn()``, its seconds at nominal host speed, the host's slowdown
    factor over the interval (a calibration sample follows it; the one
    before it is the previous interval's) and the peak resident set."""
    reset_peak_rss()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    rss = peak_rss_mb()
    cal.sample()
    factor = cal.slowdown()
    return result, raw / factor, factor, rss


def one_pass(
    out: _Measured, workload: Workload, k: int, cal: Calibrator,
    recorder: Optional[Recorder] = None,
) -> None:
    """Time pass ``k``; with a recorder, under a root span."""
    workload.recorder = recorder

    def run() -> PassResult:
        with recorder.span("bench.pass") if recorder else nullcontext():
            return workload.one_pass(k)

    result, wall, factor, rss = _timed(cal, run)
    out.walls.append(wall)
    out.factors.append(factor)
    out.rss_mb.append(rss)
    if recorder:
        out.spans.append(recorder.drain())
    # hit lists are large: keep a hash per query, and the last pass whole
    out.signatures.append({key: signature(r) for key, r in result.reports.items()})
    out.last_reports, result.reports = result.reports, {}
    out.results.append(result)


def _set_up(
    workload: Workload, seed: int, workdir: Path, cal: Calibrator, recorder: Recorder, traced: bool
) -> Tuple[float, float]:
    """Set up ``SETUP_REPEATS`` times (the last one stays, traced if asked);
    returns the median set-up time and the median peak resident set."""
    times, peaks = [], []
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        patches = Patches(recorder)
        if traced and last:
            patches.install(adapters.BOUNDARIES)
        with patches:
            _none, seconds, _factor, rss = _timed(cal, lambda: workload.setup(seed, workdir))
        times.append(seconds)
        peaks.append(rss)
        if not last:
            workload.teardown()
    return statistics.median(times), statistics.median(peaks)


def _check(phases: List[_Measured], refs: Dict[str, Any]) -> Tuple[int, int, bool]:
    """``(attempted, failed, correct)``: every pass against the reference."""
    ref_sigs = {key: signature(ref) for key, ref in refs.items()}
    attempted = failed = 0
    for phase in phases:
        for sigs in phase.signatures:
            for key, found in sigs.items():
                attempted += len(ref_sigs[key])
                failed += mismatches(found, ref_sigs[key])
    final = phases[-1].last_reports
    predicate = all(adapters.same_hits(final[key], refs[key]) for key in final)
    return attempted, failed, failed == 0 and predicate and attempted > 0


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One run of one workload; returns the result the command prints."""
    name = workload.name
    workdir = RUNS / "work" / f"{name}.{os.getpid()}"
    recorder = Recorder()
    cal = Calibrator()
    cal.sample()
    absent: List[str] = []
    try:
        setup_s, setup_rss = _set_up(workload, seed, workdir, cal, recorder, traced)
        setup_spans = recorder.drain()

        # passes until the time is up; a traced run alternates plain and
        # traced passes so both see the same warmth and the same noise
        plain, trace = _Measured(), _Measured()
        phases = [plain, trace] if traced else [plain]
        deadline = time.perf_counter() + seconds
        k = 0
        while k < MIN_PASSES or time.perf_counter() < deadline:
            if traced and k % 2:
                with Patches(recorder).install(adapters.BOUNDARIES) as patches:
                    one_pass(trace, workload, k, cal, recorder)
                absent = patches.absent
            else:
                one_pass(plain, workload, k, cal)
            k += 1
        extras = workload.traced_extras() if traced else {}
        refs = workload.reference()  # untimed, and in no interval's memory reading
    finally:
        workload.teardown()

    attempted, failed, correct = _check(phases, refs)

    def candidates(phase: _Measured) -> List[int]:
        return [
            r.candidates
            if r.candidates is not None
            else sum(refs[key].candidates_evaluated for key in sigs)
            for r, sigs in zip(phase.results, phase.signatures)
        ]

    # a request's latency where the engine serves requests, else the pass
    latencies = [
        x / f for r, f in zip(plain.results, plain.factors) for x in r.latencies_s
    ] or plain.walls
    tail_q, tail_s = tail(latencies)
    if traced:
        extras.update(
            tracing_overhead_ratio=statistics.median(trace.walls) / statistics.median(plain.walls),
            calibration_factor=statistics.median(trace.factors),
            spans=sum(len(s) for s in trace.spans),
            latency_tail_quantile=tail_q,
            serial_per_query_s=getattr(workload, "serial_per_query_s", 0.0),
        )
        values = layers.derive(
            summarise(s for spans in trace.spans for s in spans),
            summarise(setup_spans),
            trace.results,
            candidates(trace),
            extras,
        )
        table = layers.PER_LAYER
        write_trace(trace.spans[-1], RUNS / f"{name}.trace.json")
    else:
        values = {
            "queries_per_s": statistics.median(
                r.queries / w for r, w in zip(plain.results, plain.walls)
            ),
            "candidates_per_s": statistics.median(
                c / w for c, w in zip(candidates(plain), plain.walls)
            ),
            "latency_p95_ms": 1e3 * tail_s,
            "peak_rss_mb": max(setup_rss, statistics.median(plain.rss_mb)),
            "setup_s": setup_s,
        }
        table = END_TO_END

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": unit} for n, unit, _better in table},
        "info": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "traced": traced,
            "passes": len(plain.walls),
            "traced_passes": len(trace.walls),
            "latency_samples": len(latencies),
            "latency_tail_quantile": tail_q,
            "host_slowdown": statistics.median(plain.factors),
            "absent_boundaries": absent,
        },
    }
