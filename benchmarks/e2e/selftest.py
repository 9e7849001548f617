"""Checks of the harness itself (``python -m benchmarks.e2e selftest``).

Not a tier-1 test: it is the benchmark's own proof that its arithmetic,
its verdicts and its failure path work, run on demand.
"""

from __future__ import annotations

import json
import shutil
import threading
from typing import Callable, Dict, List

from benchmarks.e2e import adapters, harness, layers
from benchmarks.e2e.run import BENCHMARK_JSON, compare, verdict
from benchmarks.e2e.spans import Boundary, Patches, Recorder, summarise
from benchmarks.e2e.stats import percentile, spread, tail_quantile
from benchmarks.e2e.workloads import WORKLOADS, ColdDirect


def check_percentiles() -> None:
    # the highest quantile with at least ten samples beyond it
    for samples, expected in ((5, 0.5), (39, 0.5), (40, 0.75), (99, 0.75), (100, 0.9), (199, 0.9), (200, 0.95), (5000, 0.95)):
        assert tail_quantile(samples) == expected, (samples, tail_quantile(samples))
    assert percentile([5, 1, 3, 2, 4], 0.5) == 3
    assert percentile([1, 2, 3, 4], 0.5) == 2.5
    assert percentile(list(range(101)), 0.95) == 95
    assert percentile([7.0], 0.95) == 7.0
    assert spread([10, 10, 10, 10]) == 0 and spread([3.0]) == 0
    assert abs(spread([90, 100, 100, 110]) - 0.15) < 1e-9


def check_self_times() -> None:
    """root 0..10 { a 1..4 { b 2..3 }  c 5..9 }, and a span on another thread."""
    now = [0.0]
    recorder = Recorder(clock=lambda: now[0])

    def at(t: float) -> None:
        now[0] = t

    with recorder.span("bench.pass"):
        at(1)
        with recorder.span("x.a"):
            at(2)
            with recorder.span("y.b", rows=4):
                at(3)
            at(4)
        at(5)
        with recorder.span("x.c"):

            def elsewhere() -> None:
                with recorder.span("z.other"):
                    at(7)

            other = threading.Thread(target=elsewhere)
            other.start()
            other.join()
            at(9)
        at(10)
    spans = {s.name: s for s in recorder.spans}
    assert spans["bench.pass"].self_s == 3 and spans["bench.pass"].duration == 10
    assert spans["x.a"].self_s == 2 and spans["y.b"].self_s == 1 and spans["x.c"].self_s == 4
    assert spans["y.b"].parent is spans["x.a"] and spans["x.a"].parent is spans["bench.pass"]
    assert spans["y.b"].layer == "y"
    # a span of another thread has no parent here and takes nothing from x.c
    assert spans["z.other"].parent is None and spans["z.other"].self_s == 2
    totals = summarise(recorder.spans)
    # on the pass's own thread, self times add up to the wall
    assert sum(t.self_s for name, t in totals.items() if name != "z.other") == 10
    assert totals["y.b"].counts["rows"] == 4
    assert layers.unattributed_share(totals) == 0.3


def check_verdicts() -> None:
    assert verdict([100, 101, 99], [104, 105, 103], "lower", 0.10) == "ok"
    assert verdict([100, 101, 99], [115, 116, 114], "lower", 0.10) == "worse"
    assert verdict([100, 101, 99], [85, 86, 84], "higher", 0.10) == "worse"
    assert verdict([100, 101, 99], [115, 116, 114], "higher", 0.10) == "ok"
    # spread wider than the bound: nothing can be said ...
    assert verdict([80, 100, 120, 140], [100, 120, 140, 160], "lower", 0.10) == "unresolved"
    # ... unless every run of b is better than every run of a
    assert verdict([80, 100, 120, 140], [50, 60, 70, 75], "lower", 0.10) == "ok"
    assert verdict([100], [100], "lower", 0.10) == "ok"

    def doc(latency: float) -> Dict:
        return {"workloads": {"w": {"end_to_end": {"latency_ms": {"unit": "ms", "values": [latency]}}, "per_layer": {}}}}

    spec = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}
    tmp = harness.RUNS / "work" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, latency in enumerate((10.0, 10.5, 12.0)):
            paths.append(tmp / f"{i}.json")
            paths[-1].write_text(json.dumps(doc(latency)))
        assert compare(str(paths[0]), str(paths[1]), spec) == 0
        assert compare(str(paths[0]), str(paths[2]), spec) == 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_patches_restore() -> None:
    recorder = Recorder()
    gone = Boundary("x.gone", "repro.core.search", "ShardSearcher.no_such_method")
    patches = Patches(recorder).install(adapters.BOUNDARIES + [gone])
    saved = list(patches._saved)
    assert saved, "no boundary was wrapped"
    assert patches.absent == ["x.gone"], patches.absent  # skipped, not a crash
    for owner, attr, original in saved:
        assert vars(owner)[attr] is not original
    patches.restore()
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, (owner, attr)


class _CorruptedColdDirect(ColdDirect):
    """cold_direct with one score of one hit list altered after the search."""

    def one_pass(self, k: int):
        result = super().one_pass(k)
        hits = result.reports["xcorr"].hits
        qid = next(q for q in sorted(hits) if hits[q])
        hits[qid][0] = hits[qid][0]._replace(score=hits[qid][0].score + 1.0)
        return result


def check_corruption_fails() -> None:
    good = harness.run_workload(ColdDirect(smoke=True), seed=5, seconds=0.0, traced=False)
    assert good["correct"] and good["failed"] == 0 and good["attempted"] > 0
    bad = harness.run_workload(_CorruptedColdDirect(smoke=True), seed=5, seconds=0.0, traced=False)
    assert not bad["correct"]
    assert bad["failed"] == bad["info"]["passes"], bad["failed"]  # one query per pass


def check_benchmark_json() -> None:
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])

    def rows(section: str) -> List:
        return [(m["name"], m["unit"], m["better"]) for m in spec[section]]

    assert rows("end_to_end") == harness.END_TO_END
    assert rows("per_layer") == layers.PER_LAYER
    assert len(layers.PER_LAYER) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


CHECKS: List[Callable[[], None]] = [
    check_percentiles,
    check_self_times,
    check_verdicts,
    check_patches_restore,
    check_benchmark_json,
    check_corruption_fails,
]


def selftest() -> int:
    failures = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc!r}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0
