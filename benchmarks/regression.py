"""Performance regression gate: diff two benchmark/run-report JSON files.

Compares every numeric metric that appears in both a *baseline* and a
*candidate* JSON document — the checked-in ``BENCH_*.json`` benchmark
records and ``repro search --report-out`` RunReports both work — and
exits nonzero when any metric moved past the threshold in its bad
direction.  CI runs it against the committed baselines so a perf
regression fails the build instead of landing silently.

Which direction is "bad" is inferred from the metric's name:

* **lower is better** — names mentioning time/latency/makespan/wall
  (``virtual_time``, ``index_load_time``, ``mean_cohort_build_s``) and
  fault counters (``recovery_timeouts``, ``recovery_retries``,
  ``failed_units``);
* **higher is better** — rates and ratios (``per_query_qps``,
  ``candidates_per_second``, ``speedup``, ``throughput``,
  ``masking_effectiveness``);
* anything else (counts, configuration echoes, span timestamps) is
  ignored — it describes the workload, not its performance.

Usage::

    python benchmarks/regression.py BASELINE.json CANDIDATE.json
    python benchmarks/regression.py BENCH_scale.json BENCH_scale.json  # == exit 0
    python benchmarks/regression.py --threshold 0.05 old.json new.json

See docs/observability.md for where these files come from.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: default allowed relative movement in the bad direction (10%)
DEFAULT_THRESHOLD = 0.10

#: baselines smaller than this are noise, not a denominator
_MIN_BASELINE = 1e-9

_LOWER_IS_BETTER = ("time", "latency", "makespan", "wall", "retries", "failed")
_LOWER_SUFFIXES = ("_s", "_us", "_ms")
_HIGHER_IS_BETTER = (
    "qps",
    "per_second",
    "speedup",
    "throughput",
    "effectiveness",
    "utilization",
)


def classify(key: str) -> Optional[str]:
    """Direction for one metric name: "lower", "higher", or None (skip).

    Matches on the leaf key only, case-insensitively.
    "recovery_timeouts" deliberately lands in lower-is-better via the
    "time" substring.
    """
    leaf = key.rsplit(".", 1)[-1].lower()
    if any(tok in leaf for tok in _HIGHER_IS_BETTER):
        return "higher"
    if any(tok in leaf for tok in _LOWER_IS_BETTER) or leaf.endswith(_LOWER_SUFFIXES):
        return "lower"
    return None


def numeric_leaves(obj: Any, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield (dotted path, value) for every numeric leaf in a JSON tree."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield prefix, float(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            child = f"{prefix}.{key}" if prefix else str(key)
            yield from numeric_leaves(obj[key], child)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from numeric_leaves(item, f"{prefix}[{i}]")


def compare(
    baseline: Any, candidate: Any, threshold: float = DEFAULT_THRESHOLD
) -> List[Dict[str, Any]]:
    """Diff two JSON documents; returns one record per regressed metric.

    A metric regresses when it moved more than ``threshold`` (relative)
    in its bad direction.  Metrics present in only one document, with no
    recognized direction, or with a near-zero baseline are skipped.
    """
    base = dict(numeric_leaves(baseline))
    cand = dict(numeric_leaves(candidate))
    regressions: List[Dict[str, Any]] = []
    for path in sorted(base.keys() & cand.keys()):
        direction = classify(path)
        if direction is None:
            continue
        before, after = base[path], cand[path]
        if abs(before) < _MIN_BASELINE:
            continue
        change = (after - before) / abs(before)
        bad = change > threshold if direction == "lower" else change < -threshold
        if bad:
            regressions.append(
                {
                    "metric": path,
                    "direction": direction,
                    "baseline": before,
                    "candidate": after,
                    "change": change,
                }
            )
    return regressions


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline JSON (BENCH_*.json or RunReport)")
    parser.add_argument("candidate", help="candidate JSON to gate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"allowed relative movement in the bad direction "
        f"(default {DEFAULT_THRESHOLD:.2f} = {DEFAULT_THRESHOLD:.0%})",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 0:
        parser.error(f"--threshold must be > 0, got {args.threshold}")
    try:
        baseline = _load(args.baseline)
        candidate = _load(args.candidate)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    compared = sum(
        1
        for path in dict(numeric_leaves(baseline)).keys()
        & dict(numeric_leaves(candidate)).keys()
        if classify(path) is not None
    )
    regressions = compare(baseline, candidate, args.threshold)
    if not regressions:
        print(
            f"OK: no regressions past {args.threshold:.0%} "
            f"({compared} directional metrics compared)"
        )
        return 0
    print(
        f"FAIL: {len(regressions)} metric(s) regressed past "
        f"{args.threshold:.0%} (of {compared} compared):"
    )
    for r in regressions:
        arrow = "slower" if r["direction"] == "lower" else "worse"
        print(
            f"  {r['metric']}: {r['baseline']:.6g} -> {r['candidate']:.6g} "
            f"({r['change']:+.1%}, {arrow})"
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())
