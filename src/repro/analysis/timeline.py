"""Timeline rendering for simulated runs.

With ``ClusterConfig(record_events=True)`` every rank's trace keeps its
(category, start, duration) segments; these helpers turn them into the
two views people actually read when debugging parallel schedules:

* :func:`utilization_table` — per-rank busy/wait/collective fractions;
* :func:`ascii_gantt` — a character timeline per rank
  (``#`` compute, ``.`` wait/residual comm, ``=`` collective,
  ``S`` sweep setup, ``R`` recovery, space idle),
  which makes masking (or its absence) visible at a glance.

The same event stream exports to Chrome trace-event JSON via
``repro trace --format chrome`` (see ``repro.obs.chrome_trace``); the
glyph categories here and the ``cat`` field there are the same
vocabulary, documented in docs/observability.md.
"""

from __future__ import annotations

from typing import Dict, List

from repro.simmpi.trace import TraceSummary
from repro.utils.format import render_table

_GLYPH: Dict[str, str] = {
    "compute": "#",
    "wait": ".",
    "collective": "=",
    "sweep": "S",
    "recovery": "R",
}
#: painting priority when segments overlap a cell (compute wins)
_PRIORITY = {
    "compute": 6,
    "recovery": 5,
    "sweep": 3,
    "wait": 2,
    "collective": 1,
}


def utilization_table(summary: TraceSummary) -> str:
    """Per-rank time breakdown as an aligned table."""
    rows: List[List[object]] = []
    span = summary.makespan if summary.makespan > 0 else 1.0
    for rank in sorted(summary.per_rank):
        trace = summary.per_rank[rank]
        rows.append(
            [
                f"rank {rank}",
                f"{trace.compute:.3f}",
                f"{trace.wait:.3f}",
                f"{trace.collective:.3f}",
                f"{100 * trace.compute / span:.1f}%",
            ]
        )
    return render_table(
        ["", "compute (s)", "wait (s)", "collective (s)", "utilization"],
        rows,
        title=f"makespan {summary.makespan:.3f}s",
    )


def ascii_gantt(summary: TraceSummary, width: int = 80) -> str:
    """Character timeline per rank (requires record_events=True).

    Raises ValueError when no events were recorded — turning on event
    recording is a config choice, not a default, because big runs would
    otherwise accumulate millions of tuples.
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    if not any(t.events for t in summary.per_rank.values()):
        raise ValueError(
            "no events recorded; run with ClusterConfig(record_events=True)"
        )
    span = summary.makespan if summary.makespan > 0 else 1.0
    scale = width / span
    lines = [f"0s {'-' * (width - 8)} {summary.makespan:.3f}s"]
    for rank in sorted(summary.per_rank):
        cells = [" "] * width
        priority = [0] * width
        for category, start, duration, _detail in summary.per_rank[rank].events:
            glyph = _GLYPH.get(category)
            if glyph is None:
                continue
            first = min(width - 1, int(start * scale))
            last = min(width - 1, int((start + duration) * scale))
            for c in range(first, last + 1):
                if _PRIORITY[category] > priority[c]:
                    cells[c] = glyph
                    priority[c] = _PRIORITY[category]
        lines.append(f"P{rank:<3d} |{''.join(cells)}|")
    lines.append(
        "      # compute   . wait (residual comm)   = collective   "
        "S sweep   R recovery"
    )
    return "\n".join(lines)
