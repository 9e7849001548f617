"""The canonical telemetry vocabulary shared by every engine.

The same quantity has the same ``SearchReport.extras`` key in every
engine, so run reports can be compared and gated: work units retried
after a fault are ``recovery_retries`` whether they were transient
transfer retries on the simulated cluster or task resubmissions under
the multiproc supervisor; hung-task deadline expiries are
``recovery_timeouts``.  Engines emit these names directly.

:func:`simmpi_extras` is the shared builder for every simulated-cluster
engine, so the standard block (overlap ratios, sweep accounting, fault
stats) is constructed in exactly one place.

The full name contract — extras keys, metric names, trace categories —
is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.search import ShardStats
    from repro.simmpi.trace import TraceSummary

def simmpi_extras(
    summary: "TraceSummary",
    totals: Optional["ShardStats"] = None,
    fault_tolerant: bool = False,
    **engine_specific: Any,
) -> Dict[str, Any]:
    """The standard extras block for simulated-cluster engines.

    Always present: the paper's two overlap metrics.  With ``totals``
    (the ranks' summed pass counters) of a run whose queries were
    actually scored (REAL execution): sweep accounting.  A simulated
    run charges each pass before scoring it, so its totals hold no
    ``rows_scored`` or ``batches`` and no index accounting (the engines
    take no store).  With ``fault_tolerant`` (a fault plan was
    supplied): the fault/recovery block.  ``engine_specific`` keys (e.g.
    Algorithm B's ``sorting_time``) are folded in last and win.
    """
    extras: Dict[str, Any] = {
        "residual_to_compute": summary.mean_residual_to_compute,
        "masking_effectiveness": summary.masking_effectiveness,
    }
    if totals is not None and totals.sweep_queries:
        extras.update(
            sweep_queries=totals.sweep_queries,
            sweep_cohorts=totals.sweep_cohorts,
            sweep_setup_time=summary.total_sweep,
        )
    if fault_tolerant:
        extras.update(
            failed_ranks=list(summary.failed_ranks),
            recovery_time=summary.total_recovery,
            recovery_retries=summary.transfer_retries,
            recovery_fetches=summary.recovery_fetches,
        )
    extras.update(engine_specific)
    return extras
