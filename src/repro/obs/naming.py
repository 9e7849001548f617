"""The canonical telemetry vocabulary shared by every engine.

Before this module existed each engine stuffed ad-hoc keys into
``SearchReport.extras``: the simulated engines reported transient
transfer retries as ``transfer_retries`` while the multiprocessing
supervisor called its task resubmissions ``retries``; rank failures were
``failed_ranks`` (a list of ints) but task failures were
``failed_tasks`` (a list of manifests); Algorithms A and B each
hand-built an identical extras block.  The same quantity must have the
same key in every engine before run reports can be compared or gated —
that is this module's whole job.

Two mechanisms:

* :func:`canonicalize_extras` — the back-compat shim.  Engines keep
  emitting their historical keys (tests and downstream consumers read
  them), and the shim *adds* the canonical name next to each legacy one.
  New code and ``RunReport`` read canonical names only; the legacy keys
  are frozen aliases scheduled to stay until a major version.
* :func:`simmpi_extras` — the shared builder for every simulated-cluster
  engine, so the standard block (overlap ratios, index and sweep
  accounting, fault stats) is constructed in exactly one place.

The full name contract — extras keys, metric names, trace categories —
is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.search import ShardStats
    from repro.simmpi.trace import TraceSummary

#: legacy extras key -> canonical key.  The shim mirrors values from the
#: legacy name to the canonical one; engines may also emit the canonical
#: name directly.
CANONICAL_FOR_LEGACY: Dict[str, str] = {
    # recovery/retry accounting: simmpi counts transient transfer
    # retries, multiproc counts task resubmissions — same quantity
    # ("work units retried after a fault") under one name.
    "transfer_retries": "recovery_retries",
    "retries": "recovery_retries",
    "timeouts": "recovery_timeouts",
}

#: canonical keys whose value is a *count of failed work units*: rank
#: crashes in the simulated engines, quarantined tasks in multiproc.
FAILED_UNIT_SOURCES = ("failed_ranks", "failed_tasks")


def canonicalize_extras(extras: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``extras`` with canonical keys added beside legacy ones.

    Never overwrites: if an engine already emitted a canonical key the
    legacy value does not clobber it.  The input dict is not mutated.
    """
    merged = dict(extras)
    for legacy, canonical in CANONICAL_FOR_LEGACY.items():
        if legacy in merged and canonical not in merged:
            merged[canonical] = merged[legacy]
    if "failed_units" not in merged:
        for source in FAILED_UNIT_SOURCES:
            if source in merged:
                merged["failed_units"] = len(merged[source])
                break
    return merged


def simmpi_extras(
    summary: "TraceSummary",
    totals: Optional["ShardStats"] = None,
    fault_tolerant: bool = False,
    **engine_specific: Any,
) -> Dict[str, Any]:
    """The standard extras block for simulated-cluster engines.

    Always present: the paper's two overlap metrics.  With ``totals``
    (real per-shard work counters): index accounting, and — when
    queries were actually scored (REAL execution) — sweep accounting.  With
    ``fault_tolerant`` (a fault plan was supplied): the fault/recovery
    block, including canonical names.  ``engine_specific`` keys
    (e.g. Algorithm B's ``sorting_time``) are folded in last and win.
    """
    extras: Dict[str, Any] = {
        "residual_to_compute": summary.mean_residual_to_compute,
        "masking_effectiveness": summary.masking_effectiveness,
    }
    if totals is not None:
        extras["index_build_time"] = summary.total_index_build
        extras["index_probe_fraction"] = (
            totals.index_rows / totals.rows_scored if totals.rows_scored else 0.0
        )
        if totals.sweep_queries:
            extras.update(
                sweep_queries=totals.sweep_queries,
                sweep_cohorts=totals.sweep_cohorts,
                sweep_setup_time=summary.total_sweep,
            )
    if fault_tolerant:
        extras.update(
            failed_ranks=list(summary.failed_ranks),
            recovery_time=summary.total_recovery,
            transfer_retries=summary.transfer_retries,
            recovery_fetches=summary.recovery_fetches,
        )
    extras.update(engine_specific)
    return canonicalize_extras(extras)
