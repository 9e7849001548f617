"""Analysis: scaling metrics, quality metrics, table rendering."""

from repro.analysis.metrics import (
    speedup,
    efficiency,
    chained_speedup,
    ScalingPoint,
    scaling_table,
)
from repro.analysis.tables import format_runtime_table, format_scaling_rows
from repro.analysis.quality import RecoveryResult, recovery, compare_engines
from repro.analysis.sensitivity import ConclusionCheck, check_conclusions, sweep

__all__ = [
    "speedup",
    "efficiency",
    "chained_speedup",
    "ScalingPoint",
    "scaling_table",
    "format_runtime_table",
    "format_scaling_rows",
    "RecoveryResult",
    "recovery",
    "compare_engines",
    "ConclusionCheck",
    "check_conclusions",
    "sweep",
]
