"""Analysis: scaling metrics, quality metrics, calibration sensitivity."""

from repro.analysis.metrics import speedup, chained_speedup
from repro.analysis.quality import RecoveryResult, recovery
from repro.analysis.sensitivity import ConclusionCheck, check_conclusions, sweep

__all__ = [
    "speedup",
    "chained_speedup",
    "RecoveryResult",
    "recovery",
    "ConclusionCheck",
    "check_conclusions",
    "sweep",
]
