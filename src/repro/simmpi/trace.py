"""Per-rank timeline accounting.

The paper's key measured quantity beyond run-time is *residual
communication*: "the time spent by the code waiting for the next batch of
data, ... equal to the total communication time minus its portion masked
by computation" (Section III).  The trace records exactly the categories
needed to reproduce that analysis:

* ``compute`` — virtual seconds spent in modeled computation;
* ``wait`` — virtual seconds a rank sat blocked for data that had not
  landed (this *is* residual communication);
* ``comm_issued`` — total wire time of transfers the rank originated
  (masked or not), so masking effectiveness = 1 - wait/comm_issued;
* ``collective`` — time inside barriers/allreduce/alltoallv, kept
  separate because Algorithm B's sorting overhead lives here.
* ``recovery`` — time spent re-fetching lost shards, reloading orphaned
  query blocks and rescoring them after a rank failure.  Kept separate
  from ``compute``/``wait`` so fault-free metrics (residual-to-compute,
  masking effectiveness) are untouched by recovery work, and so the cost
  of surviving a fault plan is directly visible in the summary.
* ``sweep`` — candidate-major sweep setup (query sorting, vectorized
  window bounds, cohort probes).  Kept out of ``compute`` so the sweep's
  amortized bookkeeping is directly visible in summaries and does not
  shift residual-communication ratios relative to per-query runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class RankFailure:
    """One fail-stop rank crash, as it materialized during the run."""

    rank: int
    time: float


@dataclass
class RankTrace:
    """Accumulated virtual-time categories for one rank."""

    rank: int
    compute: float = 0.0
    wait: float = 0.0
    comm_issued: float = 0.0
    collective: float = 0.0
    recovery: float = 0.0
    sweep: float = 0.0
    events: List[tuple] = field(default_factory=list, repr=False)
    record_events: bool = False

    def add(self, category: str, start: float, duration: float, detail: str = "") -> None:
        if duration < 0:
            raise ValueError(f"negative duration {duration} for {category}")
        if category == "compute":
            self.compute += duration
        elif category == "wait":
            self.wait += duration
        elif category == "collective":
            self.collective += duration
        elif category == "comm_issued":
            self.comm_issued += duration
        elif category == "recovery":
            self.recovery += duration
        elif category == "sweep":
            self.sweep += duration
        else:
            raise ValueError(f"unknown trace category {category!r}")
        if self.record_events and duration > 0:
            self.events.append((category, start, duration, detail))

    @property
    def residual_to_compute_ratio(self) -> float:
        return self.wait / self.compute if self.compute > 0 else 0.0


@dataclass(frozen=True)
class TraceSummary:
    """Machine-wide aggregates over all rank traces.

    The fault-tolerance fields default to "nothing went wrong" so
    fault-free callers and serialized summaries are unchanged:
    ``failures`` lists crashes in the order they materialized,
    ``total_recovery`` sums the survivors' recovery-category time, and
    ``transfer_retries`` counts transient transfer failures charged by
    the fault plan.
    """

    makespan: float
    total_compute: float
    total_wait: float
    total_collective: float
    total_comm_issued: float
    per_rank: Dict[int, RankTrace]
    total_recovery: float = 0.0
    failures: Tuple[RankFailure, ...] = ()
    transfer_retries: int = 0
    recovery_fetches: int = 0
    total_sweep: float = 0.0

    @classmethod
    def from_traces(
        cls,
        traces: Dict[int, RankTrace],
        makespan: float,
        failures: Tuple[RankFailure, ...] = (),
        transfer_retries: int = 0,
        recovery_fetches: int = 0,
    ) -> "TraceSummary":
        return cls(
            makespan=makespan,
            total_compute=sum(t.compute for t in traces.values()),
            total_wait=sum(t.wait for t in traces.values()),
            total_collective=sum(t.collective for t in traces.values()),
            total_comm_issued=sum(t.comm_issued for t in traces.values()),
            per_rank=traces,
            total_recovery=sum(t.recovery for t in traces.values()),
            failures=tuple(failures),
            transfer_retries=transfer_retries,
            recovery_fetches=recovery_fetches,
            total_sweep=sum(t.sweep for t in traces.values()),
        )

    @property
    def failed_ranks(self) -> Tuple[int, ...]:
        """Ranks that crashed, in failure order."""
        return tuple(f.rank for f in self.failures)

    @property
    def mean_residual_to_compute(self) -> float:
        """Mean over ranks of wait/compute — the paper's 0.36 +/- 0.11 metric."""
        ratios = [t.residual_to_compute_ratio for t in self.per_rank.values() if t.compute > 0]
        return sum(ratios) / len(ratios) if ratios else 0.0

    @property
    def masking_effectiveness(self) -> float:
        """Fraction of issued wire time hidden behind computation (0..1)."""
        if self.total_comm_issued <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_wait / self.total_comm_issued)
