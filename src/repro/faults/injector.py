"""Opt-in fault injection for the real multiprocessing engine.

The supervised engine (:mod:`repro.engines.multiproc`) ships each task
with an optional :class:`FaultInjector`; inside the worker process the
injector decides, from ``(task_id, attempt)`` alone, whether the task
crashes or hangs.  Decisions are pure data — no RNG at call time — so a
test or a ``--fault-plan`` run is exactly reproducible, and a task that
fails its first ``attempts`` tries deterministically succeeds afterwards
(or never does, exercising the quarantine path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import IndexStoreError, WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.faults.plan import ServiceFaults

#: attempts value meaning "fail every attempt" (drives quarantine)
ALWAYS = -1


@dataclass(frozen=True)
class TaskFault:
    """Fail task ``task_id`` on its first ``attempts`` tries.

    ``kind`` is ``"crash"`` (raise :class:`WorkerCrashError` in the
    worker) or ``"hang"`` (sleep ``duration`` wall seconds, exercising
    the supervisor's per-task timeout).  ``attempts == ALWAYS`` fails
    every retry, which is how poison tasks are modelled.
    """

    task_id: int
    kind: str = "crash"
    attempts: int = 1
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "hang"):
            raise ValueError(f"fault kind must be 'crash' or 'hang', got {self.kind!r}")
        if self.attempts < ALWAYS:
            raise ValueError(f"attempts must be >= -1, got {self.attempts}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    def applies(self, attempt: int) -> bool:
        return self.attempts == ALWAYS or attempt < self.attempts


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic per-task fault decisions, picklable into workers."""

    faults: Tuple[TaskFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def fire(self, task_id: int, attempt: int) -> None:
        """Called at the top of a worker task; crashes or hangs per plan."""
        for fault in self.faults:
            if fault.task_id != task_id or not fault.applies(attempt):
                continue
            if fault.kind == "hang":
                time.sleep(fault.duration)
            else:
                raise WorkerCrashError(
                    f"injected crash: task {task_id} attempt {attempt}"
                )

@dataclass
class ServiceFaultInjector:
    """Deterministic service-phase fault decisions for the scorer thread.

    Consumes the :class:`~repro.faults.plan.ServiceFaults` section of a
    fault plan.  Decisions depend only on ``(batch_seq, attempt,
    worker_id, chunk)`` — batch sequence numbers are assigned in
    admission order by the service and ``worker_id`` is the scorer's
    incarnation (0, +1 per restart), so the same plan against the same
    workload fires the same faults.  Only the service's one scorer
    thread calls it; the slow-batch budgets are its only mutable state.
    """

    spec: "ServiceFaults"
    _slow_budget_used: Dict[int, int] = field(
        init=False, repr=False, default_factory=dict
    )

    def stall_for(self, worker_id: int) -> float:
        """Seconds incarnation ``worker_id`` must stall at this batch start."""
        delay = 0.0
        for slow in self.spec.slow_workers:
            if slow.worker != worker_id:
                continue
            used = self._slow_budget_used.get(worker_id, 0)
            if slow.batches != ALWAYS and used >= slow.batches:
                continue
            self._slow_budget_used[worker_id] = used + 1
            delay += slow.delay
        return delay

    def fire(self, batch_seq: int, attempt: int, worker_id: int, chunk: int) -> None:
        """Called at each chunk boundary of a batch; raises per plan.

        Store outages fire at chunk 0 (the index is touched before any
        scoring); worker crashes fire at their configured chunk so part
        of the batch is already scored when the thread dies.
        """
        for outage in self.spec.store_outages:
            if outage.batch != batch_seq or chunk != 0:
                continue
            if outage.attempts == ALWAYS or attempt < outage.attempts:
                raise IndexStoreError(
                    f"injected store outage: batch {batch_seq} attempt {attempt}"
                )
        for crash in self.spec.worker_crashes:
            if crash.batch != batch_seq or chunk != crash.chunk:
                continue
            if crash.attempts == ALWAYS or attempt < crash.attempts:
                raise WorkerCrashError(
                    f"injected worker crash: worker {worker_id} batch "
                    f"{batch_seq} attempt {attempt} chunk {chunk}"
                )
