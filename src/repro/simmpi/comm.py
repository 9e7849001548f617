"""SimComm: the rank-facing communication API.

Rank programs are generator functions taking a :class:`SimComm`.  The
API mirrors mpi4py's split between *immediate* calls (plain method
calls: ``compute``, ``iget``, ``wait``, ``send``, memory management) and
*rendezvous* calls, which must be yielded so the scheduler can
coordinate ranks::

    def program(comm: SimComm):
        comm.alloc("Di", shard.nbytes)
        comm.expose("Di", shard, shard.nbytes)
        yield comm.barrier_op()                      # all windows exposed
        req = comm.iget(target, "Di")                # non-blocking MPI_Get
        comm.compute(cost_model.score_time(...))     # masks the transfer
        remote = comm.wait(req)                      # residual comm, if any
        total = yield comm.allreduce_op(x, "sum")
        return hits                                  # collected by the cluster

Only ``recv_op`` and the collectives are yields; one-sided transfers
resolve eagerly at issue (see the package docstring for the causality
argument), so ``wait`` is a plain call that merely advances the local
clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommunicationError
from repro.simmpi.memory import MemoryTracker
from repro.simmpi.request import SimRequest
from repro.simmpi.trace import RankTrace


#: wildcard source for recv_op, mirroring MPI.ANY_SOURCE
ANY_SOURCE: int = -1


@dataclass(frozen=True)
class RecvOp:
    """Yielded to block until a message from ``source`` (or any) arrives."""

    rank: int
    source: int  # ANY_SOURCE for wildcard
    tag: int


@dataclass(frozen=True)
class CollectiveOp:
    """Yielded to enter a rendezvous collective.

    ``instance`` is the per-rank collective sequence number; the
    scheduler asserts every rank's n-th collective has the same ``kind``,
    catching mismatched-collective bugs the way a real MPI would hang.
    """

    rank: int
    kind: str  # "barrier" | "rendezvous" | "allreduce" | "alltoallv"
    instance: int
    payload: Any
    nbytes: int
    op: Optional[str] = None  # reduce operator for allreduce


_REDUCE_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b),
    "min": lambda a, b: np.minimum(a, b) if isinstance(a, np.ndarray) else min(a, b),
}


class SimComm:
    """Per-rank communicator handle.

    Created by :class:`~repro.simmpi.scheduler.SimCluster`; rank programs
    receive one and must not share it across ranks.
    """

    def __init__(self, rank: int, size: int, cluster: "Any"):
        self.rank = rank
        self.size = size
        self._cluster = cluster
        self.clock = 0.0
        self.memory: MemoryTracker = cluster.memory[rank]
        self.trace: RankTrace = cluster.traces[rank]
        self._collective_counter = 0
        #: consistent failure snapshot — ordered tuple of crashed ranks,
        #: stamped by the scheduler at every collective release so all
        #: survivors of a rendezvous agree on who has failed.
        self.sync_failures: Tuple[int, ...] = ()

    # -- local time ------------------------------------------------------

    def compute(self, seconds: float, detail: str = "") -> None:
        """Advance the local clock by modeled computation time.

        On a heterogeneous machine (``ClusterConfig.rank_speeds``) the
        nominal time is divided by this rank's speed factor.
        """
        if seconds < 0:
            raise ValueError(f"compute time must be >= 0, got {seconds}")
        seconds = seconds / self._cluster.effective_speed(self.rank, self.clock)
        self.trace.add("compute", self.clock, seconds, detail)
        self.clock += seconds

    def sweep_setup(self, seconds: float, detail: str = "") -> None:
        """Like :meth:`compute`, but traced as ``sweep`` — the
        candidate-major path's per-query/per-cohort bookkeeping, kept
        separate so summaries show the amortized setup directly."""
        if seconds < 0:
            raise ValueError(f"sweep setup time must be >= 0, got {seconds}")
        seconds = seconds / self._cluster.effective_speed(self.rank, self.clock)
        self.trace.add("sweep", self.clock, seconds, detail)
        self.clock += seconds

    # -- fault tolerance ---------------------------------------------------

    @property
    def fault_tolerant(self) -> bool:
        """True when the machine runs under a fault plan; rank programs
        use this to decide whether to run their recovery protocol."""
        return self._cluster.config.fault_plan is not None

    def recovery_compute(self, seconds: float, detail: str = "") -> None:
        """Like :meth:`compute`, but traced as ``recovery`` so fault-free
        metrics (residual-to-compute, masking) stay untouched."""
        if seconds < 0:
            raise ValueError(f"recovery time must be >= 0, got {seconds}")
        seconds = seconds / self._cluster.effective_speed(self.rank, self.clock)
        self.trace.add("recovery", self.clock, seconds, detail)
        self.clock += seconds

    def recovery_fetch(self, owner: int, nbytes: int, detail: str = "") -> None:
        """Re-fetch a lost shard's bytes from a surviving holder.

        ``owner`` is the rank that *owned* the data; the scheduler
        charges the wire time from the deterministic surviving holder
        (see ``SimCluster.charge_recovery_fetch``) and the elapsed time
        is traced as ``recovery``.
        """
        if not 0 <= owner < self.size:
            raise CommunicationError(f"recovery owner {owner} out of range 0..{self.size - 1}")
        end = self._cluster.charge_recovery_fetch(self.rank, owner, nbytes, self.clock)
        if end > self.clock:
            self.trace.add("recovery", self.clock, end - self.clock, detail or f"refetch D{owner}")
            self.clock = end

    def salvage_window(self, owner: int, window: str) -> Any:
        """Read ``owner``'s window payload even if ``owner`` has failed.

        Recovery-only companion to :meth:`recovery_fetch` (which charges
        the wire time): the payload physically survives on the ring
        successor that fetched it last.
        """
        return self._cluster.salvage_window(owner, window)

    # -- memory ------------------------------------------------------------

    def alloc(self, label: str, nbytes: int) -> None:
        """Charge ``nbytes`` against this rank's RAM cap under ``label``."""
        self.memory.alloc(label, nbytes)

    def free(self, label: str) -> None:
        self.memory.free(label)

    # -- one-sided RMA -----------------------------------------------------

    def expose(self, name: str, payload: Any, nbytes: int) -> None:
        """Publish an immutable buffer other ranks may Get.

        Exposure is instantaneous in virtual time; programs must still
        synchronize (barrier) before peers may Get, as with MPI_Win_fence.
        """
        self._cluster.expose_window(self.rank, name, payload, nbytes)

    def iget(self, target: int, window: str) -> SimRequest:
        """Post a non-blocking one-sided Get of ``target``'s window.

        Returns immediately; the transfer proceeds "without disturbing
        the remote processor" (paper Section II.B).  Call :meth:`wait`
        (or poll ``req.test``) before touching the payload.
        """
        if not 0 <= target < self.size:
            raise CommunicationError(f"iget target {target} out of range 0..{self.size - 1}")
        return self._cluster.issue_get(self.rank, target, window, self.clock)

    def wait(self, request: SimRequest) -> Any:
        """Block until a Get lands; records residual communication."""
        if request.origin != self.rank:
            raise CommunicationError(
                f"rank {self.rank} waiting on rank {request.origin}'s request"
            )
        if request.completion_time > self.clock:
            self.trace.add(
                "wait", self.clock, request.completion_time - self.clock, request.window
            )
            self.clock = request.completion_time
        request.completed = True
        return request.payload

    # -- point-to-point -----------------------------------------------------

    def send(self, dest: int, payload: Any, nbytes: int, tag: int = 0) -> None:
        """Eager send; the local clock advances by the sender overhead only."""
        if not 0 <= dest < self.size:
            raise CommunicationError(f"send dest {dest} out of range 0..{self.size - 1}")
        self._cluster.post_send(self.rank, dest, payload, nbytes, tag, self.clock)

    def recv_op(self, source: int = ANY_SOURCE, tag: int = 0) -> RecvOp:
        """Descriptor to yield; resumes with ``(source, payload)``."""
        return RecvOp(self.rank, source, tag)

    # -- collectives ---------------------------------------------------------

    def _next_collective(self, kind: str, payload: Any, nbytes: int, **kw: Any) -> CollectiveOp:
        op = CollectiveOp(
            rank=self.rank,
            kind=kind,
            instance=self._collective_counter,
            payload=payload,
            nbytes=nbytes,
            **kw,
        )
        self._collective_counter += 1
        return op

    def barrier_op(self) -> CollectiveOp:
        return self._next_collective("barrier", None, 0)

    def rendezvous_op(self) -> CollectiveOp:
        """A barrier whose blocked time is traced as *residual communication*.

        Used by the rotation algorithms to model software one-sided
        progress (see :class:`~repro.simmpi.network.NetworkModel`): the
        time a rank spends here is time it waited on peers' data
        engagement, i.e. the paper's residual communication, not
        collective algorithm cost.
        """
        return self._next_collective("rendezvous", None, 0)

    @property
    def network(self):
        """The machine's network model (for algorithm-level decisions)."""
        return self._cluster.config.network

    def allreduce_op(self, value: Any, op: str = "sum", nbytes: Optional[int] = None) -> CollectiveOp:
        """MPI_Allreduce descriptor (paper: global m/z max and count array)."""
        if op not in _REDUCE_OPS:
            raise CommunicationError(f"unknown reduce op {op!r}; expected {sorted(_REDUCE_OPS)}")
        if nbytes is None:
            nbytes = _payload_nbytes(value)
        return self._next_collective("allreduce", value, nbytes, op=op)

    def alltoallv_op(self, payloads: Sequence[Tuple[Any, int]]) -> CollectiveOp:
        """MPI_Alltoallv descriptor: one ``(payload, nbytes)`` per destination.

        Resumes with the list of ``p`` payloads received (one per source,
        in rank order).  Used by Algorithm B's parallel counting sort to
        redistribute database sequences.
        """
        if len(payloads) != self.size:
            raise CommunicationError(
                f"alltoallv needs {self.size} payloads, got {len(payloads)}"
            )
        total = sum(int(n) for _p, n in payloads)
        return self._next_collective("alltoallv", list(payloads), total)

def _payload_nbytes(value: Any) -> int:
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(value, (list, tuple)):
        return sum(_payload_nbytes(v) for v in value)
    return 64  # opaque object: charge a nominal header


def reduce_values(values: List[Any], op: str) -> Any:
    """Apply a named reduction across per-rank values (rank order)."""
    fn = _REDUCE_OPS[op]
    result = values[0]
    for v in values[1:]:
        result = fn(result, v)
    return result
