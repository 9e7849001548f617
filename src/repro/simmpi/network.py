"""LogGP-style network model for the simulated cluster.

The paper's complexity analysis is written in exactly these terms: "let
lambda be the network latency and mu be the time to transfer one byte
over the network.  Then the total communication complexity is
O(lambda * p + mu * N)" (Section II.B).  We adopt the same two-parameter
model, defaulting to gigabit-ethernet constants matching the paper's
testbed, plus per-endpoint serialization so concurrent transfers into
one rank queue up rather than magically sharing the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import PAPER_NETWORK_BYTE_COST_S, PAPER_NETWORK_LATENCY_S


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point and collective communication costs.

    Attributes:
        latency: end-to-end message latency lambda (seconds).
        byte_cost: per-byte transfer time mu (seconds/byte).
        allreduce_linear: if True, Allreduce is modeled as a linear
            (non-tree) reduce-then-broadcast — the behaviour the paper's
            Algorithm B measurements are consistent with (its sorting
            overhead grows ~linearly in p, Table IV); if False a
            logarithmic tree model is used.
        software_rma: model MPI_Get over commodity ethernet, where the
            target has no RDMA hardware and one-sided transfers progress
            only when the target's CPU enters the MPI library.  The
            rotation algorithms then rendezvous once per iteration, so
            per-iteration compute *skew* across ranks surfaces as
            residual communication — the mechanism behind the paper's
            size-independent residual-to-compute ratio (0.36 +/- 0.11)
            and its one-time efficiency drop from p=2 to p=4.  Set False
            to model an RDMA-capable interconnect.
    """

    latency: float = PAPER_NETWORK_LATENCY_S
    byte_cost: float = PAPER_NETWORK_BYTE_COST_S
    allreduce_linear: bool = True
    software_rma: bool = True

    def __post_init__(self) -> None:
        if self.latency < 0 or self.byte_cost < 0:
            raise ValueError("latency and byte_cost must be >= 0")

    def transfer_time(self, nbytes: int) -> float:
        """Time for one point-to-point transfer of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        return self.latency + self.byte_cost * nbytes

    def failed_attempt_time(self, wire_time: float, penalty: float) -> float:
        """Time one transient transfer failure wastes before the retry.

        A failed attempt burns the wire time already spent (modeled
        conservatively as the full serialized transfer), one latency for
        the failure to be detected, and the fault plan's retransmit
        ``penalty`` (timeout + re-setup).  Used by the scheduler when a
        :class:`repro.faults.plan.TransientFaults` spec is active.
        """
        if wire_time < 0 or penalty < 0:
            raise ValueError("wire_time and penalty must be >= 0")
        return wire_time + self.latency + penalty

    def barrier_time(self, p: int) -> float:
        """Dissemination barrier: ceil(log2 p) rounds of small messages."""
        if p <= 1:
            return 0.0
        return math.ceil(math.log2(p)) * self.latency

    def allreduce_time(self, p: int, nbytes: int) -> float:
        """Allreduce of an ``nbytes`` payload across ``p`` ranks."""
        if p <= 1:
            return 0.0
        if self.allreduce_linear:
            # reduce to root then broadcast, both linear in p
            return 2.0 * (p - 1) * (self.latency + self.byte_cost * nbytes)
        rounds = math.ceil(math.log2(p))
        return 2.0 * rounds * (self.latency + self.byte_cost * nbytes)

    def alltoallv_time(self, p: int, max_send: int, max_recv: int) -> float:
        """Alltoallv bounded by the busiest endpoint.

        Modeled as ``p`` pairwise rounds: every rank pays one latency per
        peer plus the serialized byte time of its heavier direction.
        """
        if p <= 1:
            return 0.0
        return (p - 1) * self.latency + self.byte_cost * max(max_send, max_recv)

#: A zero-cost network, useful in unit tests that assert pure semantics.
ZERO_NETWORK = NetworkModel(latency=0.0, byte_cost=0.0)
