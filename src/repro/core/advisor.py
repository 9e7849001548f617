"""Engine selection advice — the paper's Section III.A guidance, executable.

"It is to be noted, however, the application of our approach will make
sense only for inputs that do not fit in local memory.  For small inputs
that fit within a processor's memory, the older version of MSPolygraph
is more appropriate because it will output the same result with no added
communication delays.  For medium range inputs, however, it could be
worth exploring an extension ... in which processors can divide
themselves into smaller sub-groups."

:func:`advise` turns that paragraph into a function of the measurable
quantities it depends on — database footprint, query count, processor
count, per-rank RAM — and returns a recommendation with the reasoning
spelled out.  The integration tests check the advice against actual
simulated runs: the recommended configuration must fit in memory and be
within a tolerance of the best feasible one.

Since PR 8 the knob set outgrew the paper's three-way ladder: the
partitioned out-of-core store caps peak index residency at two
partitions regardless of N.  :func:`advise` folds that in — a workload
that fits nowhere resident can still run streamed — and doubles as the
feasibility pruner for the ``repro.tune`` configuration search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.costmodel import CostModel


@dataclass(frozen=True)
class Advice:
    """A recommendation with its reasoning."""

    algorithm: str  #: engine name from repro.core.driver.ALGORITHMS
    num_groups: int  #: sub-group count (1 unless algorithm == subgroups)
    reasons: List[str]
    stream: bool = False  #: recommend the out-of-core streamed store

    @property
    def summary(self) -> str:
        base = f"{self.algorithm}" + (
            f" (g={self.num_groups})" if self.algorithm == "subgroups" else ""
        )
        return base + (" [streamed]" if self.stream else "")


def fits_in_budget(resident_bytes: int, budget_bytes: Optional[int]) -> bool:
    """Memory-fit check shared by :func:`advise` and the tuner's pruner.

    ``budget_bytes=None`` means no cap was given (everything fits).
    """
    if budget_bytes is None:
        return True
    return resident_bytes <= budget_bytes


def streamed_residency_bytes(max_partition_bytes: int, query_bytes: int = 0) -> int:
    """Peak memory of a streamed search: two partitions (the prefetch
    double buffer) plus the queries — the PR 8 out-of-core invariant,
    independent of database size."""
    return 2 * max_partition_bytes + query_bytes


def advise(
    num_sequences: int,
    total_residues: int,
    num_ranks: int,
    ram_per_rank: int = 1 << 30,
    cost: CostModel = CostModel(),
    query_bytes: int = 0,
    streaming_available: bool = False,
    max_partition_bytes: int = 0,
) -> Advice:
    """Recommend an engine for a workload, per the paper's own guidance.

    The decision ladder:

    1. *Small inputs* — the whole database (plus queries) fits in one
       rank's RAM: use the master-worker baseline; identical output,
       zero data-distribution overhead, and dynamic load balance.
    2. *Medium inputs* — the database doesn't fit whole, but ``g > 1``
       copies of a 1/(p/g) shard triple-buffered do: use sub-groups with
       the largest feasible ``g`` (fewer rotation iterations, less
       per-iteration overhead, same output).
    3. *Large inputs* — only the fully distributed O(N/p) layout fits:
       Algorithm A.
    4. *Out-of-core inputs* — nothing resident fits, but a partitioned
       store is available: stream it; peak residency is two partitions
       regardless of N, so the fit test no longer involves the database
       size at all.
    """
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
    footprint = cost.database_bytes(num_sequences, total_residues)
    reasons: List[str] = []

    replicated_need = footprint + query_bytes
    if replicated_need <= ram_per_rank:
        reasons.append(
            f"whole database ({footprint} B) fits in one rank's RAM "
            f"({ram_per_rank} B): replication avoids all data-distribution "
            "overhead (paper Section III.A: 'the older version of "
            "MSPolygraph is more appropriate')"
        )
        return Advice("master_worker", 1, reasons)

    # feasible sub-group counts: within a group of size p/g each rank
    # triple-buffers shards of footprint/(p/g)
    best_g = 0
    for g in range(num_ranks, 0, -1):
        if num_ranks % g != 0:
            continue
        group_size = num_ranks // g
        need = 3 * (footprint // group_size) + query_bytes
        if need <= ram_per_rank:
            best_g = g
            break
    if best_g > 1:
        reasons.append(
            f"database does not fit replicated, but g={best_g} sub-groups of "
            f"{num_ranks // best_g} ranks can each triple-buffer their shard: "
            "fewer rotation iterations than full distribution "
            "(paper Section III.A's medium-input extension)"
        )
        return Advice("subgroups", best_g, reasons)
    if best_g == 1:
        reasons.append(
            "only the fully distributed O(N/p) layout fits per-rank RAM: "
            "Algorithm A (the paper's main contribution exists for exactly "
            "this regime)"
        )
        return Advice("algorithm_a", 1, reasons)
    if streaming_available:
        streamed_need = streamed_residency_bytes(max_partition_bytes, query_bytes)
        if streamed_need <= ram_per_rank:
            reasons.append(
                f"no resident layout fits ({footprint} B across {num_ranks} "
                f"ranks of {ram_per_rank} B), but the partitioned store "
                f"streams with a two-partition double buffer "
                f"({streamed_need} B peak): out-of-core residency is "
                "independent of database size"
            )
            return Advice("algorithm_a", 1, reasons, stream=True)
    raise ValueError(
        f"database footprint {footprint} B cannot fit even fully distributed "
        f"across {num_ranks} ranks of {ram_per_rank} B (need "
        f"{3 * footprint // num_ranks + query_bytes} B per rank); add ranks or RAM"
    )
