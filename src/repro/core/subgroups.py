"""Sub-group extension — the paper's Section III.A proposal.

"For medium range inputs ... it could be worth exploring an extension of
our approach in which processors can divide themselves into smaller
sub-groups, where the database is partitioned within each sub-group and
the query set is partitioned across sub-groups."

With ``g`` groups of ``p/g`` ranks each:

* each group holds the *whole* database, split into ``p/g`` shards —
  per-rank memory rises to ``O(N * g / p)`` (the knob trading memory for
  communication);
* each group processes ``m/g`` of the queries with Algorithm A's ring
  rotation *inside the group* — only ``p/g`` iterations and only
  intra-group transfers, so the per-rank iteration count (and with it the
  O(lambda * p) overhead and rendezvous count) drops by ``g``.

At ``g = 1`` this is exactly Algorithm A; at ``g = p`` it degenerates to
the replicated master-worker layout (every rank holds all of D).  The
ablation bench sweeps ``g`` to expose the trade-off the paper predicted
for "medium range inputs".
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.chem.protein import ProteinDatabase
from repro.core.algorithm_a import _rank_program as _algorithm_a_program
from repro.core.config import SearchConfig
from repro.core.partition import partition_database, partition_queries
from repro.core.results import SearchReport, merge_rank_hits
from repro.core.search import ShardSearcher, ShardStats
from repro.errors import ConfigError
from repro.obs.naming import simmpi_extras
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig, SimCluster
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum


class _GroupComm:
    """A group-local view of a SimComm: ranks 0..g-1 within one group.

    Translates group-relative rank ids to global ones so Algorithm A's
    rank program runs unchanged inside a sub-group.  Collectives would
    need communicator splitting; Algorithm A's program only uses
    barrier/rendezvous, which we scope by giving each group its own
    instance-id space via the underlying comm (sufficient because every
    group has the same program structure, so global instances align;
    the barrier then over-synchronizes across groups, a conservative
    cost the ablation notes).
    """

    def __init__(self, comm: SimComm, group_size: int, group_index: int):
        self._comm = comm
        self.size = group_size
        self.rank = comm.rank % group_size
        self._base = group_index * group_size

    # -- delegated local operations -------------------------------------
    def compute(self, seconds: float, detail: str = "") -> None:
        self._comm.compute(seconds, detail)

    def index_build(self, seconds: float, detail: str = "") -> None:
        self._comm.index_build(seconds, detail)

    def sweep_setup(self, seconds: float, detail: str = "") -> None:
        self._comm.sweep_setup(seconds, detail)

    def alloc(self, label: str, nbytes: int) -> None:
        self._comm.alloc(label, nbytes)

    def free(self, label: str) -> None:
        self._comm.free(label)

    def expose(self, name: str, payload, nbytes: int) -> None:
        self._comm.expose(name, payload, nbytes)

    def get_local(self, window: str):
        return self._comm.get_local(window)

    def wait(self, request):
        return self._comm.wait(request)

    @property
    def network(self):
        return self._comm.network

    @property
    def clock(self) -> float:
        return self._comm.clock

    @property
    def fault_tolerant(self) -> bool:
        """Sub-group runs do not implement the recovery protocol (fault
        plans target the flat algorithms), so the wrapped Algorithm A
        program must skip its adoption phase."""
        return False

    # -- rank-translated operations --------------------------------------
    def iget(self, target: int, window: str):
        return self._comm.iget(self._base + target, window)

    def barrier_op(self):
        return self._comm.barrier_op()

    def rendezvous_op(self):
        return self._comm.rendezvous_op()


def run_subgroups(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    num_groups: int,
    config: Optional[SearchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    library: Optional[SpectralLibrary] = None,
) -> SearchReport:
    """Run the sub-group extension: g groups, each running Algorithm A.

    ``num_ranks`` must be divisible by ``num_groups``.
    """
    config = config or SearchConfig()
    if num_groups < 1 or num_ranks % num_groups != 0:
        raise ConfigError(
            f"num_ranks ({num_ranks}) must be a positive multiple of "
            f"num_groups ({num_groups})"
        )
    group_size = num_ranks // num_groups
    cluster_config = cluster_config or ClusterConfig(num_ranks=num_ranks)

    # Database split WITHIN a group: the same g-way... p/g-way shards are
    # reused by every group (each group holds the whole database).
    shards = partition_database(database, group_size)
    searchers = [ShardSearcher(s, config, library=library) for s in shards]
    # Queries split ACROSS groups, then across ranks within the group.
    group_queries = partition_queries(queries, num_groups)
    args: Dict[int, tuple] = {}
    for group in range(num_groups):
        # group-local query blocks, indexed by group-relative rank
        blocks = partition_queries(group_queries[group], group_size)
        for k in range(group_size):
            args[group * group_size + k] = (searchers, blocks, config, group, group_size)

    def program(comm: SimComm, searchers_, query_blocks, cfg, group, gsize):
        gcomm = _GroupComm(comm, gsize, group)
        return (yield from _algorithm_a_program(gcomm, searchers_, query_blocks, cfg, True))

    cluster = SimCluster(cluster_config)
    outcomes, summary = cluster.run(program, args)

    hits = merge_rank_hits([o.value[0] for o in outcomes], config.tau)
    totals = ShardStats()
    for o in outcomes:
        totals.merge(o.value[1])
    return SearchReport(
        algorithm=f"subgroups_g{num_groups}",
        num_ranks=num_ranks,
        hits=hits,
        candidates_evaluated=totals.candidates_evaluated,
        virtual_time=summary.makespan,
        trace=summary,
        peak_memory={r: cluster.memory[r].peak for r in range(num_ranks)},
        extras=simmpi_extras(
            summary,
            totals=totals,
            num_groups=num_groups,
            group_size=group_size,
        ),
    )
