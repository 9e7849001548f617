"""Algorithm B: m/z-sorted database with sender-group-restricted transport.

Reproduces the paper's Figure 3 pseudocode: Algorithm A plus a parallel
counting-sort preprocessing step (B2, :mod:`repro.core.sort`).  After
sorting, "the sorted order could help identify only that subset of
processors which have sequences with candidates to offer the local batch
of queries": candidates for query ``q`` can only come from database
sequences ``d`` with ``m(d) + d_max >= m(q) - delta`` (a span's mass
never exceeds its parent's, and a variable modification adds at most
``d_max``), so rank ``i`` only fetches from the *sender group* — ranks
whose maximum parent mass reaches its smallest query window.  The local
query set is kept sorted by parent mass and binary search selects, per
fetched shard, the sub-range of queries that shard can serve (the
paper's "minor addition").  The rotation itself, the commit protocol
and the report assembly are Algorithm A's (:mod:`repro.core.rotation`).

The trade-off the paper measures (Table IV): when queries are complex
(human spectra — candidates from nearly the whole mass range), the
sender group degenerates to almost all ranks and B pays the sorting
overhead for nothing; the overhead grows with p until B loses to A.

Fault tolerance: crashes materializing *after* the sort phase are
survived exactly as in Algorithm A (adopters rescan orphaned query
blocks against every sorted shard, unpruned).  Crashes *during* the
sort's alltoallv redistribution are outside the supported fault window
and abort loudly — redistributed sequences have no surviving replica to
recover from.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.partition import partition_database, partition_queries
from repro.core.results import SearchReport
from repro.core.rotation import PassLedger, adopt_orphans, rotate, run_cluster
from repro.core.search import ShardSearcher
from repro.core.sort import parallel_counting_sort
from repro.scoring.hits import TopHitList
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum

_WINDOW = "Dsi"


def _rank_program(
    comm: SimComm,
    ledger: PassLedger,
    shards: Sequence[ProteinDatabase],
    query_blocks: Sequence[List[Spectrum]],
    config: SearchConfig,
    heaviest: float,
):
    """The per-rank generator; ``heaviest`` is the heaviest parent mass
    of every rank's queries."""
    p, i = comm.size, comm.rank
    cost = config.cost
    my_queries = query_blocks[i]
    shard = shards[i]

    # B1: parallel load, as in Algorithm A.
    comm.alloc("Di", cost.shard_bytes(shard))
    comm.alloc("Qi", sum(q.nbytes for q in my_queries))
    comm.compute(cost.load_time(cost.shard_bytes(shard), len(my_queries)), detail="B1 load")

    # B2: parallel counting sort by parent m/z.
    sort_start = comm.clock
    sorted_shard, _hi_key, max_masses = yield from parallel_counting_sort(comm, shard, cost)
    sorting_time = comm.clock - sort_start
    comm.free("Di")
    comm.alloc("Dsi", cost.shard_bytes(sorted_shard))

    # any rank's queries may reach this shard: its rows go up to the heaviest
    searcher = ShardSearcher(sorted_shard, config, max_parent_mass=heaviest)
    comm.expose(_WINDOW, searcher, sorted_shard.nbytes)
    # Exchange sorted-shard footprints so Drecv buffers can be sized
    # before each transfer (the paper's tuple bookkeeping step).
    size_vec = np.zeros(p)
    size_vec[i] = cost.shard_bytes(sorted_shard)
    sorted_bytes = yield comm.allreduce_op(size_vec, "sum", nbytes=int(size_vec.nbytes))
    yield comm.barrier_op()

    # B3: query processing restricted to the sender group.
    # Keep Qi sorted by parent mass; binary search then selects, per
    # shard, the query sub-range the shard can serve.  A span is matched
    # at its own mass and at its mass plus each variable modification,
    # so a shard reaches queries up to that much heavier.
    queries_sorted = sorted(my_queries, key=lambda q: q.parent_mass)
    q_masses = np.array([q.parent_mass for q in queries_sorted])
    reach = config.delta + max(
        [0.0] + [m.delta_mass for m in config.modifications if not m.fixed]
    )
    min_needed = (q_masses[0] - reach) if len(q_masses) else np.inf
    sender_group = [t for t in range(p) if max_masses[t] >= min_needed]
    # Rotate the group so each rank starts with itself (if it belongs)
    # or its successor, spreading simultaneous Gets over distinct targets
    # exactly as A's ring schedule does.
    start = next((k for k, t in enumerate(sender_group) if t >= i), 0)
    order = sender_group[start:] + sender_group[:start]

    hitlists, totals = yield from rotate(
        comm,
        ledger,
        _WINDOW,
        searcher,
        order=order,
        sizes=sorted_bytes,
        queries=queries_sorted,
        config=config,
        phase="B3",
        agree_rounds=True,  # sender groups differ per rank
        # each shard serves the mass-order prefix of queries it can reach
        mass_limit=lambda t: max_masses[t] + reach,
    )
    # every query id appears in the output even if no shard served it
    for q in my_queries:
        hitlists.setdefault(q.query_id, TopHitList(config.tau))

    reported = ledger.reported(hitlists.values(), config.tau)
    comm.compute(cost.report_time(reported), detail="B3 report")

    yield from adopt_orphans(
        comm, ledger, _WINDOW, searcher, query_blocks, hitlists, totals, config
    )
    return ledger.columns(hitlists), totals, {"sorting_time": sorting_time}


def run_algorithm_b(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    config: Optional[SearchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
) -> SearchReport:
    """Run Algorithm B on the simulated machine and merge rank outputs."""
    config = config or SearchConfig()
    return run_cluster(
        "algorithm_b",
        _rank_program,
        (
            partition_database(database, num_ranks),
            partition_queries(queries, num_ranks),
            config,
            heaviest_parent_mass(queries),
        ),
        num_ranks,
        config,
        cluster_config,
    )
