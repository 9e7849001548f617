"""The MSPolygraph master-worker baseline (paper steps S1-S4).

  S1. One master, p - 1 workers.  "The master processor loads Q into its
      local memory, while all workers load the entire database D in
      their respective local memory."
  S2. The master distributes "small, fixed size batches" of queries to
      workers on demand.
  S3. Each worker processes its batch against the *whole* database and
      reports at most tau hits per query.
  S4. Repeat until all queries are processed.

Strengths the paper credits it with — zero communication during query
processing and demand-driven load balance — emerge in simulation, and so
does its fatal flaw: the O(N) per-worker footprint.  With the default
1 GB rank cap, runs past ~1.27 M sequences raise
:class:`~repro.errors.OutOfMemoryError` from the worker's load step,
reproducing "the code resorts to swap space or crashes out of memory".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.results import SearchReport, merge_rank_hits
from repro.core.rotation import PassLedger, run_cluster, score_pass
from repro.core.search import ShardSearcher, ShardStats, search_serial
from repro.errors import ConfigError
from repro.scoring.hits import HitColumns, TopHitList
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum

_HIT_BYTES = 48  # transported size of one reported hit record
_QUERY_TAG = 0


def _master_program(
    comm: SimComm,
    _ledger: PassLedger,
    queries: Sequence[Spectrum],
    config: SearchConfig,
    batch_size: int,
):
    cost = config.cost
    comm.alloc("Q", sum(q.nbytes for q in queries))
    comm.compute(cost.query_load_cost * len(queries), detail="S1 load queries")

    batches: List[List[Spectrum]] = [
        list(queries[i : i + batch_size]) for i in range(0, len(queries), batch_size)
    ]
    next_batch = 0
    outstanding = 0
    all_hits: List[HitColumns] = []
    # S2: seed every worker with one batch.
    for worker in range(1, comm.size):
        if next_batch < len(batches):
            batch = batches[next_batch]
            comm.send(worker, batch, sum(q.nbytes for q in batch), tag=_QUERY_TAG)
            next_batch += 1
            outstanding += 1
    # S4: refill on demand until drained.
    while outstanding:
        src, hits = yield comm.recv_op()
        all_hits.append(hits)
        outstanding -= 1
        if next_batch < len(batches):
            batch = batches[next_batch]
            comm.send(src, batch, sum(q.nbytes for q in batch), tag=_QUERY_TAG)
            next_batch += 1
            outstanding += 1
    for worker in range(1, comm.size):
        comm.send(worker, None, 8, tag=_QUERY_TAG)  # poison pill
    merged = merge_rank_hits(all_hits, config.tau)
    comm.compute(cost.report_time(len(merged.columns.scores)), detail="S4 output")
    return merged, ShardStats(), {}


def _worker_program(
    comm: SimComm, ledger: PassLedger, searcher: ShardSearcher, config: SearchConfig
):
    cost = config.cost
    # S1: load the ENTIRE database — the O(N) step that breaks at scale.
    db_mem = cost.shard_bytes(searcher.shard)
    comm.alloc("D", db_mem)
    comm.compute(cost.load_time(db_mem, 0), detail="S1 load database")
    totals = ShardStats()
    while True:
        _src, batch = yield comm.recv_op(source=0)
        if batch is None:
            return None, totals, {}
        hitlists: Dict[int, TopHitList] = {}
        # S3: real work, local only; a batch is no rotation step, and it
        # is scored (the ledger flushed) before its reply
        totals.merge(
            score_pass(comm, ledger, searcher, batch, hitlists, config, "S3", rotation_step=False)
        )
        hits = ledger.columns(hitlists)
        comm.send(0, hits, _HIT_BYTES * max(len(hits.scores), 1))


def run_master_worker(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    config: Optional[SearchConfig] = None,
    batch_size: int = 16,
    cluster_config: Optional[ClusterConfig] = None,
) -> SearchReport:
    """Run the replicated-database master-worker baseline.

    ``num_ranks`` counts the master, so workers = num_ranks - 1; at
    ``num_ranks == 1`` the single rank degenerates to a serial search
    (master and worker roles fused), as MSPolygraph's uni-processor runs
    do.  ``batch_size`` is a whole number of queries, at least 1
    (:class:`~repro.errors.ConfigError` otherwise).
    """
    whole = isinstance(batch_size, (int, np.integer)) and not isinstance(batch_size, bool)
    if not whole or batch_size < 1:
        raise ConfigError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    batch_size = int(batch_size)
    config = config or SearchConfig()
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
    if num_ranks == 1:
        report = search_serial(database, queries, config)
        report.algorithm = "master_worker"
        return report

    searcher = ShardSearcher(database, config, max_parent_mass=heaviest_parent_mass(queries))
    args: Dict[int, Tuple] = {r: (searcher, config) for r in range(1, num_ranks)}
    args[0] = (queries, config, batch_size)

    def program(comm: SimComm, *rank_args):
        if comm.rank == 0:
            return (yield from _master_program(comm, *rank_args))
        return (yield from _worker_program(comm, *rank_args))

    return run_cluster(
        "master_worker",
        program,
        args,
        num_ranks,
        config,
        cluster_config,
        rank_totals=False,
        batch_size=batch_size,
        workers=num_ranks - 1,
    )
