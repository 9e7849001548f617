"""Algorithm A: ring rotation of database shards with masked prefetch.

Reproduces the paper's Figure 2 pseudocode:

  A1. Parallel load — rank i holds the i-th N/p byte chunk of the
      database (sequence boundaries respected) and ~m/p queries.
  A2. Query processing over p iterations.  At step s, rank i compares
      all its queries against shard D_j, j = (i + s) mod p.  "Before the
      queries are processed, a non-blocking request to receive the
      database portion for the next iteration is issued ... using the
      MPI_Get() one-sided communication primitive", masking the transfer
      behind the current step's computation.
  A3. Output — each rank reports the running top-tau list per local
      query.

Memory: each rank keeps three O(N/p) buffers — D_i (its resident shard,
also the window peers Get from), D_recv (landing buffer for the prefetch)
and D_comp (the shard being scored) — giving the paper's O((N + m)/p)
space bound, which the simulated RAM cap enforces for real.

``mask=False`` runs the ablation the paper measured ("a second version
of the algorithm that does not mask communication with computation"): the
rank waits for each transfer *before* scoring, so every byte of wire time
turns into residual communication.

Fault tolerance (``ClusterConfig.fault_plan``): when a peer dies
mid-rotation, a survivor's prefetch raises
:class:`~repro.errors.RankFailedError`; it then re-fetches the lost
shard from the ring successor that still holds a copy (charged as
``recovery`` time) and the rotation continues.  After the rotation, the
commit protocol in :mod:`repro.core.recovery` reassigns dead ranks'
query blocks to survivors, which rescan them against the whole database
so the merged output is identical to the fault-free run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.partition import partition_database, partition_queries
from repro.core.recovery import run_recovery_rounds
from repro.core.results import SearchReport, merge_rank_hits
from repro.core.search import ShardSearcher, ShardStats
from repro.errors import RankFailedError
from repro.obs.naming import simmpi_extras
from repro.scoring.hits import TopHitList, pack_hit_columns
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig, SimCluster
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum

#: window name ranks expose their resident shard under
_WINDOW = "Di"


def _rank_program(
    comm: SimComm,
    searchers: Sequence[ShardSearcher],
    query_blocks: Sequence[List[Spectrum]],
    config: SearchConfig,
    mask: bool,
):
    """The per-rank generator executed by the simulated cluster."""
    p, i = comm.size, comm.rank
    cost = config.cost
    my_queries = query_blocks[i]
    my_searcher = searchers[i]
    shard_mem = cost.shard_bytes(my_searcher.shard)

    # A1: load the local database chunk and query block.
    comm.alloc("Di", shard_mem)
    comm.alloc("Qi", sum(q.nbytes for q in my_queries))
    comm.compute(
        cost.load_time(shard_mem, len(my_queries)), detail="A1 load"
    )
    comm.expose(_WINDOW, my_searcher, my_searcher.shard.nbytes)
    yield comm.barrier_op()  # MPI_Win_fence: all windows exposed

    # A2: p iterations of score-current / prefetch-next.
    hitlists: Dict[int, TopHitList] = {}
    totals = ShardStats()
    current = my_searcher
    software_rma = comm.network.software_rma and p > 1
    comm.alloc("Dcomp", cost.shard_bytes(current.shard))
    for s in range(p):
        request = None
        lost_target = None
        if s + 1 < p:
            target = (i + s + 1) % p
            try:
                request = comm.iget(target, _WINDOW)
            except RankFailedError:
                # the next shard's owner died: nothing to prefetch; after
                # this step's scoring, re-fetch the shard from the ring
                # successor that still holds a copy (charged as recovery).
                lost_target = target
            comm.alloc("Drecv", cost.shard_bytes(searchers[target].shard))
            if not mask and request is not None:
                # ablation: synchronous fetch — no overlap with compute
                comm.wait(request)
        stats = current.run(my_queries, hitlists)  # real work
        totals.merge(stats)
        overhead = cost.query_processing_overhead(stats, len(my_queries))
        comm.compute(
            cost.iteration_overhead
            + cost.scan_time(current.shard.nbytes)
            + cost.search_evaluation_time(stats, current.scorer)
            + (0.0 if stats.sweep_queries else overhead),
            detail=f"A2 score D{(i + s) % p}",
        )
        if stats.sweep_queries:
            # sweep bookkeeping is traced separately from compute
            comm.sweep_setup(overhead, detail=f"A2 sweep D{(i + s) % p}")
        if request is not None:
            current = comm.wait(request)
            comm.alloc("Dcomp", cost.shard_bytes(current.shard))
        elif lost_target is not None:
            comm.recovery_fetch(
                lost_target,
                searchers[lost_target].shard.nbytes,
                detail=f"salvage D{lost_target}",
            )
            current = searchers[lost_target]
            comm.alloc("Dcomp", cost.shard_bytes(current.shard))
        if software_rma:
            # ethernet one-sided progress: the step's transfers complete
            # only once every target engages the MPI library, so each
            # rotation step rendezvouses and compute skew becomes
            # residual communication (traced as wait).
            yield comm.rendezvous_op()
    if p > 1:
        comm.free("Drecv")

    # A3: report the running top-tau lists.
    reported = sum(min(len(h), config.tau) for h in hitlists.values())
    comm.compute(cost.report_time(reported), detail="A3 report")

    # A4 (fault-tolerant runs only): commit rendezvous + adoption of dead
    # ranks' query blocks, repeated until the failure set is stable.
    if comm.fault_tolerant and p > 1:

        def adopt(failed: int, snapshot) -> None:
            block = query_blocks[failed]
            if not block:
                return
            block_bytes = sum(q.nbytes for q in block)
            comm.alloc("Qadopt", block_bytes)
            comm.recovery_compute(
                cost.load_time(block_bytes, len(block)), detail=f"reload Q{failed}"
            )
            # conservatively rescan the orphaned block against the whole
            # database: survivors cannot know how far the dead rank got.
            for j in range(p):
                if j != i:
                    comm.alloc("Drecv", cost.shard_bytes(searchers[j].shard))
                    comm.recovery_fetch(
                        j, searchers[j].shard.nbytes, detail=f"refetch D{j} for Q{failed}"
                    )
                stats = searchers[j].run(block, hitlists)
                comm.recovery_compute(
                    cost.iteration_overhead
                    + cost.scan_time(searchers[j].shard.nbytes)
                    + cost.search_evaluation_time(stats, searchers[j].scorer)
                    + cost.query_processing_overhead(stats, len(block)),
                    detail=f"rescore Q{failed} x D{j}",
                )
                totals.merge(stats)
            adopted_reported = sum(
                min(len(hitlists[q.query_id]), config.tau)
                for q in block
                if q.query_id in hitlists
            )
            comm.recovery_compute(
                cost.report_time(adopted_reported), detail=f"report Q{failed}"
            )
            comm.free("Drecv")
            comm.free("Qadopt")

        yield from run_recovery_rounds(comm, adopt)

    hits = pack_hit_columns(hitlists, hitlists)
    return hits, totals


def run_algorithm_a(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    config: Optional[SearchConfig] = None,
    mask: bool = True,
    cluster_config: Optional[ClusterConfig] = None,
    library: Optional[SpectralLibrary] = None,
) -> SearchReport:
    """Run Algorithm A on the simulated machine and merge rank outputs."""
    config = config or SearchConfig()
    cluster_config = cluster_config or ClusterConfig(num_ranks=num_ranks)
    if cluster_config.num_ranks != num_ranks:
        raise ValueError("cluster_config.num_ranks must match num_ranks")

    shards = partition_database(database, num_ranks)
    searchers = [ShardSearcher(s, config, library=library) for s in shards]
    query_blocks = partition_queries(queries, num_ranks)

    cluster = SimCluster(cluster_config)
    args = {r: (searchers, query_blocks, config, mask) for r in range(num_ranks)}
    outcomes, summary = cluster.run(_rank_program, args)

    hits = merge_rank_hits([o.value[0] for o in outcomes], config.tau)
    totals = ShardStats()
    for o in outcomes:
        totals.merge(o.value[1])
    extras = simmpi_extras(
        summary,
        totals=totals,
        fault_tolerant=cluster_config.fault_plan is not None,
    )
    return SearchReport(
        algorithm="algorithm_a" if mask else "algorithm_a_nomask",
        num_ranks=num_ranks,
        hits=hits,
        candidates_evaluated=totals.candidates_evaluated,
        virtual_time=summary.makespan,
        trace=summary,
        peak_memory={r: cluster.memory[r].peak for r in range(num_ranks)},
        extras=extras,
    )
