"""Algorithm B: m/z-sorted database with sender-group-restricted transport.

Reproduces the paper's Figure 3 pseudocode: Algorithm A plus a parallel
counting-sort preprocessing step (B2, :mod:`repro.core.sort`).  After
sorting, "the sorted order could help identify only that subset of
processors which have sequences with candidates to offer the local batch
of queries": candidates for query ``q`` can only come from database
sequences ``d`` with ``m(d) >= m(q) - delta`` (a span's mass never
exceeds its parent's), so rank ``i`` only fetches from the *sender
group* — ranks whose maximum parent mass reaches its smallest query
window.  The local query set is kept sorted by parent mass and binary
search selects, per fetched shard, the sub-range of queries that shard
can serve (the paper's "minor addition").

The trade-off the paper measures (Table IV): when queries are complex
(human spectra — candidates from nearly the whole mass range), the
sender group degenerates to almost all ranks and B pays the sorting
overhead for nothing; the overhead grows with p until B loses to A.

Fault tolerance: crashes materializing *after* the sort phase are
survived exactly as in Algorithm A (mid-rotation shard salvage plus the
commit protocol in :mod:`repro.core.recovery`; adopters rescan orphaned
query blocks against every sorted shard, unpruned).  Crashes *during*
the sort's alltoallv redistribution are outside the supported fault
window and abort loudly — redistributed sequences have no surviving
replica to recover from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.partition import partition_database, partition_queries
from repro.core.recovery import run_recovery_rounds
from repro.core.results import SearchReport, merge_rank_hits
from repro.core.search import ShardSearcher, ShardStats
from repro.core.sort import parallel_counting_sort
from repro.errors import RankFailedError
from repro.obs.naming import simmpi_extras
from repro.scoring.hits import TopHitList, pack_hit_columns
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig, SimCluster
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum

_WINDOW = "Dsi"


def _rank_program(
    comm: SimComm,
    shards: Sequence[ProteinDatabase],
    query_blocks: Sequence[List[Spectrum]],
    config: SearchConfig,
    mask: bool,
    library: Optional[SpectralLibrary],
):
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

    searcher = ShardSearcher(sorted_shard, config, library=library)
    comm.expose(_WINDOW, searcher, sorted_shard.nbytes)
    # Exchange sorted-shard footprints so Drecv buffers can be sized
    # before each transfer (the paper's tuple bookkeeping step).
    size_vec = np.zeros(p)
    size_vec[i] = cost.shard_bytes(sorted_shard)
    sorted_bytes = yield comm.allreduce_op(size_vec, "sum", nbytes=int(size_vec.nbytes))
    yield comm.barrier_op()

    # B3: query processing restricted to the sender group.
    # Keep Qi sorted by parent mass; binary search then selects, per
    # shard, the query sub-range the shard can serve.
    queries_sorted = sorted(my_queries, key=lambda q: q.parent_mass)
    q_masses = np.array([q.parent_mass for q in queries_sorted])
    min_needed = (q_masses[0] - config.delta) if len(q_masses) else np.inf
    sender_group = [t for t in range(p) if max_masses[t] >= min_needed]
    # Rotate the group so each rank starts with itself (if it belongs)
    # or its successor, spreading simultaneous Gets over distinct targets
    # exactly as A's ring schedule does.
    if sender_group:
        start_pos = next(
            (k for k, t in enumerate(sender_group) if t >= i), 0
        ) % len(sender_group)
        rotation = sender_group[start_pos:] + sender_group[:start_pos]
    else:
        rotation = []

    hitlists: Dict[int, TopHitList] = {}
    totals = ShardStats()
    current: Optional[ShardSearcher] = None
    if rotation:
        if rotation[0] == i:
            current = searcher
        else:
            # i is not in its own sender group: fetch the first shard
            # synchronously (nothing to mask behind yet).
            comm.alloc("Drecv", int(sorted_bytes[rotation[0]]))
            try:
                first = comm.iget(rotation[0], _WINDOW)
            except RankFailedError:
                current = comm.salvage_window(rotation[0], _WINDOW)
                comm.recovery_fetch(
                    rotation[0], current.shard.nbytes, detail=f"salvage D{rotation[0]}"
                )
            else:
                current = comm.wait(first)
        comm.alloc("Dcomp", cost.shard_bytes(current.shard))
    software_rma = comm.network.software_rma and p > 1
    # Sender groups differ per rank; under software RMA every rank must
    # participate in the same number of per-step rendezvous, so agree on
    # the global round count (ranks with shorter rotations idle through
    # the tail rounds — they are done, peers are not).
    rounds = len(rotation)
    if software_rma:
        rounds = int((yield comm.allreduce_op(len(rotation), "max", nbytes=8)))
    for s in range(rounds):
        if s < len(rotation):
            target = rotation[s]
            assert current is not None
            request = None
            lost_target = None
            if s + 1 < len(rotation):
                nxt = rotation[s + 1]
                try:
                    request = comm.iget(nxt, _WINDOW)
                except RankFailedError:
                    # next shard's owner died: salvage after this step's
                    # scoring from the surviving holder (see algorithm_a)
                    lost_target = nxt
                comm.alloc("Drecv", int(sorted_bytes[nxt]))
                if not mask and request is not None:
                    comm.wait(request)
            # binary search: queries this shard can serve (m(q) - delta
            # must not exceed the shard's maximum parent mass)
            cutoff = int(
                np.searchsorted(q_masses, max_masses[target] + config.delta, side="right")
            )
            subset = queries_sorted[:cutoff]
            stats = current.run(subset, hitlists)
            totals.merge(stats)
            overhead = cost.query_processing_overhead(stats, len(subset))
            comm.compute(
                cost.iteration_overhead
                + cost.scan_time(current.shard.nbytes)
                + cost.search_evaluation_time(stats, current.scorer)
                + (0.0 if stats.sweep_queries else overhead),
                detail=f"B3 score rank {target}",
            )
            if stats.sweep_queries:
                # sweep bookkeeping is traced separately from compute
                comm.sweep_setup(overhead, detail=f"B3 sweep rank {target}")
            if request is not None:
                current = comm.wait(request)
                comm.alloc("Dcomp", cost.shard_bytes(current.shard))
            elif lost_target is not None:
                current = comm.salvage_window(lost_target, _WINDOW)
                comm.recovery_fetch(
                    lost_target, current.shard.nbytes, detail=f"salvage D{lost_target}"
                )
                comm.alloc("Dcomp", cost.shard_bytes(current.shard))
        if software_rma:
            # see algorithm_a: software one-sided progress rendezvous
            yield comm.rendezvous_op()
    # ensure every query id appears in the output even if no shard served it
    for q in my_queries:
        hitlists.setdefault(q.query_id, TopHitList(config.tau))

    reported = sum(min(len(h), config.tau) for h in hitlists.values())
    comm.compute(cost.report_time(reported), detail="B3 report")

    # B4 (fault-tolerant runs only): commit rendezvous + adoption of dead
    # ranks' query blocks.  The adopter rescans an orphaned block against
    # *every* sorted shard, unpruned — survivors cannot know which sender
    # group the dead rank computed, and extra scans only produce
    # duplicates the merge collapses.
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
            for j in range(p):
                remote = searcher if j == i else comm.salvage_window(j, _WINDOW)
                if j != i:
                    comm.alloc("Drecv", cost.shard_bytes(remote.shard))
                    comm.recovery_fetch(
                        j, remote.shard.nbytes, detail=f"refetch D{j} for Q{failed}"
                    )
                stats = remote.run(block, hitlists)
                comm.recovery_compute(
                    cost.iteration_overhead
                    + cost.scan_time(remote.shard.nbytes)
                    + cost.search_evaluation_time(stats, remote.scorer)
                    + cost.query_processing_overhead(stats, len(block)),
                    detail=f"rescore Q{failed} x D{j}",
                )
                totals.merge(stats)
            for q in block:
                hitlists.setdefault(q.query_id, TopHitList(config.tau))
            adopted_reported = sum(
                min(len(hitlists[q.query_id]), config.tau) for q in block
            )
            comm.recovery_compute(
                cost.report_time(adopted_reported), detail=f"report Q{failed}"
            )
            comm.free("Drecv")
            comm.free("Qadopt")

        yield from run_recovery_rounds(comm, adopt)

    hits = pack_hit_columns(hitlists, hitlists)
    return hits, totals, sorting_time


def run_algorithm_b(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    config: Optional[SearchConfig] = None,
    mask: bool = True,
    cluster_config: Optional[ClusterConfig] = None,
    library: Optional[SpectralLibrary] = None,
) -> SearchReport:
    """Run Algorithm B on the simulated machine and merge rank outputs."""
    config = config or SearchConfig()
    cluster_config = cluster_config or ClusterConfig(num_ranks=num_ranks)
    if cluster_config.num_ranks != num_ranks:
        raise ValueError("cluster_config.num_ranks must match num_ranks")

    shards = partition_database(database, num_ranks)
    query_blocks = partition_queries(queries, num_ranks)

    cluster = SimCluster(cluster_config)
    args = {r: (shards, query_blocks, config, mask, library) for r in range(num_ranks)}
    outcomes, summary = cluster.run(_rank_program, args)

    hits = merge_rank_hits([o.value[0] for o in outcomes], config.tau)
    totals = ShardStats()
    for o in outcomes:
        totals.merge(o.value[1])
    sorting_time = max(o.value[2] for o in outcomes)
    extras = simmpi_extras(
        summary,
        totals=totals,
        fault_tolerant=cluster_config.fault_plan is not None,
        sorting_time=sorting_time,
    )
    return SearchReport(
        algorithm="algorithm_b",
        num_ranks=num_ranks,
        hits=hits,
        candidates_evaluated=totals.candidates_evaluated,
        virtual_time=summary.makespan,
        trace=summary,
        peak_memory={r: cluster.memory[r].peak for r in range(num_ranks)},
        extras=extras,
    )
