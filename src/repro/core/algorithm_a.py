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

The loop of A2, the fault-tolerant commit protocol and the report
assembly are :mod:`repro.core.rotation`'s, shared with Algorithm B.

``mask=False`` runs the ablation the paper measured ("a second version
of the algorithm that does not mask communication with computation"): the
rank waits for each transfer *before* scoring, so every byte of wire time
turns into residual communication.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.partition import partition_database, partition_queries
from repro.core.results import SearchReport
from repro.core.rotation import PassLedger, adopt_orphans, rotate, run_cluster
from repro.core.search import ShardSearcher
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum

#: window name ranks expose their resident shard under
_WINDOW = "Di"


def _rank_program(
    comm: SimComm,
    ledger: PassLedger,
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
    comm.compute(cost.load_time(shard_mem, len(my_queries)), detail="A1 load")
    comm.expose(_WINDOW, my_searcher, my_searcher.shard.nbytes)
    yield comm.barrier_op()  # MPI_Win_fence: all windows exposed

    # A2: p iterations of score-current / prefetch-next around the ring.
    hitlists, totals = yield from rotate(
        comm,
        ledger,
        _WINDOW,
        my_searcher,
        order=[(i + s) % p for s in range(p)],
        sizes=[cost.shard_bytes(s.shard) for s in searchers],
        queries=my_queries,
        config=config,
        phase="A2",
        mask=mask,
    )

    # A3: report the running top-tau lists.
    reported = ledger.reported(hitlists.values(), config.tau)
    comm.compute(cost.report_time(reported), detail="A3 report")

    yield from adopt_orphans(
        comm, ledger, _WINDOW, my_searcher, query_blocks, hitlists, totals, config
    )
    return ledger.columns(hitlists), totals, {}


def run_algorithm_a(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    config: Optional[SearchConfig] = None,
    mask: bool = True,
    cluster_config: Optional[ClusterConfig] = None,
) -> SearchReport:
    """Run Algorithm A on the simulated machine and merge rank outputs."""
    config = config or SearchConfig()
    heaviest = heaviest_parent_mass(queries)
    searchers = [
        ShardSearcher(s, config, max_parent_mass=heaviest)
        for s in partition_database(database, num_ranks)
    ]
    return run_cluster(
        "algorithm_a" if mask else "algorithm_a_nomask",
        _rank_program,
        (searchers, partition_queries(queries, num_ranks), config, mask),
        num_ranks,
        config,
        cluster_config,
    )
