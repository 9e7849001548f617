"""X!!Tandem-like baseline: replicated database, tryptic prefilter, fast score.

The paper positions X!!Tandem (Bjornson et al. 2008) as the fast-but-
coarse alternative: "the drastic savings in its run-time is because the
algorithm internally uses a fairly simple, fast statistical model, and
an aggressive prefiltering step that could miss true predictions"
(Section I.A).  This engine reproduces that trade-off:

* candidates come from a :class:`~repro.candidates.tryptic.TrypticIndex`
  — only tryptic peptides, orders of magnitude fewer than the paper's
  exhaustive prefix/suffix enumeration, and blind to any target peptide
  whose observed mass is not that of a clean tryptic fragment;
* scoring uses the cheap X!Tandem hyperscore;
* parallelization is X!!Tandem's multi-processing model: a static m/p
  query split with the whole database replicated per rank (O(N) space —
  it shares the master-worker baseline's memory wall).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.candidates.tryptic import TrypticIndex
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.partition import partition_queries
from repro.core.results import SearchReport
from repro.core.rotation import PassLedger, run_cluster
from repro.core.search import ShardStats
from repro.scoring.base import block_scores
from repro.scoring.hits import TopHitList, pack_hit_columns
from repro.scoring.hyperscore import HyperScorer
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch


def _search_tryptic(
    index: TrypticIndex,
    queries: Sequence[Spectrum],
    config: SearchConfig,
    scorer: HyperScorer,
    hitlists: Dict[int, TopHitList],
    parent_tolerance: float,
) -> int:
    """Score tryptic candidates for each query; returns evaluations.

    A query's candidates are scored as one block against a cohort of
    one (:func:`~repro.scoring.base.block_scores`) and offered to its
    list as one batch.
    """
    database = index.database
    evaluated = 0
    modeled = config.execution is ExecutionMode.MODELED
    for spectrum in queries:
        hitlist = hitlists.setdefault(spectrum.query_id, TopHitList(config.tau))
        lo = spectrum.parent_mass - parent_tolerance
        hi = spectrum.parent_mass + parent_tolerance
        if modeled:
            count = index.count_in_window(lo, hi)
            evaluated += count
            hitlist.evaluated += count
            continue
        spans = index.candidates_in_window(lo, hi)
        evaluated += len(spans)
        batch = CandidateBatch.from_spans(database, spans)
        hitlist.add_batch(
            spectrum.query_id,
            block_scores(scorer, SpectrumBatch([spectrum]), batch, [np.arange(len(batch))]),
            database.ids[spans.seq_index],
            spans.start,
            spans.stop,
            spans.mass,
            spans.mod_delta,
        )
    return evaluated


def _rank_program(
    comm: SimComm,
    _ledger: PassLedger,  # unused: each rank scores its queries in place
    index: TrypticIndex,
    my_queries: List[Spectrum],
    config: SearchConfig,
    scorer: HyperScorer,
    parent_tolerance: float,
):
    cost = config.cost
    db_mem = cost.shard_bytes(index.database)
    comm.alloc("D", db_mem)  # full replication: the O(N) wall
    comm.alloc("Qi", sum(q.nbytes for q in my_queries))
    comm.compute(cost.load_time(db_mem, len(my_queries)), detail="load+digest")
    yield comm.barrier_op()

    hitlists: Dict[int, TopHitList] = {}
    evaluated = _search_tryptic(index, my_queries, config, scorer, hitlists, parent_tolerance)
    comm.compute(
        cost.evaluation_time(evaluated, scorer) + cost.query_overhead * len(my_queries),
        detail="score",
    )
    reported = sum(min(len(h), config.tau) for h in hitlists.values())
    comm.compute(cost.report_time(reported), detail="report")
    return pack_hit_columns(hitlists, hitlists), ShardStats(candidates_evaluated=evaluated), {}


def run_xbang(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_ranks: int,
    config: Optional[SearchConfig] = None,
    missed_cleavages: int = 1,
    parent_tolerance: float = 0.5,
    cluster_config: Optional[ClusterConfig] = None,
) -> SearchReport:
    """Run the X!!Tandem-like engine.

    The configured scorer is overridden by the hyperscore and the parent
    window by ``parent_tolerance`` — both *are* the engine: X!Tandem-era
    defaults pair a tight precursor window with a cheap score, which is
    where the "under 2 minutes" speed (and the missed non-tryptic /
    mass-shifted identifications) comes from.  tau and the fragment
    tolerance follow ``config`` so quality comparisons stay aligned.
    """
    config = config or SearchConfig()
    scorer = HyperScorer(config.fragment_tolerance)
    index = TrypticIndex(
        database,
        missed_cleavages=missed_cleavages,
        min_length=config.min_candidate_length,
    )
    query_blocks = partition_queries(queries, num_ranks)
    return run_cluster(
        "xbang",
        _rank_program,
        {r: (index, query_blocks[r], config, scorer, parent_tolerance) for r in range(num_ranks)},
        num_ranks,
        config,
        cluster_config,
        rank_totals=False,
        tryptic_peptides=len(index),
        parent_tolerance=parent_tolerance,
    )
