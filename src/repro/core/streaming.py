"""Streamed out-of-core search over a partitioned store.

:class:`StreamingSearcher` is the out-of-core counterpart of
:class:`~repro.core.search.ShardSearcher`: same ``run(queries,
hitlists) -> ShardStats`` contract (so the serial engine, the multiproc
workers, and the service workers drive it unchanged), but instead of
holding a whole shard's mass index resident it iterates the store's
mass-contiguous partitions through a
:class:`~repro.store.partitioned.StreamingIndexReader` — one partition
decoded and scored while the next is prefetched.  This is the paper's
database transport (shards visit resident queries, ``O(N/p)`` held at a
time) applied to one node's disk; nothing is indexed, every scorer
scores a partition's rows directly.

Bitwise identity with the direct search is structural:

* Partitions tile the mass-sorted span set of the whole database; a
  query's candidate set inside a partition is the same inclusive
  ``[m - delta, m + delta]`` mass window the
  :class:`~repro.candidates.mass_index.MassIndex` enumeration selects,
  recovered by two ``searchsorted`` calls on the partition's mass
  column.  Unioned over partitions, every query sees exactly the direct
  candidate set.
* A partition's rows are mass-sorted
  :class:`~repro.candidates.mass_index.CandidateSpans` of the store's
  database, and scores come from the very same kernels: a block's union
  of rows is one :class:`~repro.candidates.batch.CandidateBatch` scored
  with ``block_scores``.
* :class:`~repro.scoring.hits.TopHitList` is order-independent, so
  folding partitions in mass order instead of one whole-shard batch
  cannot change the retained hits; per-query ``evaluated`` totals match
  because shorts, cutoff failures, and offers are counted per partition
  and sum to the direct per-query counts.

Streaming serves a strict subset of configurations — REAL execution
and no variable modifications (PTM tiers are generated from the
database, not the store; out-of-core their enumeration would re-read
the whole database per query).  Violations raise a typed
:class:`~repro.errors.IndexCompatError` up front, never silently
degraded results.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.candidates.mass_index import CandidateSpans, SweepPlan
from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.search import (
    ShardStats,
    index_compat_problems,
    record_shard_pass,
    score_and_offer_block,
)
from repro.errors import IndexCompatError
from repro.obs.metrics import NULL_SPAN, get_metrics
from repro.scoring.base import Scorer, block_scores
from repro.scoring.hits import TopHitList
from repro.spectra.binning import _ragged_arange
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum
from repro.store.partitioned import (
    PartitionedIndex,
    StreamingIndexReader,
    StreamStats,
)


def streaming_compat_problems(config: SearchConfig) -> List[str]:
    """Configuration contradictions that make streamed search unusable.

    Everything :func:`~repro.core.search.index_compat_problems` rejects,
    plus variable modifications: PTM candidate tiers are enumerated from
    the database residues, which an out-of-core pass does not hold.
    """
    problems = index_compat_problems(config)
    if config.modifications:
        problems.append(
            "variable modifications require database-resident candidate "
            "generation; streamed search serves unmodified searches only"
        )
    return problems


class StreamingSearcher:
    """Searches queries by streaming a partitioned store's mass partitions.

    Drop-in for :class:`~repro.core.search.ShardSearcher` at the engine
    seam: ``run(queries, hitlists)`` returns merged
    :class:`~repro.core.search.ShardStats`.  A pass opens only the
    partitions its queries' mass windows meet, in mass order, and scores
    each one's rows directly under any scorer.
    """

    def __init__(
        self,
        store: PartitionedIndex,
        config: SearchConfig,
        scorer: Optional[Scorer] = None,
        library: Optional[SpectralLibrary] = None,
        *,
        database: Optional[ProteinDatabase] = None,
        memory_budget_mb: Optional[float] = None,
        prefetch: bool = True,
    ):
        self.store = store
        self.config = config
        self.scorer = scorer if scorer is not None else config.make_scorer(library)
        problems = streaming_compat_problems(config)
        if problems:
            raise IndexCompatError(
                "this search cannot be streamed from the partitioned index: "
                + "; ".join(problems)
            )
        self.database = database if database is not None else store.load_database()
        self.memory_budget_mb = memory_budget_mb
        self.prefetch = prefetch
        self.stream_stats = StreamStats()
        self.score_seconds = 0.0

    @property
    def nbytes(self) -> int:
        """Resident bytes this searcher needs: directory + double buffer.

        The out-of-core claim in one number — independent of total store
        size, it is two partitions (blob + decoded rows) plus the mmapped
        database buffers.
        """
        return int(2 * self.store.max_partition_bytes + self.database.nbytes)

    # -- the pass ----------------------------------------------------------

    def run(
        self, queries: Iterable[Spectrum], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """One streamed pass: every partition visited at most once.

        Telemetry mirrors :meth:`ShardSearcher.run` (same counter names
        plus the ``stream.*`` family the reader emits), and is never an
        input to scoring.
        """
        obs = get_metrics()
        if not obs.enabled:
            return self._search(list(queries), hitlists)
        with obs.span(
            "search.stream", category="search", partitions=self.store.num_partitions
        ):
            stats = self._search(list(queries), hitlists)
        record_shard_pass(obs, stats)
        return stats

    def _search(
        self, queries: List[Spectrum], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        stats = ShardStats()
        cfg = self.config
        for spectrum in queries:
            if spectrum.query_id not in hitlists:
                hitlists[spectrum.query_id] = TopHitList(cfg.tau)
        stats.queries_processed += len(queries)
        if not queries:
            return stats
        stats.sweep_queries += len(queries)
        # a traced pass hands its registry down to the block loops; an
        # untraced one pays this one attribute test
        obs = get_metrics()
        if not obs.enabled:
            obs = None
        # mass-sorted query order: each partition is visited once, by a
        # contiguous slice of queries whose windows intersect its range
        with (
            obs.span("sweep.plan", category="search", queries=len(queries))
            if obs is not None
            else NULL_SPAN
        ):
            masses = np.array([q.parent_mass for q in queries], dtype=np.float64)
            order = np.argsort(masses, kind="stable")
            lows = masses[order] - cfg.delta
            highs = masses[order] + cfg.delta

        visit = [
            pid
            for pid, entry in enumerate(self.store.partitions)
            if highs[-1] >= entry.mass_lo and lows[0] <= entry.mass_hi
        ]
        reader = StreamingIndexReader(
            self.store,
            visit,
            memory_budget_mb=self.memory_budget_mb,
            prefetch=self.prefetch,
        )
        try:
            for part in reader:
                entry = part.entry
                # windows sorted (shared delta): members form one slice
                a = int(np.searchsorted(highs, entry.mass_lo, side="left"))
                b = int(np.searchsorted(lows, entry.mass_hi, side="right"))
                if b <= a:
                    continue
                t0 = time.perf_counter()
                self._score_partition(
                    part.spans,
                    queries,
                    order[a:b],
                    lows[a:b],
                    highs[a:b],
                    hitlists,
                    stats,
                    obs,
                )
                self.score_seconds += time.perf_counter() - t0
        finally:
            reader.close()
            self.stream_stats.merge(reader.stats)
        return stats

    def _score_partition(
        self,
        spans: CandidateSpans,
        queries: List[Spectrum],
        members: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        hitlists: Dict[int, TopHitList],
        stats: ShardStats,
        obs,
    ) -> None:
        """Score one decoded partition for its member queries.

        A member's candidates are an integer row range of the partition
        (inclusive ``[m - delta, m + delta]``, matching MassIndex
        windows).
        """
        score, columns = self._span_scoring(spans)
        self._offer_ranges(
            queries,
            members,
            np.searchsorted(spans.mass, lows, side="left"),
            np.searchsorted(spans.mass, highs, side="right"),
            spans.lengths,
            score,
            columns,
            hitlists,
            stats,
            obs,
        )

    def _span_scoring(self, spans: CandidateSpans):
        """The ``(score, columns)`` pair for spans out of the store's database.

        What :func:`~repro.core.search.score_and_offer_block` needs to
        score and emit positions of ``spans`` (a partition's rows): a
        block's union of spans is materialized as one shared
        :class:`~repro.candidates.batch.CandidateBatch` against the
        database and scored with ``block_scores``.  Protein ids come
        from the database buffers.
        """
        db = self.database
        scorer = self.scorer

        def score(spectra, kept):
            union = np.unique(np.concatenate(kept))
            batch = CandidateBatch.from_spans(db, spans.take(union), {})
            local = [np.searchsorted(union, sel) for sel in kept]
            scores = block_scores(scorer, spectra, batch, local)
            return scores, len(scores), 0

        def columns(sel):
            return (
                db.ids[spans.seq_index[sel]],
                spans.start[sel],
                spans.stop[sel],
                spans.mass[sel],
                spans.mod_delta[sel],
            )

        return score, columns

    def _offer_ranges(
        self,
        queries: List[Spectrum],
        members: np.ndarray,
        r_lo: np.ndarray,
        r_hi: np.ndarray,
        lengths: np.ndarray,
        score,
        columns,
        hitlists: Dict[int, TopHitList],
        stats: ShardStats,
        obs,
    ) -> None:
        """Block-packed scoring of members that each own a row range.

        The resident sweep's blocks (:class:`SweepPlan`, filters, scoring
        call and top-tau emit shared through
        :func:`~repro.core.search.score_and_offer_block`) without its
        runs: member ``j`` owns rows ``[r_lo[j], r_hi[j])`` of a
        partition, no union block is enumerated, so every member is a run of its own and a block is
        simply the next ``sweep_cohort`` members.  ``obs`` is the
        metrics registry of a traced pass, else ``None``.
        """
        plan = SweepPlan.pack(np.arange(len(members) + 1), self.config.sweep_cohort)
        stats.sweep_cohorts += plan.num_blocks
        for a, b, _r0, _r1 in plan.blocks():
            sizes = r_hi[a:b] - r_lo[a:b]
            rows = _ragged_arange(r_lo[a:b], sizes)
            span = (
                obs.span(
                    "sweep.block", category="search",
                    members=b - a, runs=b - a, rows=len(rows),
                )
                if obs is not None
                else NULL_SPAN
            )
            with span:
                score_and_offer_block(
                    self.config,
                    stats,
                    hitlists,
                    [queries[int(q)] for q in members[a:b]],
                    rows,
                    np.repeat(np.arange(b - a, dtype=np.int64), sizes),
                    lengths[rows],
                    score,
                    columns,
                )
