"""Streamed out-of-core search over a partitioned index store.

:class:`StreamingSearcher` is the out-of-core counterpart of
:class:`~repro.core.search.ShardSearcher`: same ``run(queries,
hitlists) -> ShardStats`` contract (so the serial engine, the multiproc
workers, and the service workers drive it unchanged), but instead of
holding a whole shard's fragment index resident it iterates the store's
mass-contiguous partitions through a
:class:`~repro.store.partitioned.StreamingIndexReader` — one partition
decoded and scored while the next is prefetched.

Bitwise identity with the resident path is structural:

* Partitions tile the precursor-major row order; a query's candidate
  set inside a partition is the same inclusive ``[m - delta, m + delta]``
  mass window the :class:`~repro.candidates.mass_index.MassIndex`
  enumeration selects, recovered by two ``searchsorted`` calls on the
  partition's ``row_mass`` column.  Unioned over partitions plus the
  overflow blob (spans outside the index envelope), every query sees
  exactly the resident candidate set.
* A partition's rows and the overflow blob are both mass-sorted
  :class:`~repro.candidates.mass_index.CandidateSpans` of the store's
  database, and scores come from the very same kernels: one posting
  probe per block (``index.score_block``) over a partition whose
  postings serve the scorer, the direct
  :class:`~repro.candidates.batch.CandidateBatch` path
  (``block_scores``) for everything else — overflow spans always, and
  every partition's rows under a scorer the postings cannot serve.
* :class:`~repro.scoring.hits.TopHitList` is order-independent, so
  folding partitions in mass order instead of one whole-shard batch
  cannot change the retained hits; per-query ``evaluated`` totals match
  because shorts, cutoff failures, and offers are counted per partition
  and sum to the resident per-query counts.

Streaming serves a strict subset of configurations — REAL execution
and no variable modifications (PTM tiers are generated from the
database, not the index; the resident path routes them through the
direct batch, but out-of-core their enumeration would re-read the whole
database per query).  Violations raise a typed
:class:`~repro.errors.IndexCompatError` up front, never silently
degraded results.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.index import FragmentIndex
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
    """Searches queries by streaming a partitioned store's m/z shards.

    Drop-in for :class:`~repro.core.search.ShardSearcher` at the engine
    seam: ``run(queries, hitlists)`` returns merged
    :class:`~repro.core.search.ShardStats`.  ``partition_range``
    restricts the pass to a contiguous ``[lo, hi)`` slice of partition
    ids — how multiproc workers split one store into disjoint streams —
    and ``own_overflow`` says whether this searcher also scores the
    out-of-envelope span blob (exactly one owner per store, or hits
    would duplicate).  Under a scorer the partitions' postings cannot
    serve (``FragmentIndex.serves``) the pass is the same budgeted walk
    over the same ranges, each partition's rows scored directly.

    A pass decodes only what its scorer reads: the ``row_*`` columns
    plus the one posting list the scorer's ``index_list`` names (none
    for a directly scored one) — ``lists`` says which.
    """

    def __init__(
        self,
        store: PartitionedIndex,
        config: SearchConfig,
        scorer: Optional[Scorer] = None,
        library: Optional[SpectralLibrary] = None,
        *,
        database: Optional[ProteinDatabase] = None,
        partition_range: Optional[Tuple[int, int]] = None,
        own_overflow: Optional[bool] = None,
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
        if partition_range is None:
            partition_range = (0, store.num_partitions)
        lo, hi = int(partition_range[0]), int(partition_range[1])
        if not (0 <= lo <= hi <= store.num_partitions):
            raise IndexCompatError(
                f"partition_range {partition_range} is outside the store's "
                f"{store.num_partitions} partitions"
            )
        self.partition_range = (lo, hi)
        # overflow has exactly one owner: by default the range holding
        # partition 0 (or, for an empty store, the full-range searcher)
        self.own_overflow = (
            own_overflow
            if own_overflow is not None
            else lo == 0
        )
        self.memory_budget_mb = memory_budget_mb
        self.prefetch = prefetch
        self.stream_stats = StreamStats()
        self.score_seconds = 0.0
        self.lists = FragmentIndex.lists_for(self.scorer)

    @property
    def nbytes(self) -> int:
        """Resident bytes this searcher needs: directory + double buffer.

        The out-of-core claim in one number — independent of total store
        size, it is two partitions (blob + the sections this scorer
        reads) plus the mmapped database buffers.
        """
        return int(
            2 * self.store.max_visit_bytes(self.lists) + self.database.nbytes
        )

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
            "search.stream",
            category="search",
            partitions=self.partition_range[1] - self.partition_range[0],
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

        lo, hi = self.partition_range
        entries = self.store.partitions
        visit = [
            pid
            for pid in range(lo, hi)
            if entries[pid].num_rows
            and highs[-1] >= entries[pid].mass_lo
            and lows[0] <= entries[pid].mass_hi
        ]
        reader = StreamingIndexReader(
            self.store,
            visit,
            lists=self.lists,
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
                    part.index,
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
        if self.own_overflow:
            t0 = time.perf_counter()
            self._score_overflow(queries, order, lows, highs, hitlists, stats, obs)
            self.score_seconds += time.perf_counter() - t0
        return stats

    def _score_partition(
        self,
        index,
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
        windows), served by one flat posting probe per block — or, for a
        scorer the postings cannot serve, scored directly like overflow
        spans.
        """
        arrays = index.arrays
        spans = CandidateSpans(
            arrays["row_seq"],
            arrays["row_start"],
            arrays["row_stop"],
            arrays["row_mass"],
            np.zeros(index.num_rows, dtype=np.float64),
        )
        score, columns = self._span_scoring(spans, index if self.lists else None)
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

    def _score_overflow(
        self,
        queries: List[Spectrum],
        order: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
        hitlists: Dict[int, TopHitList],
        stats: ShardStats,
        obs,
    ) -> None:
        """Direct-path scoring of the out-of-envelope spans.

        Exactly the resident searcher's overflow stream: spans the index
        cannot hold (mass-sorted in the overflow blob, so a member's are
        again one range) get bitwise the scores the resident index's
        ``row == -1`` spans get.
        """
        spans = self.store.load_overflow()
        if len(spans) == 0:
            return
        score, columns = self._span_scoring(spans, None)
        o_lo = np.searchsorted(spans.mass, lows, side="left")
        o_hi = np.searchsorted(spans.mass, highs, side="right")
        hit = np.flatnonzero(o_hi > o_lo)  # few windows reach an overflow span
        self._offer_ranges(
            queries,
            order[hit],
            o_lo[hit],
            o_hi[hit],
            spans.lengths,
            score,
            columns,
            hitlists,
            stats,
            obs,
        )

    def _span_scoring(self, spans: CandidateSpans, index):
        """The ``(score, columns)`` pair for spans out of the store's database.

        What :func:`~repro.core.search.score_and_offer_block` needs to
        score and emit positions of ``spans`` (a partition's rows, or the
        overflow blob).  With ``index`` — the partition's posting view,
        whose row ``r`` is ``spans[r]`` — a block is one posting probe;
        without, its union of spans is materialized as one shared
        :class:`~repro.candidates.batch.CandidateBatch` against the
        database and scored with ``block_scores``.  Protein ids always
        come from the database buffers.
        """
        db = self.database
        scorer = self.scorer

        if index is not None:

            def score(spectra, kept):
                scores = index.score_block(scorer, spectra, kept)
                return scores, 0, len(scores)

        else:

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
        partition (or of the overflow spans), no union block is
        enumerated, so every member is a run of its own and a block is
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


def split_partition_ranges(
    num_partitions: int, num_workers: int
) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``[lo, hi)`` partition ranges for workers.

    Every partition is owned by exactly one range; empty ranges are
    possible when workers outnumber partitions (their searchers stream
    nothing but may still own overflow if they hold range start 0).
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    base = num_partitions // num_workers
    extra = num_partitions % num_workers
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for w in range(num_workers):
        size = base + (1 if w < extra else 0)
        ranges.append((lo, lo + size))
        lo += size
    return ranges
