"""Store-served search: one sweep over an index store's mass-sorted rows.

:class:`StreamingSearcher` searches every index store, with the same
``run(queries, hitlists) -> ShardStats`` contract as
:class:`~repro.core.search.ShardSearcher` (so the serial engine, the
multiproc workers, and the service scorer drive it unchanged).  Every
store holds the same row table — every prefix/suffix span of the
database, sorted by mass — and the searcher sweeps it as row blocks:

* a *partitioned* store's rows are its mass-contiguous partitions,
  iterated through a :class:`~repro.store.partitioned.StreamingIndexReader`
  — one partition scored while the next is read ahead.  This is the
  paper's database transport (shards visit resident queries, ``O(N/p)``
  held at a time) applied to one node's disk;
* a store with postings has its row table memory-mapped
  (:meth:`~repro.store.index_store.StoredIndex.load_shard`), swept as
  one block.  Under a scorer with a posting kernel
  (:meth:`~repro.index.fragment_index.FragmentIndex.serves`), the rows
  inside the index envelope are scored by posting probes and the rest
  directly; every other scorer scores every row directly.

Bitwise identity with the direct search is structural:

* The rows tile the mass-sorted span set of the whole database; a
  query's candidate set inside a row block is the same inclusive
  ``[m - delta, m + delta]`` mass window the
  :class:`~repro.candidates.mass_index.MassIndex` enumeration selects,
  recovered by two ``searchsorted`` calls on the block's mass column.
  Unioned over blocks, every query sees exactly the direct candidate set.
* Scores come from the very same kernels: a block's union of directly
  scored rows is one :class:`~repro.candidates.batch.CandidateBatch`
  scored with ``block_scores``, and posting probes are bitwise those
  kernels' scores.
* :class:`~repro.scoring.hits.TopHitList` is order-independent, so
  folding blocks in mass order instead of one whole-database batch
  cannot change the retained hits; per-query ``evaluated`` totals match
  because shorts, cutoff failures, and offers are counted per block
  and sum to the direct per-query counts.

A store serves a strict subset of configurations — REAL execution and no
variable modifications (PTM tiers are generated from the database, not
the store's rows) — see :func:`index_compat_problems`.  Violations raise
a typed :class:`~repro.errors.IndexCompatError` up front, never silently
degraded results.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.candidates.mass_index import CandidateSpans, SweepPlan
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.search import ShardStats, record_shard_pass, score_and_offer_block
from repro.errors import IndexCompatError
from repro.index import FragmentIndex
from repro.obs.metrics import NULL_SPAN, get_metrics
from repro.scoring.base import Scorer, block_scores
from repro.scoring.hits import TopHitList
from repro.spectra.binning import _ragged_arange
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import flatten_members
from repro.store.partitioned import StreamingIndexReader, StreamStats


def index_compat_problems(config: SearchConfig) -> List[str]:
    """Configuration contradictions that make an index store unusable.

    Returns human-readable problems (empty == servable).  A search that
    never scores has nothing to open a store for, and variable
    modifications need PTM candidate tiers enumerated from the database
    residues, which a store's rows are not.  The scorer is deliberately
    NOT a problem — one the postings cannot serve is scored directly
    from the rows — and neither is a store built at a different fragment
    tolerance: probes are exact at any tolerance, so results stay
    bitwise identical.
    """
    problems = []
    if config.execution is not ExecutionMode.REAL:
        problems.append(
            "modeled execution counts candidates without scoring, so a "
            "persisted index cannot serve it"
        )
    if config.modifications:
        problems.append(
            "variable modifications require database-resident candidate "
            "generation; a store (resident or streamed) serves unmodified "
            "searches only"
        )
    return problems


class StreamingSearcher:
    """Searches queries by sweeping an index store's mass-sorted rows.

    Drop-in for :class:`~repro.core.search.ShardSearcher` at the engine
    seam: ``run(queries, hitlists)`` returns merged
    :class:`~repro.core.search.ShardStats`.  ``store`` is a
    :class:`~repro.store.index_store.StoredIndex`: a partitioned one's
    pass reads only the partitions its queries' mass windows meet, in
    mass order; one with postings is mapped once here (a
    ``memory_budget_mb`` is refused by its ``load_shard``).

    With ``database`` given the store is validated against it and its
    rows are scored from it; otherwise from the store's own mapped
    ``database/`` section.
    """

    def __init__(
        self,
        store,
        config: SearchConfig,
        scorer: Optional[Scorer] = None,
        library: Optional[SpectralLibrary] = None,
        *,
        database: Optional[ProteinDatabase] = None,
        memory_budget_mb: Optional[float] = None,
    ):
        self.store = store
        self.config = config
        self.scorer = scorer if scorer is not None else config.make_scorer(library)
        problems = index_compat_problems(config)
        if problems:
            raise IndexCompatError(
                "this search cannot be served from the index store: "
                + "; ".join(problems)
            )
        if database is not None:
            store.validate_against(database)
        self.loaded = (
            None if store.partitioned else store.load_shard(memory_budget_mb=memory_budget_mb)
        )
        if database is None:
            database = (
                self.loaded.database if self.loaded is not None else store.load_database()
            )
        self.database = database
        # the postings serve only a scorer with a posting kernel
        self.index = (
            self.loaded.index
            if self.loaded is not None and FragmentIndex.serves(self.scorer)
            else None
        )
        self.memory_budget_mb = memory_budget_mb
        self.stream_stats = StreamStats()
        self.score_seconds = 0.0

    @property
    def nbytes(self) -> int:
        """Resident bytes this searcher needs.

        A store with postings: everything it maps.  A partitioned one:
        the out-of-core claim in one number — independent of total store
        size, two partitions of rows plus the database buffers.
        """
        if self.loaded is not None:
            return int(self.loaded.nbytes)
        return int(2 * self.store.max_partition_bytes + self.database.nbytes)

    # -- the pass ----------------------------------------------------------

    def run(
        self, queries: Iterable[Spectrum], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """One pass: every row block visited at most once.

        Telemetry mirrors :meth:`ShardSearcher.run` (same counter names
        plus the ``stream.*`` family the reader emits), and is never an
        input to scoring.
        """
        obs = get_metrics()
        if not obs.enabled:
            return self._search(list(queries), hitlists)
        with obs.span("search.stream", category="search"):
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
        # mass-sorted query order: each row block is visited once, by a
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

        def sweep(rows: CandidateSpans) -> None:
            if len(rows) == 0:
                return
            # windows sorted (shared delta): members form one slice
            a = int(np.searchsorted(highs, rows.mass[0], side="left"))
            b = int(np.searchsorted(lows, rows.mass[-1], side="right"))
            if b <= a:
                return
            t0 = time.perf_counter()
            self._offer_ranges(
                queries,
                order[a:b],
                np.searchsorted(rows.mass, lows[a:b], side="left"),
                np.searchsorted(rows.mass, highs[a:b], side="right"),
                rows.lengths,
                *self._row_scoring(rows),
                hitlists,
                stats,
                obs,
            )
            self.score_seconds += time.perf_counter() - t0

        if self.loaded is not None:
            sweep(self.loaded.index.rows)
            return stats
        visit = [
            pid
            for pid, entry in enumerate(self.store.partitions)
            if highs[-1] >= entry.mass_lo and lows[0] <= entry.mass_hi
        ]
        reader = StreamingIndexReader(self.store, visit, memory_budget_mb=self.memory_budget_mb)
        try:
            for part in reader:
                sweep(part.spans)
        finally:
            reader.close()
            self.stream_stats.merge(reader.stats)
        return stats

    def _row_scoring(self, rows: CandidateSpans):
        """The ``(score, columns)`` pair for a row block of the store.

        What :func:`~repro.core.search.score_and_offer_block` needs to
        score and emit rows of ``rows``.  A block's directly scored rows
        are materialized as one shared
        :class:`~repro.candidates.batch.CandidateBatch` against the
        database and scored with ``block_scores``; under a posting-served
        scorer, the rows the index holds are probed instead and the two
        score streams merged back in row order.  Protein ids come from
        the database buffers.
        """
        db = self.database
        scorer = self.scorer
        index = self.index

        def direct(spectra, kept):
            union = np.unique(np.concatenate(kept))
            batch = CandidateBatch.from_spans(db, rows.take(union), {})
            local = [np.searchsorted(union, sel) for sel in kept]
            return block_scores(scorer, spectra, batch, local)

        def score(spectra, kept):
            if index is None:
                scores = direct(spectra, kept)
                return scores, len(scores), 0
            flat, member = flatten_members(kept)
            held = index.holds(flat)
            if held.all():  # the common case: no row outside the envelope
                scores = index.score_block(scorer, spectra, kept)
                return scores, 0, len(scores)

            def per_member(mask: np.ndarray) -> List[np.ndarray]:
                counts = np.bincount(member[mask], minlength=len(kept))
                return np.split(flat[mask], np.cumsum(counts)[:-1])

            scores = np.empty(len(flat), dtype=np.float64)
            scores[held] = index.score_block(scorer, spectra, per_member(held))
            scores[~held] = direct(spectra, per_member(~held))
            num_held = int(held.sum())
            return scores, len(flat) - num_held, num_held

        def columns(sel):
            return (
                db.ids[rows.seq_index[sel]],
                rows.start[sel],
                rows.stop[sel],
                rows.mass[sel],
                rows.mod_delta[sel],
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

        The direct sweep's blocks (:class:`SweepPlan`, filters, scoring
        call and top-tau emit shared through
        :func:`~repro.core.search.score_and_offer_block`) without its
        runs: member ``j`` owns rows ``[r_lo[j], r_hi[j])`` of a row
        block, no union block is enumerated, so every member is a run of
        its own and a block is simply the next ``sweep_cohort`` members.
        ``obs`` is the metrics registry of a traced pass, else ``None``.
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
