"""Store-served search: the direct search's sweep over a store's rows.

:class:`StreamingSearcher` searches every index store, with the same
``run(queries, hitlists) -> ShardStats`` contract as
:class:`~repro.core.search.ShardSearcher` (so the serial engine, the
multiproc workers and the service scorer drive it unchanged).  Every
store holds the direct search's row table, and the searcher runs the
direct search's :func:`~repro.core.search.sweep_table` over it:

* a store with postings has its table memory-mapped
  (:meth:`~repro.store.index_store.StoredIndex.load_shard`) and swept
  whole; under a scorer with a posting kernel
  (:meth:`~repro.index.fragment_index.FragmentIndex.serves`) its
  unmodified rows inside the index envelope are scored by posting probes,
  every other row directly;
* a *partitioned* store's mass-contiguous partitions are swept one by
  one as a :class:`~repro.store.partitioned.StreamingIndexReader` reads
  the next one ahead — the paper's database transport (shards visit
  resident queries, ``O(N/p)`` held at a time) on one node's disk.

Bitwise identity with the direct search is structural: the rows tile
the database's candidate set, a query's candidates in a row block are
its (PTM-shifted) windows' rows, posting probes are bitwise the direct
kernels' scores, and :class:`~repro.scoring.hits.TopHitList` is
order-independent, so folding partitions in mass order changes neither
the hits nor the per-query ``evaluated`` totals.  A store serves REAL
execution only (:func:`check_store_servable`).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.candidates.generator import mod_targets, modification_tiers
from repro.candidates.mass_index import CandidateSpans, MassIndex
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.search import (
    QueryBlock,
    ShardStats,
    open_pass,
    score_directly,
    sweep_table,
    traced_pass,
)
from repro.errors import IndexCompatError
from repro.index import FragmentIndex
from repro.scoring.base import Scorer
from repro.scoring.hits import TopHitList
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch, flatten_members
from repro.store.partitioned import StreamingIndexReader, StreamStats


def check_store_servable(config: SearchConfig, what: str = "search") -> None:
    """Refuse, typed and up front, what no store serves: a search that
    never scores (MODELED execution) has nothing to open one for.  The
    scorer, variable modifications and the build's fragment tolerance
    are never reasons: rows the postings cannot serve are scored directly
    from the rows, and probes are exact at any tolerance."""
    if config.execution is not ExecutionMode.REAL:
        raise IndexCompatError(
            f"this {what} cannot be served from the index store: modeled "
            f"execution counts candidates without scoring, so a persisted "
            f"index cannot serve it"
        )


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
        *,
        database: Optional[ProteinDatabase] = None,
        memory_budget_mb: Optional[float] = None,
    ):
        self.store = store
        self.config = config
        self.scorer = scorer if scorer is not None else config.make_scorer()
        check_store_servable(config)
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
        self.tiers = modification_tiers(database, config.modifications)
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
        self, queries: Union[QueryBlock, Iterable[Spectrum]], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """One pass (a :func:`~repro.core.search.traced_pass`): every row
        block visited at most once.  ``queries`` is a prepared
        :class:`~repro.core.search.QueryBlock` or any iterable of spectra,
        prepared here.  Telemetry adds the ``stream.*`` family the reader
        emits."""
        return traced_pass("search.stream", self._search, queries, hitlists)

    def _search(
        self, queries: Union[QueryBlock, Iterable[Spectrum]], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """:func:`~repro.core.search.sweep_table` over the mapped table, or
        over each partition the queries' windows (any tier's) meet: the
        members of a partition are the contiguous slice of mass-ordered
        queries whose windows reach its mass range."""
        cfg = self.config
        queries = QueryBlock.prepare(queries, cfg)
        stats = open_pass(queries.queries, hitlists, cfg.tau)
        if not queries:
            return stats
        stats.sweep_queries += len(queries)
        lows, highs = queries.lows, queries.highs
        shifts = [0.0] + [mod.delta_mass for mod, _csum in self.tiers]

        def sweep(table: MassIndex) -> None:
            if len(table) == 0:
                return
            a = min(int(np.searchsorted(highs - d, table.mass[0], side="left")) for d in shifts)
            b = max(int(np.searchsorted(lows - d, table.mass[-1], side="right")) for d in shifts)
            if b <= a:
                return
            t0 = time.perf_counter()
            sweep_table(
                table, queries.slice(a, b), self.tiers, self._score, self.database.ids,
                cfg, hitlists, stats,
            )
            self.score_seconds += time.perf_counter() - t0

        if self.loaded is not None:
            sweep(self.loaded.index.rows)
            return stats
        visit = [
            pid
            for pid, entry in enumerate(self.store.partitions)
            if any(highs[-1] - d >= entry.mass_lo and lows[0] - d <= entry.mass_hi for d in shifts)
        ]
        reader = StreamingIndexReader(self.store, visit, memory_budget_mb=self.memory_budget_mb)
        try:
            for part in reader:
                sweep(MassIndex.view(part.mass, part.key, self.database.offsets))
        finally:
            reader.close()
            self.stream_stats.merge(reader.stats)
        return stats

    def _score(
        self,
        spectra: SpectrumBatch,
        spans: CandidateSpans,
        rows: np.ndarray,
        kept: List[np.ndarray],
    ):
        """Score one block (a :data:`~repro.core.search.BlockScorer`):
        directly from the database, but under a posting-served scorer its
        unmodified rows inside the index envelope by posting probes, the
        two score streams merged back in member-major order."""
        direct = partial(
            score_directly, self.scorer, self.database, mod_targets(self.tiers), spectra
        )
        if self.index is None:
            return direct(spans, rows, kept)
        flat, member = flatten_members(kept)
        served = (self.index.holds(rows) & (spans.mod_delta == 0))[flat]
        if served.all():  # the common case: no row outside the envelope
            scores = self.index.score_block(self.scorer, spectra, [rows[sel] for sel in kept])
            return scores, 0, len(scores)

        def per_member(mask: np.ndarray) -> List[np.ndarray]:
            counts = np.bincount(member[mask], minlength=len(kept))
            return np.split(flat[mask], np.cumsum(counts)[:-1])

        scores = np.empty(len(flat), dtype=np.float64)
        scores[served] = self.index.score_block(
            self.scorer, spectra, [rows[sel] for sel in per_member(served)]
        )
        # the directly scored block positions, renumbered among themselves
        unserved = np.zeros(len(rows), dtype=bool)
        unserved[flat[~served]] = True
        local = np.cumsum(unserved) - 1
        scores[~served], direct_rows, _ = direct(
            spans.take(unserved), rows[unserved], [local[sel] for sel in per_member(~served)]
        )
        return scores, direct_rows, int(served.sum())
