"""The shared per-shard search kernel.

Every algorithm in this library — serial reference, master-worker
baseline, Algorithms A and B, the X!!Tandem-like prefilter engine — runs
queries against database shards through :class:`ShardSearcher`, the
direct path.  A search served from an index store runs
:class:`~repro.core.streaming.StreamingSearcher` over the store's rows
instead, through the same block filter, scoring call and top-tau emit
(:func:`score_and_offer_block`).  Keeping one kernel guarantees the
paper's validation property by construction: whatever order shards and
queries are processed in, the same (query, candidate) pairs receive the
same scores, and the deterministic top-tau list makes the final output
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.candidates.generator import CandidateGenerator
from repro.candidates.mass_index import CandidateSpans, plan_sweep
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.obs.metrics import NULL_SPAN, get_metrics
from repro.scoring.base import Scorer, block_scores
from repro.scoring.hits import HitTable, TopHitList, best_first_order, pack_hit_columns
from repro.spectra.binning import _ragged_arange
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch


@dataclass
class ShardStats:
    """Work counters from searching one shard (feeds the cost model).

    ``rows_scored`` counts scorer evaluation rows, which exceeds
    ``candidates_evaluated`` when variable PTMs expand candidates into
    one row per admissible site; ``batches`` counts vectorized scoring
    calls (one per non-empty block).  ``index_rows`` counts the subset
    of rows served by posting probes of a fragment-ion index (0 for a
    scorer the postings cannot serve, store or no store),
    and ``index_load_time`` accumulates real (wall-clock) seconds spent
    opening persisted index stores (``repro.store``) — engines add it
    when they load one.  ``sweep_queries``/``sweep_cohorts``
    count the queries a REAL pass scored and the scoring blocks they were
    packed into (up to ``sweep_cohort`` members each, overlapping windows
    or not); both stay 0 in MODELED execution, which counts candidates
    without scoring them.
    """

    candidates_evaluated: int = 0
    queries_processed: int = 0
    batches: int = 0
    rows_scored: int = 0
    index_rows: int = 0
    index_load_time: float = 0.0
    sweep_queries: int = 0
    sweep_cohorts: int = 0

    def merge(self, other: "ShardStats") -> None:
        self.candidates_evaluated += other.candidates_evaluated
        self.queries_processed += other.queries_processed
        self.batches += other.batches
        self.rows_scored += other.rows_scored
        self.index_rows += other.index_rows
        self.index_load_time += other.index_load_time
        self.sweep_queries += other.sweep_queries
        self.sweep_cohorts += other.sweep_cohorts


def record_shard_pass(obs, stats: ShardStats) -> None:
    """Work counters of one finished shard pass, resident or streamed."""
    obs.count("search.queries", stats.queries_processed)
    obs.count("search.candidates", stats.candidates_evaluated)
    obs.count("search.batches", stats.batches)
    obs.count("search.rows_scored", stats.rows_scored)
    obs.count("search.index_rows", stats.index_rows)
    if stats.sweep_queries:
        obs.count("sweep.queries", stats.sweep_queries)
        obs.count("sweep.cohorts", stats.sweep_cohorts)
    if stats.queries_processed:
        obs.observe(
            "search.candidates_per_query",
            stats.candidates_evaluated / stats.queries_processed,
            buckets=(10.0, 100.0, 1_000.0, 10_000.0, 100_000.0),
        )


def score_and_offer_block(
    cfg: SearchConfig,
    stats: ShardStats,
    hitlists: Dict[int, TopHitList],
    members: Sequence[Spectrum],
    sel: np.ndarray,
    mem: np.ndarray,
    lengths: np.ndarray,
    score: Callable[[SpectrumBatch, List[np.ndarray]], Tuple[np.ndarray, int, int]],
    columns: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
) -> None:
    """Filter, score and emit one sweep block (resident or streamed).

    ``sel`` lists the block's candidates member-major — whatever ids the
    caller's ``score`` and ``columns`` understand: positions in a span
    block, or rows of a store's row block — ``mem`` (non-decreasing) the member
    owning each and ``lengths`` its residue count.  ``score(spectra,
    kept)`` returns ``(member-major scores, direct_rows, index_rows)`` for
    the per-member lists of candidates that passed the length floor;
    ``columns(sel)`` returns their ``(protein id, start, stop, mass,
    mod_delta)`` columns.  This is the one place the length floor, the
    ``evaluated`` accounting (a skipped candidate was still offered), the
    score cutoff and the top-tau emit are written.
    """
    stats.candidates_evaluated += len(sel)
    if len(sel) == 0:
        return
    num_members = len(members)
    lists = [hitlists[q.query_id] for q in members]

    def count_skipped(owners: np.ndarray) -> None:
        # skipped candidates were still offered: they count as evaluated
        for k, n in enumerate(np.bincount(owners, minlength=num_members).tolist()):
            if n:
                lists[k].evaluated += n

    ok = lengths >= cfg.min_candidate_length
    if not ok.all():
        count_skipped(mem[~ok])
        sel = sel[ok]
        mem = mem[ok]
        if len(sel) == 0:
            return
    counts = np.bincount(mem, minlength=num_members)
    scores, direct_rows, index_rows = score(
        SpectrumBatch(members), np.split(sel, np.cumsum(counts)[:-1])
    )
    stats.batches += 1
    stats.rows_scored += direct_rows + index_rows
    stats.index_rows += index_rows
    if cfg.score_cutoff is not None:
        passing = scores >= cfg.score_cutoff
        count_skipped(mem[~passing])
        sel = sel[passing]
        scores = scores[passing]
        mem = mem[passing]
        counts = np.bincount(mem, minlength=num_members)
    # Emit the whole block in one pass: a member-major lexsort whose
    # within-member order is best_first_order's, so each member's
    # segment head is the same top-tau that add_batch would select (see
    # TopHitList.add_top_sorted).  A member that already retained rows —
    # from an earlier shard or partition — has them taken out of its list
    # and sorted in with the block's own: they are its top tau of
    # everything seen so far, so the head of the joint segment is its top
    # tau of everything seen now.  Members are emitted in block
    # (mass-sorted) order — each query belongs to exactly one block per
    # pass and TopHitList is order-independent, so emission order cannot
    # affect results.
    table = (scores, *columns(sel))
    offered = counts.tolist()
    carried = [k for k, n in enumerate(offered) if n and len(lists[k])]
    if carried:
        prior = [lists[k].take_columns() for k in carried]
        prior_counts = [len(cols[0]) for cols in prior]
        table = tuple(
            np.concatenate((col, *earlier)) for col, *earlier in zip(table, *prior)
        )
        mem = np.concatenate((mem, np.repeat(carried, prior_counts)))
        counts[carried] += prior_counts
    by_member = best_first_order(table, mem)
    seg = np.concatenate(([0], np.cumsum(counts)))
    take = np.minimum(counts, cfg.tau)
    top = by_member[_ragged_arange(seg[:-1], take)]
    table = tuple(col[top] for col in table)
    bounds = np.concatenate(([0], np.cumsum(take))).tolist()
    for k, n in enumerate(offered):
        if n:
            lists[k].add_top_sorted(members[k].query_id, table, bounds[k], bounds[k + 1], n)


class ShardSearcher:
    """Searches queries against one database shard: the direct path.

    Construction builds the shard's mass index (the real-execution
    analogue of the paper's on-the-fly candidate generation); ``run``
    then evaluates candidates for any number of queries, every one
    scored directly from the shard.  A searcher is immutable with
    respect to its shard and may be reused across iterations and
    algorithms; it pickles as its shard, config and scorer, never its
    mass index.  It never reads a fragment-ion index: a search served
    from a store runs :class:`~repro.core.streaming.StreamingSearcher`.
    """

    def __init__(
        self,
        shard: ProteinDatabase,
        config: SearchConfig,
        scorer: Optional[Scorer] = None,
        library: Optional[SpectralLibrary] = None,
    ):
        self.shard = shard
        self.config = config
        self.scorer = scorer if scorer is not None else config.make_scorer(library)
        self.generator = CandidateGenerator(shard, config.delta, config.modifications)
        # PTM-aware scoring: map each variable mod's delta to its target
        # residue code so modified candidates can be scored per site.
        self._mod_targets = {
            mod.delta_mass: ord(mod.target) for mod in self.generator.modifications
        }

    def __reduce__(self):
        # the mass index never crosses a pipe: the receiving process
        # rebuilds it from the shard, as construction does here
        return (type(self), (self.shard, self.config, self.scorer))

    @property
    def nbytes(self) -> int:
        """Shard + mass-index memory, for rank RAM accounting."""
        return self.shard.nbytes + self.generator.nbytes

    def run(
        self, queries: Iterable[Spectrum], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """Search ``queries`` against the shard; fold hits into ``hitlists``.

        The single entry point engines call.  Missing hit lists are
        created with the config's tau.  In MODELED execution, candidates
        are counted (exactly) but not scored and no hits are recorded.

        Telemetry rides here and only here: one span per shard pass plus
        work counters, recorded into the process-default
        :class:`~repro.obs.metrics.MetricsRegistry` — a single attribute
        check when disabled (the default), and never an input to
        scoring, so hits are bitwise identical either way.
        """
        queries = list(queries)
        obs = get_metrics()
        if not obs.enabled:
            return self._search(queries, hitlists)
        with obs.span("search.shard", category="search"):
            stats = self._search(queries, hitlists)
        record_shard_pass(obs, stats)
        return stats

    def _count_modeled(
        self,
        queries: Sequence[Spectrum],
        hitlists: Dict[int, TopHitList],
        stats: ShardStats,
    ) -> None:
        """MODELED execution: exact vectorized counts, no scoring."""
        cfg = self.config
        counts = self.count_each(queries)
        for spectrum, count in zip(queries, counts):
            stats.queries_processed += 1
            hitlist = hitlists.get(spectrum.query_id)
            if hitlist is None:
                hitlist = hitlists[spectrum.query_id] = TopHitList(cfg.tau)
            stats.candidates_evaluated += int(count)
            hitlist.evaluated += int(count)

    def _search(
        self, queries: List[Spectrum], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """Candidate-major search: one window sweep per shard, one kernel
        call per packed block.

        Queries are sorted by precursor mass and their windows swept
        against the shard's sorted mass arrays in one vectorized pass
        (:meth:`MassIndex.windows_many`, once per modification tier).
        :func:`~repro.candidates.mass_index.plan_sweep` then splits them
        into *runs* of overlapping windows, each enumerated once as a
        union candidate block, and packs consecutive runs into scoring
        *blocks* of up to ``sweep_cohort`` members that share one
        candidate batch, one multi-spectrum scoring call and one top-tau
        emit.  Every per-query candidate set, score, filter, and hit-list
        offer is bitwise identical to the scalar reference search
        (``tests/reference.py``) — each member's candidates are contiguous
        sub-slices of its run's rows in exactly the
        ``generator.candidates(query)`` enumeration order, and the block
        kernels reproduce the scalar scorers bit for bit.  A cohort of
        one is the per-query search.
        """
        stats = ShardStats()
        cfg = self.config
        for spectrum in queries:
            if spectrum.query_id not in hitlists:
                hitlists[spectrum.query_id] = TopHitList(cfg.tau)
        if cfg.execution is ExecutionMode.MODELED:
            self._count_modeled(queries, hitlists, stats)
            return stats
        stats.queries_processed += len(queries)
        stats.sweep_queries += len(queries)
        if not queries:
            return stats
        obs = get_metrics()
        traced = obs.enabled  # the only telemetry test an untraced pass pays
        plan_span = (
            obs.span("sweep.plan", category="search", queries=len(queries))
            if traced
            else NULL_SPAN
        )
        with plan_span:
            masses = np.array([q.parent_mass for q in queries], dtype=np.float64)
            order = np.argsort(masses, kind="stable")
            lows = masses[order] - self.generator.delta
            highs = masses[order] + self.generator.delta
            plan = plan_sweep(lows, highs, cfg.sweep_cohort)
            index = self.generator.index
            tiers = [(None, index.windows_many(lows, highs))] + [
                (mod, index.windows_many(lows - mod.delta_mass, highs - mod.delta_mass))
                for mod in self.generator.modifications
            ]
        stats.sweep_cohorts += plan.num_blocks
        for a, b, r0, r1 in plan.blocks():
            members = [queries[m] for m in order[a:b]]
            run_bounds = plan.run_bounds[r0 : r1 + 1] - a
            if not traced:
                self._sweep_block(members, run_bounds, tiers, a, hitlists, stats)
                continue
            with obs.span(
                "sweep.block", category="search", members=b - a, runs=r1 - r0
            ) as span:
                span.args["rows"] = self._sweep_block(
                    members, run_bounds, tiers, a, hitlists, stats
                )
        return stats

    def _sweep_block(
        self,
        members: List[Spectrum],
        run_bounds: np.ndarray,
        tiers: Sequence[tuple],
        first: int,
        hitlists: Dict[int, TopHitList],
        stats: ShardStats,
    ) -> int:
        """Enumerate, score and emit one block; returns its candidate count."""
        spans, sel, mem = self._block_candidates(run_bounds, tiers, first, len(members))
        shard_ids = self.shard.ids
        score_and_offer_block(
            self.config,
            stats,
            hitlists,
            members,
            sel,
            mem,
            spans.lengths[sel],
            lambda spectra, kept: self.score_spans_block(spectra, spans, kept),
            lambda s: (
                shard_ids[spans.seq_index[s]],
                spans.start[s],
                spans.stop[s],
                spans.mass[s],
                spans.mod_delta[s],
            ),
        )
        return len(sel)

    def _block_candidates(
        self, run_bounds: np.ndarray, tiers: Sequence[tuple], first: int, num_members: int
    ) -> Tuple[CandidateSpans, np.ndarray, np.ndarray]:
        """Candidate block + member-major flat selections for one block.

        ``run_bounds`` are the block's run edges in block-local member
        positions and ``tiers`` the pass-wide ``(mod, windows_many
        bounds)`` per modification tier, the block's members sitting at
        ``[first, first + num_members)`` of them.  Each tier enumerates
        every run's union window once (:meth:`MassIndex.sweep_spans` over
        arrays of run bounds: no row between two runs is materialized)
        and each member's candidates are recovered as sub-slices of its
        own run's rows.  Returns ``(spans, sel, mem)``: ``sel`` indexes
        ``spans`` and lists, member by member (``mem``, non-decreasing),
        the candidates in exactly the order ``generator.candidates(query)``
        produces: tier-major, prefixes ascending, then deduplicated
        suffixes ascending — PTM tiers keep that property because the
        presence filter is a stable subset of the enumerated rows, making
        each member's filtered range a contiguous run of the kept block.
        """
        gen = self.generator
        window = slice(first, first + num_members)
        run_first = run_bounds[:-1]
        run_last = run_bounds[1:] - 1
        run_of = np.repeat(np.arange(len(run_first)), np.diff(run_bounds))
        tier_parts: List[CandidateSpans] = []
        starts: List[np.ndarray] = []
        stops: List[np.ndarray] = []
        base = 0
        for mod, bounds in tiers:
            p0, p1, s0, s1 = (edge[window] for edge in bounds)
            run_p0, run_s0 = p0[run_first], s0[run_first]
            run_pn = np.maximum(p1[run_last] - run_p0, 0)
            run_sn = np.maximum(s1[run_last] - run_s0, 0)
            block, num_pre = gen.index.sweep_spans(
                run_p0, run_p0 + run_pn, run_s0, run_s0 + run_sn
            )
            if len(block) == 0:
                continue
            # where each run's prefixes and suffixes start inside `block`
            run_pre = np.cumsum(run_pn) - run_pn
            run_suf = num_pre + np.cumsum(run_sn) - run_sn
            pa = run_pre[run_of] + (p0 - run_p0[run_of])
            pb = np.maximum(pa + (p1 - p0), pa)
            sa = run_suf[run_of] + (s0 - run_s0[run_of])
            sb = np.maximum(sa + (s1 - s0), sa)
            if mod is not None:
                keep = gen.presence_mask(block, mod)
                kcum = np.concatenate(([0], np.cumsum(keep)))
                block = block.take(np.nonzero(keep)[0])
                if len(block) == 0:
                    continue
                block = replace(block, mod_delta=np.full(len(block), mod.delta_mass))
                pa, pb, sa, sb = kcum[pa], kcum[pb], kcum[sa], kcum[sb]
            starts += [base + pa, base + sa]
            stops += [base + pb, base + sb]
            tier_parts.append(block)
            base += len(block)
        if not tier_parts:
            empty = np.empty(0, dtype=np.int64)
            return CandidateSpans.empty(), empty, empty
        # (member, tier, prefix-then-suffix) ranges, raveled member-major
        starts_flat = np.stack(starts, axis=1).ravel()
        sizes = np.stack(stops, axis=1).ravel() - starts_flat
        sel = _ragged_arange(starts_flat, sizes)
        per_member = sizes.reshape(num_members, -1).sum(axis=1)
        mem = np.repeat(np.arange(num_members, dtype=np.int64), per_member)
        return CandidateSpans.concat(tier_parts), sel, mem

    def score_spans_block(
        self,
        spectra: SpectrumBatch,
        spans: CandidateSpans,
        selections: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, int, int]:
        """Score a block's shared spans: ``(scores, direct_rows, index_rows)``.

        ``scores`` is one member-major vector (``selections[0]``'s
        candidates, then ``selections[1]``'s, ...), each entry bitwise the
        scalar scorer's for that (member, candidate) pair; the row counts
        are the evaluation rows scored directly (one per admissible PTM
        site) and served by an index (none, on this path).
        """
        batch = CandidateBatch.from_spans(self.shard, spans, self._mod_targets)
        scores = block_scores(self.scorer, spectra, batch, selections)
        return scores, sum(batch.selected_row_count(sel) for sel in selections), 0

    def count_each(self, queries: Sequence[Spectrum]) -> np.ndarray:
        """Exact per-query candidate counts (PTM tiers included).

        The shared counting kernel for modeled execution: the no-PTM path
        is one vectorized window count over the whole batch — no
        per-query array allocations.
        """
        if not queries:
            return np.empty(0, dtype=np.int64)
        if self.config.modifications:
            return np.array([self.generator.count(q) for q in queries], dtype=np.int64)
        masses = np.array([q.parent_mass for q in queries], dtype=np.float64)
        return self.generator.count_unmodified_many(masses).astype(np.int64)

    def count_for(self, spectrum: Spectrum) -> int:
        """Exact candidate count for one query (PTM tiers included)."""
        return int(self.count_each([spectrum])[0])

    def count_batch(self, queries: Sequence[Spectrum]) -> int:
        """Vectorized total candidate count for a query batch."""
        return int(self.count_each(list(queries)).sum())


def search_serial(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    config: SearchConfig,
    library: Optional[SpectralLibrary] = None,
    index_store=None,
    memory_budget_mb: Optional[float] = None,
) -> "SearchReport":
    """Reference serial search: one processor, whole database.

    This is the ground truth for the paper's validation experiment and
    the p = 1 baseline for real-speedup numbers (the paper: "any run of
    our Algorithm A at p = 1 is equivalent to the uni-worker processor
    run of MSPolygraph").

    Without ``index_store`` every candidate is scored directly.  With one
    (a :class:`repro.store.StoredIndex`) the search is one sweep over the
    store's mass-sorted rows
    (:class:`~repro.core.streaming.StreamingSearcher`): the store is
    fingerprint-validated against ``database``, hits are bitwise
    identical to the direct search, and virtual time charges
    ``CostModel.index_load_time`` for what the store maps whole (a store
    with postings, which refuses a ``memory_budget_mb`` with
    :class:`~repro.errors.ConfigError`) and only the I/O not masked by
    compute (``CostModel.partition_exposed_io``) for what it streams (a
    partitioned store, partitions read one plus one ahead at a time,
    peak memory ~two partitions regardless of N).  Neither loads nor
    scans the database.
    """
    from repro.core.results import SearchReport  # deferred: results imports Hit types

    if index_store is None:
        searcher = ShardSearcher(database, config, library=library)
    else:
        from repro.core.streaming import StreamingSearcher

        searcher = StreamingSearcher(
            index_store,
            config,
            library=library,
            database=database,
            memory_budget_mb=memory_budget_mb,
        )
    hitlists: Dict[int, TopHitList] = {}
    stats = searcher.run(queries, hitlists)
    cost = config.cost
    eval_time = cost.search_evaluation_time(stats, searcher.scorer)
    store_extras = {}
    if index_store is None:
        data_time = cost.load_time(database.nbytes, len(queries)) + cost.scan_time(
            database.nbytes
        )
        footprint = cost.shard_bytes(database)
    else:
        loaded, ss = searcher.loaded, searcher.stream_stats
        io_time = cost.partition_io_time(ss.bytes_read, ss.partitions)
        exposed_io = cost.partition_exposed_io(io_time, eval_time)
        data_time = (
            cost.load_time(0, len(queries))  # queries only: the database is not scanned
            + (cost.index_load_time(loaded.nbytes) if loaded is not None else 0.0)
            + exposed_io
        )
        footprint = searcher.nbytes  # what it maps, or the double buffer: not N
        store_extras["index_provenance"] = index_store.provenance()
        if loaded is not None:
            stats.index_load_time += loaded.seconds
            store_extras["index_mmap_bytes"] = loaded.nbytes
        else:
            store_extras["stream"] = dict(
                ss.to_dict(),
                score_seconds=searcher.score_seconds,
                partition_io_time=io_time,
                partition_exposed_io=exposed_io,
            )
    virtual = (
        data_time
        + eval_time
        + cost.query_processing_overhead(stats, len(queries))
        + cost.report_time(sum(min(len(h), config.tau) for h in hitlists.values()))
    )
    hits = HitTable(pack_hit_columns(hitlists, hitlists))
    extras = {
        "batches": stats.batches,
        "rows_scored": stats.rows_scored,
        "index_rows": stats.index_rows,
        "index_load_time": stats.index_load_time,
        "index_probe_fraction": stats.index_rows / stats.rows_scored
        if stats.rows_scored
        else 0.0,
        "sweep_queries": stats.sweep_queries,
        "sweep_cohorts": stats.sweep_cohorts,
        "modeled_candidates_per_second": cost.candidates_per_second(searcher.scorer),
        **store_extras,
    }
    return SearchReport(
        algorithm="serial",
        num_ranks=1,
        hits=hits,
        candidates_evaluated=stats.candidates_evaluated,
        virtual_time=virtual,
        peak_memory={0: footprint + sum(q.nbytes for q in queries)},
        extras=extras,
    )
