"""The shared per-shard search kernel.

Every algorithm in this library — serial reference, master-worker
baseline, Algorithms A and B, the X!!Tandem-like prefilter engine — runs
queries against database shards through :class:`ShardSearcher`, the
direct path; a search served from an index store runs
:class:`~repro.core.streaming.StreamingSearcher`.  Both are one call of
:func:`sweep_table` per row table: the same runs, blocks, PTM tiers,
block filter, scoring call and top-tau emit.  Keeping one kernel
guarantees the paper's validation property by construction: whatever
order shards and queries are processed in, the same (query, candidate)
pairs receive the same scores, and the deterministic top-tau list makes
the final output order-independent.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.candidates.generator import (
    CandidateGenerator,
    ModTier,
    contains_target,
    heaviest_parent_mass,
    mod_targets,
)
from repro.candidates.mass_index import CandidateSpans, MassIndex, SweepPlan, plan_sweep
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.obs.metrics import NULL_SPAN, get_metrics
from repro.scoring.base import Scorer, block_scores
from repro.scoring.hits import HitTable, TopHitList, best_first_order, pack_hit_columns
from repro.spectra.binning import _ragged_arange
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch


@dataclass
class ShardStats:
    """Work counters from searching one shard (feeds the cost model).

    ``rows_scored`` counts scorer evaluation rows (one per admissible PTM
    site), ``batches`` scoring calls (one per non-empty block),
    ``index_rows`` the rows served by posting probes, ``index_load_time``
    the wall seconds engines spent opening stores.  ``sweep_queries`` /
    ``sweep_cohorts`` count the queries a REAL pass scored and the
    scoring blocks they were packed into; both stay 0 in MODELED
    execution, which counts candidates without scoring them.

    A simulated engine charges each pass from
    :meth:`ShardSearcher.pass_stats`, made before the pass is scored, so
    its ``batches``, ``rows_scored`` and ``index_rows`` stay 0 and its
    reports carry neither ``batches`` nor ``rows_scored``.
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
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def report_extras(self) -> Dict[str, Any]:
        """The pass counters a serial or multiproc report carries in its extras."""
        return {
            "batches": self.batches,
            "rows_scored": self.rows_scored,
            "index_rows": self.index_rows,
            "index_load_time": self.index_load_time,
            "index_probe_fraction": self.index_rows / self.rows_scored if self.rows_scored else 0.0,
            "sweep_queries": self.sweep_queries,
            "sweep_cohorts": self.sweep_cohorts,
        }


def traced_pass(
    name: str,
    search: Callable[[Iterable[Spectrum], Dict[int, TopHitList]], ShardStats],
    queries: Iterable[Spectrum],
    hitlists: Dict[int, TopHitList],
) -> ShardStats:
    """Run one shard pass, ``search(queries, hitlists)``.

    Telemetry rides here and only here: one ``name`` span per pass plus
    work counters, recorded into the process-default
    :class:`~repro.obs.metrics.MetricsRegistry` — a single attribute
    check when disabled (the default), and never an input to scoring, so
    hits are bitwise identical either way.
    """
    obs = get_metrics()
    if not obs.enabled:
        return search(queries, hitlists)
    with obs.span(name, category="search"):
        stats = search(queries, hitlists)
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
    return stats


def open_pass(
    queries: Sequence[Spectrum], hitlists: Dict[int, TopHitList], tau: int
) -> ShardStats:
    """A pass's work counters, its queries counted and each given a hit
    list (created with ``tau`` where missing)."""
    for spectrum in queries:
        if spectrum.query_id not in hitlists:
            hitlists[spectrum.query_id] = TopHitList(tau)
    return ShardStats(queries_processed=len(queries))


def score_and_offer_block(
    cfg: SearchConfig,
    stats: ShardStats,
    hitlists: Dict[int, TopHitList],
    spectra: SpectrumBatch,
    sel: np.ndarray,
    mem: np.ndarray,
    lengths: np.ndarray,
    score: Callable[[SpectrumBatch, List[np.ndarray]], Tuple[np.ndarray, int, int]],
    columns: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
) -> None:
    """Filter, score and emit one sweep block (resident or streamed).

    ``spectra`` are the block's members.  ``sel`` lists the block's
    candidates member-major — whatever ids the caller's ``score`` and
    ``columns`` understand: positions in a span block, or rows of a
    store's row block — ``mem`` (non-decreasing) the member owning each
    and ``lengths`` its residue count.  ``score(spectra, kept)`` returns
    ``(member-major scores, direct_rows, index_rows)`` for the per-member
    lists of candidates that passed the length floor; ``columns(sel)``
    returns their ``(protein id, start, stop, mass, mod_delta)`` columns.
    This is the one place the length floor, the ``evaluated`` accounting
    (a skipped candidate was still offered), the score cutoff and the
    top-tau emit are written.
    """
    stats.candidates_evaluated += len(sel)
    if len(sel) == 0:
        return
    members = spectra.spectra
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
    scores, direct_rows, index_rows = score(spectra, np.split(sel, np.cumsum(counts)[:-1]))
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
    # TopHitList.add_top_sorted).  Only the rows that can still be in a
    # member's top tau are sorted (_top_tau_rows); each list is still
    # offered its member's whole count.  Each list parks its head by
    # reference beside what earlier blocks (of other shards or
    # partitions) gave it, and folds them only when it must.  Members
    # are emitted in block (mass-sorted) order — each query belongs to
    # exactly one block per pass and TopHitList is order-independent, so
    # emission order cannot affect results.
    offered = counts
    if counts.max() > cfg.tau and not np.isnan(scores).any():
        keep = _top_tau_rows(scores, mem, counts, cfg.tau)
        sel, scores, mem = sel[keep], scores[keep], mem[keep]
        counts = np.bincount(mem, minlength=num_members)
    table = (scores, *columns(sel))
    by_member = best_first_order(table, mem)
    seg = np.concatenate(([0], np.cumsum(counts)))
    take = np.minimum(counts, cfg.tau)
    top = by_member[_ragged_arange(seg[:-1], take)]
    table = tuple(col[top] for col in table)
    bounds = np.concatenate(([0], np.cumsum(take))).tolist()
    for k, n in enumerate(offered.tolist()):
        if n:
            lists[k].add_top_sorted(members[k].query_id, table, bounds[k], bounds[k + 1], n)


def _top_tau_rows(
    scores: np.ndarray, mem: np.ndarray, counts: np.ndarray, tau: int
) -> np.ndarray:
    """Mask of the rows scoring at least their member's tau-th best score.

    ``mem`` is non-decreasing and ``counts`` its per-member row counts;
    no score is NaN.  The scores are laid out as a members x widest-count
    matrix padded with ``-inf`` (a transient of ``8 * len(counts) *
    counts.max()`` bytes: ~0.13 MB for a 64-member block whose widest
    member has ~250 rows) and one :func:`np.partition` per row finds
    each member's tau-th largest score; a member with at most ``tau``
    rows keeps them all.  A member's top tau under
    :meth:`~repro.scoring.hits.Hit.sort_key` all score at least that
    threshold, and ties at it are kept, so a stable sort of the kept rows
    begins with exactly the first ``tau`` rows of the full sort, in the
    same order.
    """
    width = int(counts.max())
    first = np.cumsum(counts) - counts
    grid = np.full((len(counts), width), -np.inf)
    grid[mem, np.arange(len(mem)) - first[mem]] = scores
    threshold = np.partition(grid, width - tau, axis=1)[:, width - tau]
    threshold[counts <= tau] = -np.inf
    return scores >= threshold[mem]


class QueryBlock:
    """A rank's queries, prepared once for every shard pass over them.

    In the paper's database-transport model the queries stay put while
    the shards rotate, so their side of a pass is built once: the mass
    order (stable) and windows ``[m - delta, m + delta]`` (a traced
    build's ``sweep.plan`` span) and the :class:`SweepPlan`.  A block
    that will be swept more than once is :meth:`pack`-ed: one
    mass-ordered :class:`~repro.spectra.spectrum_batch.SpectrumBatch`
    over every member, whose padded peaks and scorer bindings are made on
    first use, and a scoring block's members — a range ``[a, b)`` of the
    mass order — are a zero-copy :meth:`spectra` slice of it.  An
    unpacked block (one pass) packs each scoring block on its own, so it
    holds one scoring block's bindings at a time.

    :meth:`slice` is a contiguous range of the mass order as a block of
    its own (Algorithm B's per-shard prefix, a streamed partition's
    members): its plan is :func:`plan_sweep` of its own windows, its
    batch a slice of the same one.  ``queries`` lists the members in the
    caller's order for a whole block, in mass order for a slice.
    """

    def __init__(self, queries: Iterable[Spectrum], delta: float, max_cohort: int):
        self.queries: List[Spectrum] = list(queries)
        self.delta = delta
        self.max_cohort = max_cohort
        obs = get_metrics()
        with (
            obs.span("sweep.plan", category="search", queries=len(self.queries))
            if obs.enabled
            else NULL_SPAN
        ):
            masses = np.array([q.parent_mass for q in self.queries], dtype=np.float64)
            self.order = np.argsort(masses, kind="stable")
            #: parent masses in mass order, and the windows
            self.masses = masses[self.order]
            self.lows = self.masses - delta
            self.highs = self.masses + delta
        self._root: Optional[QueryBlock] = None  # a slice's whole block
        self._start = 0  # where this block's members start in the root's mass order
        self._plan: Optional[SweepPlan] = None
        self._batch: Optional[SpectrumBatch] = None  # the root's, in mass order
        # held weakly: a slice holds its root, so the block is never cyclic
        # garbage — its batch, bindings and peak locators go with the last
        # reference to it, not at some later collection
        self._slices: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    @property
    def _whole(self) -> "QueryBlock":
        """The block this one is a slice of (itself when it is no slice)."""
        return self if self._root is None else self._root

    @classmethod
    def prepare(
        cls, queries: Union["QueryBlock", Iterable[Spectrum]], cfg: SearchConfig
    ) -> "QueryBlock":
        """``queries`` prepared for ``cfg``'s windows and cohort cap: a
        block prepared for them is returned as it is."""
        if isinstance(queries, QueryBlock):
            if (queries.delta, queries.max_cohort) == (cfg.delta, cfg.sweep_cohort):
                return queries
            queries = queries.queries
        return cls(queries, cfg.delta, cfg.sweep_cohort)

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def plan(self) -> SweepPlan:
        """:func:`plan_sweep` of the windows (made once)."""
        if self._plan is None:
            self._plan = plan_sweep(self.lows, self.highs, self.max_cohort)
        return self._plan

    def pack(self) -> "QueryBlock":
        """Pack every member into one batch (made once; returns the block).

        For a block swept against several tables, its slices among them:
        the packed peaks and each scorer's binding then serve every pass.
        """
        root = self._whole
        if root._batch is None:
            root._batch = SpectrumBatch([root.queries[m] for m in root.order.tolist()])
        return self

    def spectra(self, a: int, b: int) -> SpectrumBatch:
        """Members ``[a, b)`` of the mass order: a slice of the packed
        batch, or a batch of their own if the block is not packed."""
        root = self._whole
        a, b = self._start + a, self._start + b
        if root._batch is None:
            return SpectrumBatch([root.queries[m] for m in root.order[a:b].tolist()])
        return root._batch.slice(a, b)

    def slice(self, a: int, b: int) -> "QueryBlock":
        """Members ``[a, b)`` of the mass order as a block (made once while
        it is held)."""
        root = self._whole
        a, b = self._start + a, self._start + b
        if (a, b) == (0, len(root)):
            return root
        part = root._slices.get((a, b))
        if part is None:
            part = QueryBlock.__new__(QueryBlock)
            part.queries = [root.queries[m] for m in root.order[a:b].tolist()]
            part.delta, part.max_cohort = root.delta, root.max_cohort
            part.order = np.arange(b - a)
            part.masses, part.lows, part.highs = root.masses[a:b], root.lows[a:b], root.highs[a:b]
            part._root, part._start = root, a
            part._plan = part._batch = None
            root._slices[(a, b)] = part
        return part

    def lighter_than(self, mass: float) -> "QueryBlock":
        """The prefix of members whose parent mass is at most ``mass``."""
        return self.slice(0, int(np.searchsorted(self.masses, mass, side="right")))


#: ``score(spectra, spans, rows, kept) -> (scores, direct_rows, index_rows)``:
#: how a source scores a block — its decoded ``spans``, their row ids
#: ``rows``, and per member the block positions it kept
BlockScorer = Callable[
    [SpectrumBatch, CandidateSpans, np.ndarray, List[np.ndarray]], Tuple[np.ndarray, int, int]
]


def sweep_table(
    table: MassIndex,
    queries: QueryBlock,
    tiers: Sequence[ModTier],
    score: BlockScorer,
    ids: np.ndarray,
    cfg: SearchConfig,
    hitlists: Dict[int, TopHitList],
    stats: ShardStats,
) -> None:
    """The one sweep: prepared queries against a mass-sorted row table
    (the shard's :class:`MassIndex`, a store's mapped table, a partition).

    ``queries`` carries the members in mass order with their windows and
    its :class:`SweepPlan`, prepared once however many tables it sweeps;
    ``ids`` are the protein ids by sequence index.  The plan
    (:func:`~repro.candidates.mass_index.plan_sweep`) splits the members
    into *runs* of overlapping windows and packs runs into scoring
    *blocks* of up to ``sweep_cohort`` members sharing one candidate
    batch, scoring call and top-tau emit; a block's spectra are a slice
    of the prepared batch.  Per tier (the window shifted by a PTM's
    ``delta_mass``) a member's candidates are one row range and a run's
    union is one too, decoded once a block; a PTM tier keeps the rows
    holding a target residue.  Every candidate set, score, filter and
    offer is bitwise the scalar reference search's
    (``tests/reference.py``); a cohort of one is the per-query search.
    """
    lows, highs, plan = queries.lows, queries.highs, queries.plan
    windows = [table.windows_many(lows, highs)] + [
        table.windows_many(lows - mod.delta_mass, highs - mod.delta_mass) for mod, _csum in tiers
    ]
    stats.sweep_cohorts += plan.num_blocks
    obs = get_metrics()
    traced = obs.enabled  # the only telemetry test an untraced pass pays
    for a, b, r0, r1 in plan.blocks():
        spans, rows, sel, mem = _block_rows(
            table, windows, tiers, plan.run_bounds[r0 : r1 + 1] - a, a, b
        )
        with (
            obs.span("sweep.block", category="search", members=b - a, runs=r1 - r0, rows=len(sel))
            if traced
            else NULL_SPAN
        ):
            score_and_offer_block(
                cfg, stats, hitlists, queries.spectra(a, b), sel, mem, spans.lengths[sel],
                lambda spectra, kept: score(spectra, spans, rows, kept),
                lambda s: (
                    ids[spans.seq_index[s]], spans.start[s], spans.stop[s],
                    spans.mass[s], spans.mod_delta[s],
                ),
            )


def _block_rows(
    table: MassIndex,
    windows: Sequence[Tuple[np.ndarray, np.ndarray]],
    tiers: Sequence[ModTier],
    run_bounds: np.ndarray,
    a: int,
    b: int,
) -> Tuple[CandidateSpans, np.ndarray, np.ndarray, np.ndarray]:
    """One block's decoded rows and member-major selections.

    ``windows`` are the pass-wide row ranges per tier, the block's
    members at ``[a, b)`` of them, ``run_bounds`` its run edges in
    block-local member positions.  Returns ``(spans, rows, sel, mem)``:
    the block's spans (tier-major, then run-major) and their row ids;
    ``sel`` indexes them and lists, member by member (``mem``,
    non-decreasing), each member's candidates tier by tier.
    """
    run_first = run_bounds[:-1]
    run_last = run_bounds[1:] - 1
    run_of = np.repeat(np.arange(len(run_first)), np.diff(run_bounds))
    parts: List[Tuple[CandidateSpans, np.ndarray]] = []
    starts: List[np.ndarray] = []
    stops: List[np.ndarray] = []
    base = 0
    for tier, (lo, hi) in zip([None, *tiers], windows):
        lo, hi = lo[a:b], hi[a:b]
        run_lo = lo[run_first]
        spans, rows = table.sweep_spans(run_lo, hi[run_last])
        if len(rows) == 0:
            continue
        # where each member's range starts inside this tier's rows
        run_size = hi[run_last] - run_lo
        first = (np.cumsum(run_size) - run_size)[run_of] + (lo - run_lo[run_of])
        last = first + (hi - lo)
        if tier is not None:
            mod, target_csum = tier
            keep = contains_target(spans, table.offsets, target_csum)
            kept = np.concatenate(([0], np.cumsum(keep)))
            spans = replace(spans.take(keep), mod_delta=np.full(int(kept[-1]), mod.delta_mass))
            rows = rows[keep]
            first, last = kept[first], kept[last]
            if len(rows) == 0:
                continue
        starts.append(base + first)
        stops.append(base + last)
        parts.append((spans, rows))
        base += len(rows)
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return CandidateSpans.empty(), empty, empty, empty
    # (member, tier) ranges, raveled member-major
    first = np.stack(starts, axis=1).ravel()
    sizes = np.stack(stops, axis=1).ravel() - first
    per_member = sizes.reshape(b - a, -1).sum(axis=1)
    return (
        CandidateSpans.concat([spans for spans, _rows in parts]),
        np.concatenate([rows for _spans, rows in parts]),
        _ragged_arange(first, sizes),
        np.repeat(np.arange(b - a, dtype=np.int64), per_member),
    )


def score_directly(
    scorer: Scorer,
    database: ProteinDatabase,
    mod_targets: Dict[float, int],
    spectra: SpectrumBatch,
    spans: CandidateSpans,
    _rows: np.ndarray,
    selections: Sequence[np.ndarray],
) -> Tuple[np.ndarray, int, int]:
    """Score a block's spans from the database — a :data:`BlockScorer`
    once bound to a scorer, a database and ``mod_targets`` (each PTM
    tier's delta -> target residue code).  Returns ``(scores,
    direct_rows, 0)``: one member-major score vector, each entry bitwise
    the scalar scorer's, and the evaluation rows (one per PTM site)."""
    batch = CandidateBatch.from_spans(database, spans, mod_targets)
    scores = block_scores(scorer, spectra, batch, selections)
    return scores, sum(batch.selected_row_count(sel) for sel in selections), 0


class ShardSearcher:
    """Searches queries against one database shard: the direct path.

    Construction builds (or reuses) the shard's row table, the
    real-execution analogue of the paper's on-the-fly candidate
    generation; ``run`` sweeps it for any number of queries, every
    candidate scored directly from the shard.  A caller that knows its
    queries passes their heaviest parent mass
    (:func:`~repro.candidates.generator.heaviest_parent_mass`): the table
    then holds only the rows their windows can reach, and a heavier
    query is refused with :class:`~repro.errors.ConfigError`.  A
    searcher is immutable and reusable; it pickles as its shard, config,
    scorer and that mass, never its table.
    """

    def __init__(
        self,
        shard: ProteinDatabase,
        config: SearchConfig,
        scorer: Optional[Scorer] = None,
        max_parent_mass: float = np.inf,
    ):
        self.shard = shard
        self.config = config
        self.scorer = scorer if scorer is not None else config.make_scorer()
        self.generator = CandidateGenerator(
            shard, config.delta, config.modifications, max_parent_mass
        )

    def __reduce__(self):
        # the row table never crosses a pipe: the receiving process
        # rebuilds it from the shard, as construction does here
        return (
            type(self),
            (self.shard, self.config, self.scorer, self.generator.max_parent_mass),
        )

    @property
    def nbytes(self) -> int:
        """Shard + row-table memory, for rank RAM accounting."""
        return self.shard.nbytes + self.generator.nbytes

    def run(
        self, queries: Union[QueryBlock, Iterable[Spectrum]], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """Search ``queries`` against the shard; fold hits into ``hitlists``.

        The single entry point engines call (a :func:`traced_pass`).
        ``queries`` is a :class:`QueryBlock` a rank prepared once for all
        its passes, or any iterable of spectra, prepared here.  Missing
        hit lists are created with the config's tau.  In MODELED
        execution, candidates are counted (exactly) but not scored and no
        hits are recorded.
        """
        return traced_pass("search.shard", self._search, queries, hitlists)

    def _search(
        self, queries: Union[QueryBlock, Iterable[Spectrum]], hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """One :func:`sweep_table` over the shard's row table, or in
        MODELED execution exact counts and no scoring."""
        cfg = self.config
        queries = QueryBlock.prepare(queries, cfg)
        stats = open_pass(queries.queries, hitlists, cfg.tau)
        if cfg.execution is ExecutionMode.MODELED:
            for spectrum, count in zip(queries.queries, self.count_each(queries.queries).tolist()):
                stats.candidates_evaluated += count
                hitlists[spectrum.query_id].evaluated += count
            return stats
        stats.sweep_queries += len(queries)
        if queries:
            gen = self.generator
            score = partial(score_directly, self.scorer, self.shard, mod_targets(gen.tiers))
            sweep_table(
                gen.index, queries, gen.tiers, score, self.shard.ids, cfg, hitlists, stats
            )
        return stats

    def pass_stats(self, queries: QueryBlock, counts: np.ndarray) -> ShardStats:
        """The counters :meth:`run` returns for ``queries``, without
        scoring them: ``candidates_evaluated`` from ``counts``, the exact
        per-member counts in mass order (``generator.count_many`` over
        ``queries.masses``), ``queries_processed`` and, in REAL
        execution, ``sweep_queries`` from the block's size and
        ``sweep_cohorts`` from its plan (none for an empty block).  The
        counters only scoring knows (``batches``, ``rows_scored``,
        ``index_rows``) stay 0; the cost model charges none of them on
        the direct path."""
        stats = ShardStats(candidates_evaluated=int(counts.sum()), queries_processed=len(queries))
        if self.config.execution is ExecutionMode.REAL and queries:
            stats.sweep_queries = len(queries)
            stats.sweep_cohorts = queries.plan.num_blocks
        return stats

    def count_each(self, queries: Sequence[Spectrum]) -> np.ndarray:
        """Exact per-query candidate counts (PTM tiers included): the
        counting kernel of modeled execution, a few binary searches per
        tier for the whole batch."""
        masses = np.array([q.parent_mass for q in queries], dtype=np.float64)
        return self.generator.count_many(masses)


def search_serial(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    config: SearchConfig,
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
        searcher = ShardSearcher(database, config, max_parent_mass=heaviest_parent_mass(queries))
    else:
        from repro.core.streaming import StreamingSearcher

        searcher = StreamingSearcher(
            index_store,
            config,
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
        **stats.report_extras(),
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
