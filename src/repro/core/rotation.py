"""The rank program Algorithms A and B share: database rotation.

In the paper's database-transport model the queries stay put and the
database moves: each rank scores its query block against one shard
after another, prefetching the next with a one-sided Get while it
scores the current one (Figure 2, A2).  Algorithm B (Figure 3) runs the
same loop over its sender group with a per-shard query cutoff.  Each
algorithm keeps its preamble, its order, which queries a shard serves
and its report step, and calls :func:`rotate` (the loop),
:func:`adopt_orphans` (the commit protocol) and :func:`run_cluster`
(the cluster run and the :class:`~repro.core.results.SearchReport`).
The replicated-database baselines share :func:`run_cluster`, and
master-worker charges its batches with :func:`score_pass`.

Charge now, score later.  A pass's virtual time depends only on its
counters, which follow from the served block's plan and exact counts,
so :func:`score_pass` charges a pass when the algorithm makes it and
records it in the run's :class:`PassLedger`.  Before any hit list is
read — A3 and B3's reports, an adopted block's report, the packed
output, a master-worker reply — the ledger scores every pending pass of
every rank: one sweep per query set, over every delivered shard that
query set met laid end to end.  Under software RMA every rank records
its last pass before any rank leaves the final rendezvous, so a
fault-free A run flushes once, in one sweep of the whole database;
master-worker flushes once per batch.  Virtual times, traces and hits
are those of scoring each pass when it was made.

Memory: each rank keeps three O(N/p) buffers — its resident shard (the
window peers Get from), ``Drecv`` (the prefetch's landing buffer) and
``Dcomp`` (the shard being scored) — the paper's O((N + m)/p) bound.

Commit protocol.  A dead rank's shard is salvaged mid-rotation from the
ring successor that holds its latest copy; its query block's results
are lost.  After the rotation the survivors rendezvous, and the
scheduler stamps each with the same ordered failure snapshot
(``SimComm.sync_failures``, ULFM's agreement step).  A dead rank's
block is adopted by the first surviving rank after it in ring order
(:func:`responsible_rank`), which reloads it and rescans it against
every shard, unpruned: survivors cannot know how far the dead rank got,
and duplicate scorings collapse in the deterministic merge.  Rounds
repeat until two consecutive snapshots agree, so an adopter that dies
hands its work on, and every survivor runs the same number of
rendezvous.  The merged output of a crashed run is *identical* to the
fault-free run's.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.candidates.mass_index import MassIndex
from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.results import SearchReport, merge_rank_hits
from repro.core.search import QueryBlock, ShardSearcher, ShardStats, open_pass
from repro.errors import RankFailedError
from repro.obs.metrics import get_metrics
from repro.obs.naming import simmpi_extras
from repro.scoring.hits import HitColumns, TopHitList, pack_hit_columns
from repro.simmpi.comm import SimComm
from repro.simmpi.scheduler import ClusterConfig, SimCluster
from repro.spectra.spectrum import Spectrum


def _pass_time(
    config: SearchConfig, searcher: ShardSearcher, stats: ShardStats, rotation_step: bool = True
) -> float:
    """Modeled time of one shard pass, before its per-query overhead; a
    rotation step also pays the per-iteration overhead."""
    cost = config.cost
    return (
        (cost.iteration_overhead if rotation_step else 0.0)
        + cost.scan_time(searcher.shard.nbytes)
        + cost.search_evaluation_time(stats, searcher.scorer)
    )


#: a rank's hit lists, by query id
_Lists = Dict[int, TopHitList]
#: a recorded pass: the served block and the rank's hit lists
_Record = Tuple[QueryBlock, _Lists]


class PassLedger:
    """The shard passes of one cluster run, charged when made, scored later.

    A pass's virtual time depends only on its counters, and those follow
    from the served block's plan and exact counts
    (:meth:`~repro.core.search.ShardSearcher.pass_stats`), so a rank
    charges a pass without scoring it.  Under MODELED execution
    :meth:`record` adds each query's exact count to its list's
    ``evaluated`` and keeps nothing.  Under REAL execution it keeps the
    delivered searcher, the served :class:`QueryBlock` and the rank's hit
    lists, and before any hit list is read (:meth:`reported`,
    :meth:`columns`) :meth:`flush` scores every pending pass of every
    rank.  It cuts each shard's records into sweeps — a union of blocks
    folding into one query-id -> hit-list map, cut where a query id
    would repeat (a dead rank's pass and its adopter's rescan of the
    same block) — and makes one ``ShardSearcher.run`` per distinct map:
    over the one shard it came from, or over every shard whose sweep has
    that map laid end to end (:func:`_end_to_end`).  Maps that differ
    never merge, a subset included: that would score (query, shard)
    pairs no pass recorded.  A fault-free A run, and a B run whose sender
    groups degenerate, so flush in one sweep.  ``TopHitList`` is
    order-independent and every cohort shape is bitwise the reference,
    so the hits are those of scoring each pass when it was made.
    """

    def __init__(self) -> None:
        #: per delivered searcher (by identity): it and its pending
        #: ``(block, hitlists)`` records, in the order they were made
        self._pending: Dict[int, Tuple[ShardSearcher, List[_Record]]] = {}
        self.passes = 0  #: passes recorded (charged)
        self.sweeps = 0  #: ``ShardSearcher.run`` calls the flushes made

    def record(
        self, searcher: ShardSearcher, queries: QueryBlock, hitlists: Dict[int, TopHitList]
    ) -> ShardStats:
        """Record one pass of ``queries`` over ``searcher``, giving each
        query a hit list in ``hitlists``; returns the pass's stats."""
        self.passes += 1
        open_pass(queries.queries, hitlists, searcher.config.tau)
        counts = searcher.generator.count_many(queries.masses)
        if searcher.config.execution is ExecutionMode.MODELED:
            # counted, never scored: nothing left for a flush
            members = queries.queries
            for m, n in zip(queries.order.tolist(), counts.tolist()):
                hitlists[members[m].query_id].evaluated += n
        elif queries:
            self._pending.setdefault(id(searcher), (searcher, []))[1].append((queries, hitlists))
        return searcher.pass_stats(queries, counts)

    def flush(self) -> None:
        """Score every pending pass (a ``rotation.flush`` span when traced)."""
        if not self._pending:
            return
        pending, self._pending = list(self._pending.values()), {}
        # per map (``TopHitList`` hashes by identity): the shards whose
        # sweep has it, and that sweep's blocks and lists
        groups: Dict[frozenset, Tuple[List[ShardSearcher], List[QueryBlock], _Lists]] = {}
        for searcher, records in pending:
            for blocks, lists in _sweeps(records):
                groups.setdefault(frozenset(lists.items()), ([], blocks, lists))[0].append(searcher)
        with get_metrics().span("rotation.flush", category="search", shards=len(pending)):
            for searchers, blocks, lists in groups.values():
                searcher = searchers[0] if len(searchers) == 1 else _end_to_end(searchers)
                block = blocks[0]
                if len(blocks) > 1:
                    spectra = [q for b in blocks for q in b.queries]
                    block = QueryBlock.prepare(spectra, searcher.config)
                # packed: its batch and bindings serve every sweep it meets
                searcher.run(block.pack(), lists)
                self.sweeps += 1

    def reported(self, hitlists: Iterable[TopHitList], tau: int) -> int:
        """Hits ``hitlists`` report (each at most ``tau``), after a flush."""
        self.flush()
        return sum(min(len(h), tau) for h in hitlists)

    def columns(self, hitlists: Dict[int, TopHitList]) -> HitColumns:
        """``hitlists`` packed as columns, after a flush."""
        self.flush()
        return pack_hit_columns(hitlists, hitlists)


def _sweeps(records: Sequence[_Record]) -> Iterator[Tuple[List[QueryBlock], _Lists]]:
    """One shard's records as sweeps: ``(blocks, lists)``, consecutive
    records cut before one holding a query id already in the sweep;
    ``lists`` maps each query id to its record's list."""
    blocks: List[QueryBlock] = []
    lists: _Lists = {}
    for block, hitlists in records:
        ids = [q.query_id for q in block.queries]
        if not lists.keys().isdisjoint(ids):
            yield blocks, lists
            blocks, lists = [], {}
        blocks.append(block)
        lists.update(zip(ids, map(hitlists.__getitem__, ids)))
    yield blocks, lists


def _end_to_end(searchers: Sequence[ShardSearcher]) -> ShardSearcher:
    """One searcher over ``searchers``' shards laid end to end: the first
    one's config and scorer, and their row tables merged
    (:meth:`MassIndex.end_to_end`), so every row keeps the mass it has
    in its own shard's pass."""
    first = searchers[0]
    database = ProteinDatabase.concat([s.shard for s in searchers])
    table = MassIndex.end_to_end([s.generator.index for s in searchers], database)
    # every recorded query is within each shard's reach, so within the
    # lightest: the table above is the one the searcher's generator takes
    searcher = ShardSearcher(
        database,
        first.config,
        first.scorer,
        min(s.generator.max_parent_mass for s in searchers),
    )
    if searcher.generator.index is not table:
        # a table rebuilt over the longer running sum could differ in a
        # mass's last bit from the pass it stands for
        raise RuntimeError("the merged searcher did not take the merged row table")
    return searcher


def score_pass(
    comm: SimComm,
    ledger: PassLedger,
    searcher: ShardSearcher,
    queries: Union[QueryBlock, Sequence[Spectrum]],
    hitlists: Dict[int, TopHitList],
    config: SearchConfig,
    label: str,
    rotation_step: bool = True,
) -> ShardStats:
    """Charge one shard pass and record it in ``ledger``; returns its stats.

    ``queries`` is the rank's prepared :class:`QueryBlock` (or a slice of
    it), or a plain list, prepared here.  The pass is not scored here:
    its stats come from the block's plan and exact counts, bitwise what
    scoring it counts, and the ledger scores it at its next flush.  The
    pass time is compute (``"{label} score"``).  The per-query overhead
    joins it under MODELED execution; a REAL pass's is traced apart as
    sweep setup (``"{label} sweep"``).
    """
    block = QueryBlock.prepare(queries, config)
    stats = ledger.record(searcher, block, hitlists)
    overhead = config.cost.query_processing_overhead(stats, len(block))
    comm.compute(
        _pass_time(config, searcher, stats, rotation_step)
        + (0.0 if stats.sweep_queries else overhead),
        detail=f"{label} score",
    )
    if stats.sweep_queries:
        comm.sweep_setup(overhead, detail=f"{label} sweep")
    return stats


def _salvage(comm: SimComm, window: str, owner: int) -> ShardSearcher:
    """The dead ``owner``'s shard, re-fetched from its surviving holder."""
    searcher = comm.salvage_window(owner, window)
    comm.recovery_fetch(owner, searcher.shard.nbytes, detail=f"salvage D{owner}")
    return searcher


def rotate(
    comm: SimComm,
    ledger: PassLedger,
    window: str,
    resident: ShardSearcher,
    order: Sequence[int],
    sizes: Sequence[float],
    queries: Sequence[Spectrum],
    config: SearchConfig,
    phase: str,
    mask: bool = True,
    agree_rounds: bool = False,
    mass_limit: Optional[Callable[[int], float]] = None,
):
    """Score the shards of ``order`` in turn; returns ``(hitlists, totals)``.

    A generator, driven with ``yield from`` inside a rank program after
    every rank has exposed its shard (``resident``) under ``window``.
    The rank's ``queries`` stay put while the shards move, so they are
    prepared once, as one :class:`QueryBlock`, before the first step:
    its mass order, windows and sweep plan serve every pass.  Step ``s``
    charges and records (:func:`score_pass`) their pass over shard
    ``order[s]`` — with ``mass_limit``, only those no heavier than
    ``mass_limit(order[s])``, a mass-order prefix of the same block —
    while the Get of ``order[s + 1]`` is in flight;
    with ``mask=False`` (the paper's unmasked ablation) the rank waits
    for that Get *before* scoring.  When the order does not start at
    this rank the first shard is fetched synchronously.  A shard whose
    owner died is salvaged from its surviving holder and charged as
    recovery.  ``sizes[t]`` is rank ``t``'s shard footprint, which sizes
    the landing buffer before each transfer.

    Under software RMA every step ends in a rendezvous.  When ranks'
    orders differ in length (``agree_rounds``), they first agree on the
    longest, and ranks with shorter orders idle through the tail rounds
    — they are done, peers are not.
    """
    cost = config.cost
    hitlists: Dict[int, TopHitList] = {}
    totals = ShardStats()
    block = QueryBlock.prepare(queries, config)
    current = resident
    if order:
        if order[0] != comm.rank:
            # nothing to mask the first transfer behind
            comm.alloc("Drecv", int(sizes[order[0]]))
            try:
                first = comm.iget(order[0], window)
            except RankFailedError:
                current = _salvage(comm, window, order[0])
            else:
                current = comm.wait(first)
        comm.alloc("Dcomp", cost.shard_bytes(current.shard))
    software_rma = comm.network.software_rma and comm.size > 1
    rounds = len(order)
    if software_rma and agree_rounds:
        rounds = int((yield comm.allreduce_op(rounds, "max", nbytes=8)))
    for s in range(rounds):
        if s < len(order):
            target = order[s]
            request = lost = None
            if s + 1 < len(order):
                try:
                    request = comm.iget(order[s + 1], window)
                except RankFailedError:
                    lost = order[s + 1]  # salvaged after this step's scoring
                comm.alloc("Drecv", int(sizes[order[s + 1]]))
                if not mask and request is not None:
                    comm.wait(request)
            served = block if mass_limit is None else block.lighter_than(mass_limit(target))
            totals.merge(
                score_pass(comm, ledger, current, served, hitlists, config, f"{phase} D{target}")
            )
            if request is not None or lost is not None:
                current = comm.wait(request) if lost is None else _salvage(comm, window, lost)
                comm.alloc("Dcomp", cost.shard_bytes(current.shard))
        if software_rma:
            # ethernet one-sided progress: a step's transfers complete
            # only once every target engages the MPI library, so each
            # step rendezvouses and compute skew becomes residual
            # communication (traced as wait).
            yield comm.rendezvous_op()
    return hitlists, totals


def responsible_rank(failed: int, failures: Sequence[int], num_ranks: int) -> int:
    """The survivor that adopts ``failed``'s query block.

    Deterministic given the failure snapshot: the first rank after
    ``failed`` in ring order that is not itself in ``failures``.
    """
    dead = set(failures)
    for step in range(1, num_ranks + 1):
        candidate = (failed + step) % num_ranks
        if candidate not in dead:
            return candidate
    raise RankFailedError(failed, "no surviving rank left to adopt work")


def adopt_orphans(
    comm: SimComm,
    ledger: PassLedger,
    window: str,
    resident: ShardSearcher,
    query_blocks: Sequence[List[Spectrum]],
    hitlists: Dict[int, TopHitList],
    totals: ShardStats,
    config: SearchConfig,
):
    """Commit rounds and the rescan of dead ranks' query blocks.

    A generator, driven with ``yield from`` after the rotation; a no-op
    unless the machine runs under a fault plan.  Each dead rank this
    rank is responsible for (per the current snapshot) has its block
    reloaded, prepared once (:class:`QueryBlock`) and rescanned against
    every shard: each pass recorded in ``ledger`` and charged as
    recovery, all of them scored before the block's report.
    """
    if not comm.fault_tolerant or comm.size == 1:
        return
    cost = config.cost

    def adopt(failed: int) -> None:
        block = query_blocks[failed]
        if not block:
            return
        block_bytes = sum(q.nbytes for q in block)
        comm.alloc("Qadopt", block_bytes)
        comm.recovery_compute(
            cost.load_time(block_bytes, len(block)), detail=f"reload Q{failed}"
        )
        prepared = QueryBlock.prepare(block, config)
        for j in range(comm.size):
            remote = resident if j == comm.rank else comm.salvage_window(j, window)
            if j != comm.rank:
                comm.alloc("Drecv", cost.shard_bytes(remote.shard))
                comm.recovery_fetch(
                    j, remote.shard.nbytes, detail=f"refetch D{j} for Q{failed}"
                )
            stats = ledger.record(remote, prepared, hitlists)
            comm.recovery_compute(
                _pass_time(config, remote, stats)
                + cost.query_processing_overhead(stats, len(block)),
                detail=f"rescore Q{failed} x D{j}",
            )
            totals.merge(stats)
        adopted_reported = ledger.reported((hitlists[q.query_id] for q in block), config.tau)
        comm.recovery_compute(
            cost.report_time(adopted_reported), detail=f"report Q{failed}"
        )
        comm.free("Drecv")
        comm.free("Qadopt")

    previous = None
    adopted: set = set()
    while True:
        yield comm.rendezvous_op()
        snapshot = comm.sync_failures
        if previous is not None and snapshot == previous:
            return
        previous = snapshot
        for failed in snapshot:
            if failed not in adopted and responsible_rank(failed, snapshot, comm.size) == comm.rank:
                adopt(failed)
                adopted.add(failed)


def run_cluster(
    algorithm: str,
    program: Callable,
    args: Union[Tuple, Dict[int, Tuple]],
    num_ranks: int,
    config: SearchConfig,
    cluster_config: Optional[ClusterConfig],
    rank_totals: bool = True,
    **engine_extras,
) -> SearchReport:
    """Run ``program(comm, ledger, *args)`` on every rank and build the report.

    ``ledger`` is the run's one :class:`PassLedger`.  ``args`` is one
    tuple for every rank, or a tuple per rank.  Each rank returns
    ``(hits, totals, timings)``: its hit columns (or ``None``), its
    :class:`ShardStats` and a dict of phase durations (Algorithm B's
    ``sorting_time``), reported as the slowest surviving rank's value.
    ``engine_extras`` join the extras, which leave out the totals' sweep
    and fault accounting unless ``rank_totals``; a REAL run's add the
    ledger's ``shard_passes`` and ``flush_sweeps``.
    """
    cluster_config = cluster_config or ClusterConfig(num_ranks=num_ranks)
    if cluster_config.num_ranks != num_ranks:
        raise ValueError("cluster_config.num_ranks must match num_ranks")
    if not isinstance(args, dict):
        args = {r: args for r in range(num_ranks)}
    ledger = PassLedger()
    cluster = SimCluster(cluster_config)
    outcomes, summary = cluster.run(program, {r: (ledger, *a) for r, a in args.items()})
    if config.execution is ExecutionMode.REAL:
        engine_extras.update(shard_passes=ledger.passes, flush_sweeps=ledger.sweeps)

    totals = ShardStats()
    for o in outcomes:
        totals.merge(o.value[1])
    timings = {k: max(o.value[2][k] for o in outcomes) for k in outcomes[0].value[2]}
    return SearchReport(
        algorithm=algorithm,
        num_ranks=num_ranks,
        hits=merge_rank_hits([o.value[0] for o in outcomes if o.value[0] is not None], config.tau),
        candidates_evaluated=totals.candidates_evaluated,
        virtual_time=summary.makespan,
        trace=summary,
        peak_memory={r: cluster.memory[r].peak for r in range(num_ranks)},
        extras=simmpi_extras(
            summary,
            totals=totals if rank_totals else None,
            fault_tolerant=rank_totals and cluster_config.fault_plan is not None,
            **timings,
            **engine_extras,
        ),
    )
