"""Real shared-nothing parallel engine using multiprocessing.

The simulated cluster answers "how would this scale to 128 ranks"; this
engine answers "does the decomposition actually speed up real execution
on this machine".  It runs a grid of query-block tasks across worker
*processes* (true parallelism, no GIL).

The decomposition is query-major, after the paper.  Algorithm A's point
is that queries stay put and each rank ends holding the final top-tau
for *its own* queries, so nothing has to be merged by a master;
Algorithm B's is that sorting by parent m/z first bounds what a block of
queries can touch.  Here the query list is mass-sorted once and cut
into contiguous blocks (:func:`~repro.core.partition.partition_queries_by_mass`),
so every block is one mass range: the candidate-major sweep coalesces a
block as well as it would the whole list, and a block's windows cover
one slice of the mass index.  The database is *not* split, whatever the
search is served from: every worker process holds one whole-database
searcher, and a task is one query block, so each query pays its window
join, spectrum batch and top-tau exactly once and a task's result is
final for its queries — the parent has nothing to merge.

* no store (direct scoring): the parent builds one
  :class:`~repro.core.search.ShardSearcher` on the caller's database,
  which caches its mass index as a serial search does; fork workers
  share that searcher copy-on-write, spawn workers unpickle its
  database once each and rebuild the index;
* a store: each worker opens one
  :class:`~repro.core.streaming.StreamingSearcher` over it — a resident
  store's database and index sections mapped once, a partitioned one
  streamed, a block's pass opening only the partitions its mass range
  meets.

``query_blocks`` is a floor: the grid is widened until it has at least
one task per worker (:func:`~repro.core.partition.effective_query_blocks`).
An empty database dispatches no task.

Transport is zero-copy by reference: the direct searcher (or the store
path) and the mass-sorted query blocks — lists of the caller's
``Spectrum`` objects — are installed in a module-level *task
context* exactly once — inherited copy-on-write under fork, shipped once
per worker through the pool initializer under spawn — and each task is
just a ``(task_id, attempt, block_id)`` id tuple.  Per-task
serialization therefore drops from O(database + queries) to O(1),
retries resubmit three integers instead of re-pickling buffers, and the
report's ``bytes_shipped`` extras quantify the saving against the
replicated per-task baseline.  The mass index is built once per
database object, in the parent (and once per spawned worker), never
once per task or per fork worker; over a store each worker keeps one
searcher, so the store is mapped once per process.  A task searches
its block's spectra as they are: fork inherits them, spawn unpickles
them once per worker without revalidating them (``Spectrum`` restores
its read-only peaks on unpickling).
Results come back as flat NumPy columns
(:class:`~repro.scoring.hits.HitColumns`) — eight buffers per task
instead of one pickled ``Hit`` per retained hit — and stay columns in
the parent: the report's hits are the tasks' columns, and a resumed
checkpoint's, concatenated in the caller's query order (a
:class:`~repro.scoring.hits.HitTable`), with or without a checkpoint.

Supervision: tasks are dispatched with ``apply_async`` under a
supervisor loop rather than ``pool.map``.  A task that raises (or, with
``task_timeout`` set, hangs past its deadline) is resubmitted with
exponential backoff up to ``RetryPolicy.max_retries`` times; a task
that keeps failing is *quarantined* — the run completes with the
surviving results plus a ``failed_tasks`` manifest in the report
(graceful degradation) instead of aborting.  Because every task is an
independent query block and scoring is deterministic, a retried task
reproduces exactly what the first attempt would have produced.
``checkpoint_path`` persists merged top-tau columns as each task
completes, so a killed run can be resumed (``resume=True``) without
rescoring finished work.
"""

from __future__ import annotations

import bisect
import multiprocessing as mp
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.partition import effective_query_blocks, partition_queries_by_mass
from repro.core.results import SearchReport, merge_rank_hits, select_queries
from repro.core.search import ShardSearcher, ShardStats
from repro.faults.checkpoint import CheckpointManager
from repro.faults.injector import FaultInjector
from repro.faults.supervisor import RetryPolicy
from repro.obs.metrics import MetricsRegistry, get_metrics, use_registry
from repro.scoring.hits import HitColumns, TopHitList, pack_hit_columns
from repro.spectra.spectrum import Spectrum

#: a task on the wire: (task_id, attempt, block_id) — ids only
_TaskWire = Tuple[int, int, int]

#: supervisor poll interval (seconds) — bounds timeout detection lag
_POLL_S = 0.005

#: conservative pickled size of one _TaskWire (three small ints + framing)
_TASK_WIRE_BYTES = 32

#: the ShardStats counters a checkpoint carries across a resume
_CHECKPOINTED = ("candidates_evaluated", "batches", "rows_scored", "index_rows")


# -- zero-copy task context ----------------------------------------------
#
# The context holds everything a task references by id.  Under fork it is
# inherited copy-on-write from the parent (set *before* the pool spawns);
# under spawn it is pickled once per worker via the pool initializer —
# either way, per-task payloads never carry buffers again.

_TASK_CONTEXT: Optional[Dict[str, Any]] = None
#: per-process state: {"searcher": the store searcher this process opened}
_PROCESS_CACHE: Dict[str, Any] = {}


def _install_context(context: Optional[Dict[str, Any]]) -> None:
    global _TASK_CONTEXT
    _TASK_CONTEXT = context
    _PROCESS_CACHE.clear()


def _worker_init(context: Optional[Dict[str, Any]] = None) -> None:
    """Pool initializer.  ``context is None`` means fork: the module
    global was inherited from the parent; only the cache (also inherited)
    must be reset so each process opens its own store."""
    if context is not None:
        _install_context(context)
    else:
        _PROCESS_CACHE.clear()


def _cached_searcher() -> Tuple[Any, float]:
    """This process's whole-database searcher; returns ``(searcher, load_s)``.

    Without a store the searcher is the parent's, from the context: fork
    workers and the inline path search it as is, and a spawn worker
    rebuilt its mass index once, unpickling it in the pool initializer.
    With an ``index_path`` in the context (mmap-once transport) each
    process opens the store once: ``load_s`` is the wall-clock seconds
    spent opening it on *this* call — zero on a cache hit and without a
    store — so callers charge the opening once per process, not once per
    task.  The store's sections come out as read-only memory maps and its
    rows are mapped or streamed: nothing but the path string ever crossed
    the process boundary, and clean pages are shared between workers by
    the OS page cache.
    """
    searcher = _TASK_CONTEXT.get("searcher", _PROCESS_CACHE.get("searcher"))
    if searcher is not None:
        return searcher, 0.0
    from repro.core.streaming import StreamingSearcher
    from repro.store import open_any_index

    t0 = time.perf_counter()
    searcher = _PROCESS_CACHE["searcher"] = StreamingSearcher(
        open_any_index(_TASK_CONTEXT["index_path"]),
        _TASK_CONTEXT["config"],
        memory_budget_mb=_TASK_CONTEXT["memory_budget_mb"],
    )
    return searcher, time.perf_counter() - t0


def _worker(
    task: _TaskWire,
) -> Tuple[int, HitColumns, ShardStats, Optional[Dict[str, Any]]]:
    """Search one query block; runs in a worker process.

    With telemetry on (``context["metrics"]``) the task runs under a
    fresh per-task registry, so nested spans (store loads, the shard
    search itself) ship back in the returned snapshot and the supervisor
    folds them into the run-wide registry — one timeline lane per worker
    process in the Chrome-trace export.
    """
    task_id, attempt, block_id = task

    def execute() -> Tuple[HitColumns, ShardStats]:
        injector = _TASK_CONTEXT.get("injector")
        if injector is not None:
            injector.fire(task_id, attempt)
        searcher, loaded = _cached_searcher()
        queries = _TASK_CONTEXT["query_blocks"][block_id]
        hitlists: Dict[int, TopHitList] = {}
        stats = searcher.run(queries, hitlists)
        stats.index_load_time += loaded
        qids = dict.fromkeys(q.query_id for q in queries)
        return pack_hit_columns(hitlists, qids), stats

    if not _TASK_CONTEXT.get("metrics"):
        columns, stats = execute()
        return task_id, columns, stats, None
    with use_registry(MetricsRegistry(enabled=True)) as registry:
        with registry.span(
            "multiproc.task",
            category="task",
            task=task_id,
            block=block_id,
            attempt=attempt,
        ):
            columns, stats = execute()
    return task_id, columns, stats, registry.snapshot()


class _Supervisor:
    """Drives tasks through a pool with retries, backoff and timeouts.

    The backlog is a list of ``(ready time, task id)`` kept sorted
    (``bisect.insort``), so the next runnable task is always its head.
    """

    def __init__(
        self,
        pool: Optional[Any],
        tasks: Dict[int, int],
        policy: RetryPolicy,
        task_timeout: Optional[float],
        checkpoint: Optional[CheckpointManager] = None,
    ):
        self._pool = pool
        self._tasks = tasks  # task_id -> block_id
        self._policy = policy
        self._timeout = task_timeout
        self._checkpoint = checkpoint
        self._attempts: Dict[int, int] = {t: 0 for t in tasks}  # failed attempts so far
        self.retries = 0
        self.timeouts = 0
        self.failed_tasks: List[Dict[str, Any]] = []
        # task_id -> (hit columns, stats, metrics snapshot or None)
        self.results: Dict[
            int, Tuple[HitColumns, ShardStats, Optional[Dict[str, Any]]]
        ] = {}

    def _done(self, result: Tuple[int, HitColumns, ShardStats, Any]) -> None:
        """Keep a finished task's result, and checkpoint it right away."""
        task_id, columns, stats, snap = result
        self.results[task_id] = (columns, stats, snap)
        if self._checkpoint is not None:
            self._checkpoint.record(
                task_id, columns, {name: getattr(stats, name) for name in _CHECKPOINTED}
            )

    def _payload(self, task_id: int) -> _TaskWire:
        attempt = self._attempts[task_id]  # 0-based: prior failed tries
        return (task_id, attempt, self._tasks[task_id])

    def _record_failure(self, task_id: int, error: str, backlog: List[Tuple[float, int]]) -> None:
        self._attempts[task_id] += 1
        failed = self._attempts[task_id]
        if self._policy.allows_retry(failed):
            self.retries += 1
            bisect.insort(backlog, (time.monotonic() + self._policy.delay(failed), task_id))
        else:
            self.failed_tasks.append(
                {"task_id": task_id, "attempts": failed, "error": error}
            )

    def run_inline(self) -> None:
        """Single-process path: retries and quarantine, but no timeout
        enforcement (a hung task would hang the caller too)."""
        backlog: List[Tuple[float, int]] = [(0.0, t) for t in sorted(self._tasks)]
        while backlog:
            ready_at, task_id = backlog.pop(0)
            delay = ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                result = _worker(self._payload(task_id))
            except Exception as exc:
                self._record_failure(task_id, repr(exc), backlog)
            else:
                self._done(result)

    def run_pooled(self) -> None:
        backlog: List[Tuple[float, int]] = [(0.0, t) for t in sorted(self._tasks)]
        in_flight: Dict[int, Tuple[Any, float]] = {}  # task_id -> (async, deadline)
        while backlog or in_flight:
            now = time.monotonic()
            while backlog and backlog[0][0] <= now:
                _ready_at, task_id = backlog.pop(0)
                handle = self._pool.apply_async(_worker, (self._payload(task_id),))
                deadline = now + self._timeout if self._timeout else float("inf")
                in_flight[task_id] = (handle, deadline)
            now = time.monotonic()
            for task_id, (handle, deadline) in list(in_flight.items()):
                if handle.ready():
                    del in_flight[task_id]
                    try:
                        result = handle.get()
                    except Exception as exc:
                        self._record_failure(task_id, repr(exc), backlog)
                    else:
                        self._done(result)
                elif now > deadline:
                    # the worker is hung; abandon the handle (the pool
                    # process is reclaimed at pool teardown) and treat it
                    # as a failed attempt.
                    del in_flight[task_id]
                    self.timeouts += 1
                    self._record_failure(
                        task_id, f"timeout after {self._timeout}s", backlog
                    )
            if backlog or in_flight:
                time.sleep(_POLL_S)


def run_multiprocess_search(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    num_workers: Optional[int] = None,
    config: Optional[SearchConfig] = None,
    *,
    query_blocks: int = 1,
    start_method: Optional[str] = None,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    fault_injector: Optional[FaultInjector] = None,
    index_path: Optional[str] = None,
    memory_budget_mb: Optional[float] = None,
) -> SearchReport:
    """Search with real OS processes; returns wall-clock in virtual_time.

    The mass-sorted query list is cut into contiguous blocks —
    ``query_blocks`` of them at least, more if the grid would otherwise
    have fewer tasks than workers — and every block is an independent
    task scored against the whole database, so a task's top-tau is final
    for its queries.  The direct searcher — built here, on ``database``,
    whose mass index it caches for later searches — and the packed
    queries travel to workers once, through the task context (see module
    docstring); task payloads are id tuples.

    ``start_method`` pins the multiprocessing context ("fork" or
    "spawn"); the default picks fork where available.  Supervision knobs
    (see module docstring): ``max_retries`` / ``retry_policy`` bound
    resubmissions of failing tasks, ``task_timeout`` (seconds) detects
    hung workers, ``checkpoint_path`` + ``resume`` persist and reuse
    completed-task state, and ``fault_injector`` deterministically
    injects failures for tests.

    ``index_path`` switches transport from ship-once to *mmap-once*: the
    path must name a ``repro.store`` directory (fingerprint-validated
    against ``database`` up front) and workers open it themselves — only
    the path string crosses the process boundary, so ``bytes_shipped``
    drops to the query blocks plus task ids, and hits remain bitwise
    identical to the direct path.  Every worker searches the store
    through a :class:`~repro.core.streaming.StreamingSearcher`: a
    resident store is memory-mapped whole (a ``memory_budget_mb`` is
    refused with :class:`~repro.errors.ConfigError`); a *partitioned*
    store is streamed, a task opening only the partitions its block's
    mass range meets (double-buffered prefetch, optional per-worker
    ``memory_budget_mb``).
    """
    config = config or SearchConfig()
    if num_workers is None:
        num_workers = max(1, (os.cpu_count() or 2) - 1)
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    policy = retry_policy or RetryPolicy(max_retries=max_retries)
    store = loaded = None
    if index_path is not None:
        from repro.core.streaming import StreamingSearcher
        from repro.store import open_any_index

        # opened once here so a refused config or budget, a foreign
        # database or a torn buffer fails typed before any work; in a
        # worker it would be retried
        searcher = StreamingSearcher(
            open_any_index(index_path),
            config,
            database=database,
            memory_budget_mb=memory_budget_mb,
        )
        store, loaded = searcher.store, searcher.loaded
    nblocks = effective_query_blocks(query_blocks, num_workers, len(queries))
    blocks = partition_queries_by_mass(queries, nblocks)
    method = start_method or ("spawn" if os.name == "nt" else "fork")
    obs = get_metrics()
    context: Dict[str, Any] = {
        "query_blocks": blocks,
        "config": config,
        "injector": fault_injector,
        "metrics": obs.enabled,
    }
    if store is not None:
        context["index_path"] = str(index_path)
        context["memory_budget_mb"] = memory_budget_mb
        database_bytes = store.database_bytes if loaded is not None else store.row_bytes
        ship_bytes = len(str(index_path).encode())
    else:
        database_bytes = ship_bytes = database.nbytes  # its to_buffers() arrays
    # one task per query block; an empty database has nothing to search
    tasks = {block_id: block_id for block_id in range(nblocks)} if len(database) else {}
    num_tasks = len(tasks)

    # Transport accounting: what actually crosses a process boundary
    # (context + id tuples per task) vs. the replicated baseline that
    # re-ships the database and each task's queries.  Fork workers
    # inherit one copy of the context; the pool initializer pickles one
    # to every spawned worker.  With a store, the database contribution
    # collapses to the path string; the mapped bytes are reported
    # separately as index_mmap_bytes (they travel through the page
    # cache, not a process boundary).
    block_bytes = [sum(q.nbytes for q in block) for block in blocks]
    copies = num_workers if num_workers > 1 and method != "fork" else 1
    context_bytes = copies * (ship_bytes + sum(block_bytes))
    bytes_tasks = _TASK_WIRE_BYTES * num_tasks
    bytes_replicated = sum(database_bytes + block_bytes[bid] for bid in tasks.values())

    manager: Optional[CheckpointManager] = None
    tasks_resumed = 0
    # what a resumed checkpoint already holds: its hit columns and counters
    hit_parts: List[HitColumns] = []
    stats = ShardStats()
    if checkpoint_path is not None:
        fingerprint = {
            "num_queries": len(queries),
            "tau": config.tau,
            "delta": config.delta,
            "scorer": config.scorer,
            "query_blocks": nblocks,
        }
        if resume and os.path.exists(checkpoint_path):
            manager = CheckpointManager.resume(checkpoint_path, fingerprint, config.tau)
            tasks_resumed = len(manager.completed_tasks)
            for done in manager.completed_tasks:
                tasks.pop(done, None)
            hit_parts.append(manager.merged_hits().columns)
            stats = ShardStats(**{k: manager.counters.get(k, 0) for k in _CHECKPOINTED})
        else:
            manager = CheckpointManager(checkpoint_path, fingerprint, config.tau)

    start = time.perf_counter()
    if store is None:
        # built once, on the caller's database, which caches its mass
        # index as search_serial's searcher does: fork workers and the
        # inline path search it as is, spawn workers rebuild it unpickled
        context["searcher"] = ShardSearcher(
            database, config, max_parent_mass=heaviest_parent_mass(queries)
        )
    _install_context(context)
    try:
        with obs.span(
            "multiproc.supervise",
            category="supervise",
            workers=num_workers,
            tasks=num_tasks,
        ):
            if num_workers == 1:
                supervisor = _Supervisor(None, tasks, policy, task_timeout, manager)
                supervisor.run_inline()
            else:
                ctx = mp.get_context(method)
                # fork inherits the context copy-on-write; spawn ships it once
                # per worker through the initializer.
                initargs = (None,) if method == "fork" else (context,)
                with ctx.Pool(
                    processes=num_workers, initializer=_worker_init, initargs=initargs
                ) as pool:
                    supervisor = _Supervisor(pool, tasks, policy, task_timeout, manager)
                    supervisor.run_pooled()
    finally:
        _install_context(None)
    obs.count("multiproc.dispatched", len(supervisor.results) + supervisor.retries)
    obs.count("multiproc.retries", supervisor.retries)
    obs.count("multiproc.timeouts", supervisor.timeouts)
    obs.count("multiproc.quarantined", len(supervisor.failed_tasks))

    for task_id in sorted(supervisor.results):
        columns, worker_stats, worker_snap = supervisor.results[task_id]
        hit_parts.append(columns)
        obs.merge_snapshot(worker_snap)
        stats.merge(worker_stats)
    if manager is not None:
        manager.flush()
    # the columns stay columns: concatenated (each query id arrives from
    # exactly one task, resumed or run, so nothing folds) and laid out in
    # the caller's query order, whatever order the blocks ran in; a query
    # with no candidates anywhere (or only quarantined tasks) reports []
    query_ids = dict.fromkeys(q.query_id for q in queries)
    hits = select_queries(merge_rank_hits(hit_parts, config.tau), query_ids)
    wall = time.perf_counter() - start
    extras = {
        "query_blocks": nblocks,
        "wall_time": wall,
        **stats.report_extras(),
        "candidates_per_second": stats.candidates_evaluated / wall if wall > 0 else 0.0,
        "bytes_shipped": context_bytes + bytes_tasks,
        "bytes_shipped_setup": context_bytes,
        "bytes_shipped_tasks": bytes_tasks,
        "bytes_shipped_replicated": bytes_replicated,
        "tasks_total": num_tasks,
        "tasks_completed": len(supervisor.results),
        "tasks_resumed": tasks_resumed,
        "recovery_retries": supervisor.retries,
        "recovery_timeouts": supervisor.timeouts,
        "failed_tasks": supervisor.failed_tasks,
        "degraded": bool(supervisor.failed_tasks),
    }
    if store is not None:
        extras["index_path"] = str(index_path)
        if loaded is not None:
            extras["index_mmap_bytes"] = int(loaded.nbytes)
        else:
            extras["num_partitions"] = int(store.num_partitions)
            extras["index_stream_bytes"] = int(store.row_bytes)
        extras["index_provenance"] = store.provenance()
    return SearchReport(
        algorithm="multiprocess",
        num_ranks=num_workers,
        hits=hits,
        candidates_evaluated=stats.candidates_evaluated,
        virtual_time=wall,
        extras=extras,
    )
