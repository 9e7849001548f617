"""Real shared-nothing parallel engine using multiprocessing.

The simulated cluster answers "how would this scale to 128 ranks"; this
engine answers "does the decomposition actually speed up real execution
on this machine".  It runs a ``(shard, query block)`` task grid across
worker *processes* (true parallelism, no GIL).

The decomposition is query-major, after the paper.  Algorithm A's point
is that queries stay put and each rank ends holding the final top-tau
for *its own* queries, so nothing has to be merged by a master;
Algorithm B's is that sorting by parent m/z first bounds what a block of
queries can touch.  Here the query list is mass-sorted once and cut
into contiguous blocks (:func:`~repro.core.partition.partition_queries_by_mass`),
so every block is one mass range: the candidate-major sweep coalesces a
block as well as it would the whole list, and a block's windows cover
one slice of the mass index.  The other axis is whatever the search is
served from:

* no store (direct scoring): the database is *not* split — one shard,
  the whole database, shared copy-on-write under fork and shipped once
  per worker under spawn — and all parallelism comes from the query
  blocks.  Each query pays its window join, spectrum batch and top-tau
  exactly once, and a task's result is final for its queries: the
  parent has nothing to merge.
* a resident store: the store's own shards, query blocks on top.
* a partitioned store: like direct, one whole-store "shard" and the
  query blocks carry the parallelism — each block's streamed pass opens
  only the partitions its mass range meets.

``query_blocks`` is a floor: the grid is widened until it has at least
one task per worker (:func:`~repro.core.partition.effective_query_blocks`).

Transport is zero-copy by reference: the shard buffers and the packed
query blocks are installed in a module-level *task context* exactly once
— inherited copy-on-write under fork, shipped once per worker through
the pool initializer under spawn — and each task is just a
``(task_id, attempt, shard_id, block_id)`` id tuple.  Per-task
serialization therefore drops from O(shard + queries) to O(1), retries
resubmit four integers instead of re-pickling buffers, and the report's
``bytes_shipped`` extras quantify the saving against the replicated
per-task baseline.  Workers keep a per-process cache of
``ShardSearcher`` objects keyed by shard id (and of unpacked query
blocks keyed by block id), so a shard's mass index is built, and a
store's shard mapped, once per process, not once per task.  Results
come back as flat NumPy columns
(:class:`~repro.scoring.hits.HitColumns`) — eight
buffers per task instead of one pickled ``Hit`` per retained hit — and
stay columns in the parent: the report's hits are the tasks' columns
concatenated in the caller's query order (a
:class:`~repro.scoring.hits.HitTable`), top-tau folded only where a
query id arrives from more than one shard, and unpacked into ``Hit``
lists only for a checkpoint.

Supervision: tasks are dispatched with ``apply_async`` under a
supervisor loop rather than ``pool.map``.  A task that raises (or, with
``task_timeout`` set, hangs past its deadline) is resubmitted with
exponential backoff up to ``RetryPolicy.max_retries`` times; a task
that keeps failing is *quarantined* — the run completes with the
surviving results plus a ``failed_tasks`` manifest in the report
(graceful degradation) instead of aborting.  Because every task is an
independent (shard, query-block) cell and merging is deterministic, a
retried task reproduces exactly what the first attempt would have
produced.  ``checkpoint_path`` persists merged top-tau state after
completed tasks so a killed run can be resumed (``resume=True``)
without rescoring finished work.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.partition import effective_query_blocks, partition_queries_by_mass
from repro.core.results import SearchReport, merge_rank_hits, select_queries
from repro.core.search import ShardSearcher, ShardStats, index_compat_problems
from repro.faults.checkpoint import CheckpointManager
from repro.faults.injector import FaultInjector
from repro.faults.supervisor import RetryPolicy
from repro.obs.metrics import MetricsRegistry, get_metrics, use_registry
from repro.scoring.hits import (
    HitColumns,
    TopHitList,
    pack_hit_columns,
    unpack_hit_columns,
)
from repro.spectra.spectrum import Spectrum

_SpectrumWire = Tuple[np.ndarray, np.ndarray, float, int, int]
_ShardWire = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: a task on the wire: (task_id, attempt, shard_id, block_id) — ids only
_TaskWire = Tuple[int, int, int, int]

#: supervisor poll interval (seconds) — bounds timeout detection lag
_POLL_S = 0.005

#: conservative pickled size of one _TaskWire (four small ints + framing)
_TASK_WIRE_BYTES = 32


def _pack_spectrum(s: Spectrum) -> _SpectrumWire:
    return (np.asarray(s.mz), np.asarray(s.intensity), s.precursor_mz, s.charge, s.query_id)


def _unpack_spectrum(wire: _SpectrumWire) -> Spectrum:
    mz, intensity, precursor, charge, qid = wire
    return Spectrum(mz, intensity, precursor, charge, qid)


def _spectrum_wire_nbytes(wire: _SpectrumWire) -> int:
    mz, intensity, _precursor, _charge, _qid = wire
    return int(mz.nbytes + intensity.nbytes + 24)


def _shard_wire_nbytes(wire: _ShardWire) -> int:
    return int(sum(np.asarray(part).nbytes for part in wire))


# -- zero-copy task context ----------------------------------------------
#
# The context holds everything a task references by id.  Under fork it is
# inherited copy-on-write from the parent (set *before* the pool spawns);
# under spawn it is pickled once per worker via the pool initializer —
# either way, per-task payloads never carry buffers again.

_TASK_CONTEXT: Optional[Dict[str, Any]] = None
#: per-process state: {"searchers": {shard_id: searcher},
#: "queries": {block_id: [Spectrum]}, "store": StoredIndex (opened once)}
_PROCESS_CACHE: Dict[str, Any] = {}


def _install_context(context: Optional[Dict[str, Any]]) -> None:
    global _TASK_CONTEXT
    _TASK_CONTEXT = context
    _PROCESS_CACHE.clear()


def _worker_init(context: Optional[Dict[str, Any]] = None) -> None:
    """Pool initializer.  ``context is None`` means fork: the module
    global was inherited from the parent; only the cache (also inherited)
    must be reset so each process rebuilds its own searchers."""
    if context is not None:
        _install_context(context)
    else:
        _PROCESS_CACHE.clear()


def _cached_queries(block_id: int) -> List[Spectrum]:
    cache = _PROCESS_CACHE.setdefault("queries", {})
    queries = cache.get(block_id)
    if queries is None:
        wires = _TASK_CONTEXT["query_blocks"][block_id]
        queries = cache[block_id] = [_unpack_spectrum(w) for w in wires]
    return queries


def _cached_searcher(shard_id: int) -> Tuple[ShardSearcher, float]:
    """Per-process searcher for ``shard_id``; returns ``(searcher, load_s)``.

    ``load_s`` is the wall-clock seconds spent opening a store on *this*
    call — zero on a cache hit and without a store — so callers charge
    the mapping once per process, not once per task.  With an
    ``index_path`` in the context (mmap-once transport),
    the shard and its fragment index come out of the persisted store as
    read-only memory maps: nothing but the path string ever crossed the
    process boundary, and clean index pages are shared between workers
    by the OS page cache.
    """
    cache = _PROCESS_CACHE.setdefault("searchers", {})
    searcher = cache.get(shard_id)
    if searcher is not None:
        return searcher, 0.0
    index_path = _TASK_CONTEXT.get("index_path")
    if _TASK_CONTEXT.get("streamed"):
        # Partitioned store: the one "shard" is the whole store, streamed
        # through a StreamingSearcher.  Only the path string crossed the
        # process boundary; the directory and the database buffers map
        # once per process, and partition blobs stream through the
        # double buffer at search time.
        from repro.core.streaming import StreamingSearcher
        from repro.store import open_any_index

        t0 = time.perf_counter()
        store = open_any_index(index_path)
        searcher = cache[shard_id] = StreamingSearcher(
            store,
            _TASK_CONTEXT["config"],
            memory_budget_mb=_TASK_CONTEXT.get("memory_budget_mb"),
        )
        return searcher, time.perf_counter() - t0
    if index_path is not None:
        from repro.store import open_index

        store = _PROCESS_CACHE.get("store")
        if store is None:
            store = _PROCESS_CACHE["store"] = open_index(index_path)
        loaded = store.load_shard(shard_id)
        searcher = cache[shard_id] = ShardSearcher(
            loaded.shard, _TASK_CONTEXT["config"], index=loaded.index
        )
        return searcher, loaded.seconds
    shard = ProteinDatabase.from_buffers(*_TASK_CONTEXT["shard_wires"][shard_id])
    searcher = cache[shard_id] = ShardSearcher(shard, _TASK_CONTEXT["config"])
    return searcher, 0.0


def _worker(
    task: _TaskWire,
) -> Tuple[int, HitColumns, ShardStats, Optional[Dict[str, Any]]]:
    """Search one (shard, query block) pair; runs in a worker process.

    With telemetry on (``context["metrics"]``) the task runs under a
    fresh per-task registry, so nested spans (store loads, the shard
    search itself) ship back in the returned snapshot and the supervisor
    folds them into the run-wide registry — one timeline lane per worker
    process in the Chrome-trace export.
    """
    task_id, attempt, shard_id, block_id = task

    def execute() -> Tuple[HitColumns, ShardStats]:
        injector = _TASK_CONTEXT.get("injector")
        if injector is not None:
            injector.fire(task_id, attempt)
        searcher, loaded = _cached_searcher(shard_id)
        queries = _cached_queries(block_id)
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
            shard=shard_id,
            block=block_id,
            attempt=attempt,
        ):
            columns, stats = execute()
    return task_id, columns, stats, registry.snapshot()


class _Supervisor:
    """Drives tasks through a pool with retries, backoff and timeouts.

    The backlog is a min-heap keyed by ready time, so claiming the next
    runnable task is O(log n) instead of the O(n^2) list scan-and-remove
    a large task count would otherwise pay per poll.
    """

    def __init__(
        self,
        pool: Optional[Any],
        tasks: Dict[int, Tuple[int, int]],
        policy: RetryPolicy,
        task_timeout: Optional[float],
    ):
        self._pool = pool
        self._tasks = tasks  # task_id -> (shard_id, block_id)
        self._policy = policy
        self._timeout = task_timeout
        self._attempts: Dict[int, int] = {t: 0 for t in tasks}  # failed attempts so far
        self.retries = 0
        self.timeouts = 0
        self.failed_tasks: List[Dict[str, Any]] = []
        # task_id -> (hit columns, stats, metrics snapshot or None)
        self.results: Dict[
            int, Tuple[HitColumns, ShardStats, Optional[Dict[str, Any]]]
        ] = {}

    def _payload(self, task_id: int) -> _TaskWire:
        shard_id, block_id = self._tasks[task_id]
        attempt = self._attempts[task_id]  # 0-based: prior failed tries
        return (task_id, attempt, shard_id, block_id)

    def _record_failure(self, task_id: int, error: str, backlog: List[Tuple[float, int]]) -> None:
        self._attempts[task_id] += 1
        failed = self._attempts[task_id]
        if self._policy.allows_retry(failed):
            self.retries += 1
            heapq.heappush(backlog, (time.monotonic() + self._policy.delay(failed), task_id))
        else:
            self.failed_tasks.append(
                {"task_id": task_id, "attempts": failed, "error": error}
            )

    def run_inline(self) -> None:
        """Single-process path: retries and quarantine, but no timeout
        enforcement (a hung task would hang the caller too)."""
        backlog: List[Tuple[float, int]] = [(0.0, t) for t in sorted(self._tasks)]
        heapq.heapify(backlog)
        while backlog:
            ready_at, task_id = heapq.heappop(backlog)
            delay = ready_at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            try:
                tid, columns, stats, snap = _worker(self._payload(task_id))
            except Exception as exc:
                self._record_failure(task_id, repr(exc), backlog)
            else:
                self.results[tid] = (columns, stats, snap)

    def run_pooled(self) -> None:
        backlog: List[Tuple[float, int]] = [(0.0, t) for t in sorted(self._tasks)]
        heapq.heapify(backlog)
        in_flight: Dict[int, Tuple[Any, float]] = {}  # task_id -> (async, deadline)
        while backlog or in_flight:
            now = time.monotonic()
            while backlog and backlog[0][0] <= now:
                _ready_at, task_id = heapq.heappop(backlog)
                handle = self._pool.apply_async(_worker, (self._payload(task_id),))
                deadline = now + self._timeout if self._timeout else float("inf")
                in_flight[task_id] = (handle, deadline)
            now = time.monotonic()
            for task_id, (handle, deadline) in list(in_flight.items()):
                if handle.ready():
                    del in_flight[task_id]
                    try:
                        tid, columns, stats, snap = handle.get()
                    except Exception as exc:
                        self._record_failure(task_id, repr(exc), backlog)
                    else:
                        self.results[tid] = (columns, stats, snap)
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
    checkpoint_interval: int = 1,
    resume: bool = False,
    fault_injector: Optional[FaultInjector] = None,
    index_path: Optional[str] = None,
    memory_budget_mb: Optional[float] = None,
) -> SearchReport:
    """Search with real OS processes; returns wall-clock in virtual_time.

    The mass-sorted query list is cut into contiguous blocks —
    ``query_blocks`` of them at least, more if the grid would otherwise
    have fewer tasks than workers — and every (shard, query block) pair
    is an independent task.  Without a store there is one shard, the
    whole database scored directly, so a task's top-tau is final for its
    queries; a store brings its own shards, and candidate sets over
    shards partition the database's candidate set, so merging per-task
    top-tau lists reproduces the serial output exactly — the same
    argument Algorithms A/B rest on.  Shard buffers and packed queries
    travel to workers once, through the task context (see module
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
    against ``database`` up front), the shard layout is the store's, and
    workers memory-map their shards and fragment indexes from disk —
    only the path string crosses the process boundary, so
    ``bytes_shipped`` drops to the packed queries plus task ids, and
    hits remain bitwise identical to the direct path.

    When ``index_path`` names a *partitioned* store
    (``repro.index_store_partitioned/3``) the grid has the direct path's
    shape — one whole-store shard, the query blocks carry the
    parallelism: a task streams the partitions its block's mass range
    meets through a :class:`~repro.core.streaming.StreamingSearcher`
    (double-buffered prefetch, optional per-worker ``memory_budget_mb``),
    its top-tau is final for its queries, and hits stay bitwise identical
    to the direct and the serial streamed searches.
    """
    config = config or SearchConfig()
    if num_workers is None:
        num_workers = max(1, (os.cpu_count() or 2) - 1)
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    policy = retry_policy or RetryPolicy(max_retries=max_retries)
    store = None
    streamed = False
    if index_path is not None:
        from repro.errors import IndexCompatError
        from repro.store import open_any_index
        from repro.store.partitioned import PartitionedIndex

        store = open_any_index(index_path)
        streamed = isinstance(store, PartitionedIndex)
        if streamed:
            from repro.core.streaming import streaming_compat_problems

            problems = streaming_compat_problems(config)
            if problems:
                raise IndexCompatError(
                    "this search cannot be streamed from the partitioned "
                    "index: " + "; ".join(problems)
                )
            store.validate_against(database)
            # the store stays whole: the query axis carries the parallelism
            num_shards = 1 if store.num_partitions else 0
            shards = None
            shard_bytes = [store.blob_bytes]
        else:
            problems = index_compat_problems(config)
            if problems:
                raise IndexCompatError(
                    "this search cannot be served from the persisted index: "
                    + "; ".join(problems)
                )
            store.validate_against(database)
            num_shards = store.num_shards
            shards = None
            shard_bytes = [layout.shard_nbytes for layout in store.layouts]
    else:
        # the database stays whole: the query axis carries the parallelism
        shards = [database] if len(database) > 0 else []
        num_shards = len(shards)
    nblocks = effective_query_blocks(query_blocks, num_shards, num_workers, len(queries))
    blocks = partition_queries_by_mass(queries, nblocks)
    block_wires = [[_pack_spectrum(q) for q in block] for block in blocks]
    obs = get_metrics()
    context: Dict[str, Any] = {
        "query_blocks": block_wires,
        "config": config,
        "injector": fault_injector,
        "metrics": obs.enabled,
    }
    if store is not None:
        context["index_path"] = str(index_path)
        if streamed:
            context["streamed"] = True
            context["memory_budget_mb"] = memory_budget_mb
    else:
        shard_wires = [shard.to_buffers() for shard in shards]
        context["shard_wires"] = shard_wires
        shard_bytes = [_shard_wire_nbytes(w) for w in shard_wires]
    # shard-major task ids; the checkpoint fingerprint pins the grid shape
    tasks = {
        shard_id * nblocks + block_id: (shard_id, block_id)
        for shard_id in range(num_shards)
        for block_id in range(nblocks)
    }
    num_tasks = len(tasks)

    # Transport accounting: what actually crosses a process boundary
    # (context once + id tuples per task) vs. the replicated baseline
    # that re-ships each task's shard and the full query set.  With a
    # store, the shard contribution collapses to the path string; the
    # mapped bytes are reported separately as index_mmap_bytes (they
    # travel through the page cache, not a process boundary).
    block_bytes = [sum(_spectrum_wire_nbytes(w) for w in wires) for wires in block_wires]
    shard_ship_bytes = len(str(index_path).encode()) if store is not None else sum(shard_bytes)
    context_bytes = shard_ship_bytes + sum(block_bytes)
    bytes_tasks = _TASK_WIRE_BYTES * num_tasks
    bytes_replicated = sum(
        shard_bytes[sid] + block_bytes[bid] for sid, bid in tasks.values()
    )

    manager: Optional[CheckpointManager] = None
    tasks_resumed = 0
    if checkpoint_path is not None:
        fingerprint = {
            "num_shards": num_shards,
            "num_queries": len(queries),
            "tau": config.tau,
            "delta": config.delta,
            "scorer": config.scorer,
            "query_blocks": nblocks,
        }
        if resume and os.path.exists(checkpoint_path):
            manager = CheckpointManager.resume(
                checkpoint_path, fingerprint, config.tau, checkpoint_interval
            )
            tasks_resumed = len(manager.completed_tasks)
            for done in manager.completed_tasks:
                tasks.pop(done, None)
        else:
            manager = CheckpointManager(
                checkpoint_path, fingerprint, config.tau, checkpoint_interval
            )

    start = time.perf_counter()
    _install_context(context)
    try:
        with obs.span(
            "multiproc.supervise",
            category="supervise",
            workers=num_workers,
            tasks=num_tasks,
        ):
            if num_workers == 1:
                supervisor = _Supervisor(None, tasks, policy, task_timeout)
                supervisor.run_inline()
            else:
                method = start_method or ("spawn" if os.name == "nt" else "fork")
                ctx = mp.get_context(method)
                # fork inherits the context copy-on-write; spawn ships it once
                # per worker through the initializer.
                initargs = (None,) if method == "fork" else (context,)
                with ctx.Pool(
                    processes=num_workers, initializer=_worker_init, initargs=initargs
                ) as pool:
                    supervisor = _Supervisor(pool, tasks, policy, task_timeout)
                    supervisor.run_pooled()
    finally:
        _install_context(None)
    obs.count("multiproc.dispatched", len(supervisor.results) + supervisor.retries)
    obs.count("multiproc.retries", supervisor.retries)
    obs.count("multiproc.timeouts", supervisor.timeouts)
    obs.count("multiproc.quarantined", len(supervisor.failed_tasks))

    stats = ShardStats()
    task_columns: List[HitColumns] = []
    for task_id in sorted(supervisor.results):
        columns, worker_stats, worker_snap = supervisor.results[task_id]
        task_columns.append(columns)
        obs.merge_snapshot(worker_snap)
        stats.merge(worker_stats)
        if manager is not None:
            manager.record(
                task_id,
                unpack_hit_columns(columns),
                {
                    "candidates_evaluated": worker_stats.candidates_evaluated,
                    "batches": worker_stats.batches,
                    "rows_scored": worker_stats.rows_scored,
                    "index_rows": worker_stats.index_rows,
                },
            )
    # caller's query order, whatever order the blocks ran in; a query
    # with no candidates anywhere (or only quarantined tasks) reports []
    query_ids = dict.fromkeys(q.query_id for q in queries)
    if manager is not None:
        # a checkpoint keeps Hit lists: the state a resumed run restores
        manager.flush()
        merged = manager.merged_hits()
        hits = {qid: merged.get(qid, []) for qid in query_ids}
        candidates = manager.counters.get("candidates_evaluated", 0)
        batches = manager.counters.get("batches", 0)
        rows_scored = manager.counters.get("rows_scored", 0)
        index_rows = manager.counters.get("index_rows", 0)
    else:
        # the workers' columns stay columns: concatenated, and folded only
        # where a query id arrived from more than one task (store shards)
        hits = select_queries(merge_rank_hits(task_columns, config.tau), query_ids)
        candidates = stats.candidates_evaluated
        batches = stats.batches
        rows_scored = stats.rows_scored
        index_rows = stats.index_rows
    wall = time.perf_counter() - start
    extras = {
        "num_shards": num_shards,
        "query_blocks": nblocks,
        "wall_time": wall,
        "batches": batches,
        "rows_scored": rows_scored,
        "index_rows": index_rows,
        "index_load_time": stats.index_load_time,
        "index_probe_fraction": index_rows / rows_scored if rows_scored else 0.0,
        "sweep_queries": stats.sweep_queries,
        "sweep_cohorts": stats.sweep_cohorts,
        "candidates_per_second": candidates / wall if wall > 0 else 0.0,
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
    if streamed:
        extras["index_path"] = str(index_path)
        extras["num_partitions"] = int(store.num_partitions)
        extras["index_stream_bytes"] = int(store.blob_bytes)
        extras["index_decoded_bytes"] = int(store.decoded_bytes)
        extras["index_provenance"] = store.provenance()
    elif store is not None:
        extras["index_path"] = str(index_path)
        extras["index_mmap_bytes"] = int(store.nbytes)
        extras["index_provenance"] = store.provenance()
    return SearchReport(
        algorithm="multiprocess",
        num_ranks=num_workers,
        hits=hits,
        candidates_evaluated=candidates,
        virtual_time=wall,
        extras=extras,
    )
