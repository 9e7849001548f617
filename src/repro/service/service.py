"""The long-lived search service: admission, coalescing, supervision.

:class:`SearchService` turns the batch search kernel into a resident
server.  One scorer thread owns one whole-database searcher over either
a persisted index store (memory-mapped, or streamed if partitioned) or
an in-process database (scored directly, no fragment index).  Clients
submit requests of spectra; queued requests are coalesced into
mass-sorted batches so the candidate-major sweep kernel forms cohorts
*across* requests — the cross-request analogue of PR 4's within-batch
coalescing.

One scorer: it forms a batch when it is free to score it, so everything
admitted while the block ahead was being scored joins the next one.
Threads scoring side by side convoy on the GIL (2-3x slower than one:
docs/service.md, "Concurrency model"), and rebuilding the searcher
after a crash costs less than one request's latency, so there is no
pool and no standby: a dead scorer is rebuilt in place.

Correctness contract: batch composition is timing-dependent, execution
is not.  The sweep kernel is bitwise identical to the per-query path
for any grouping of queries, every completed query scored against the
whole database, and :class:`~repro.scoring.hits.TopHitList` is
order-independent — so the hits of every *completed* query are bitwise
identical to a fault-free serial run of the same queries, no matter how requests were
batched, retried after crashes, or raced by other clients.  Faults,
deadlines, and load can only change *which* queries complete, never
what a completed query returns.

Failure semantics (all typed, never a hang):

* queue full → :class:`~repro.errors.ServiceOverloadedError` (``shed``
  immediately, ``block`` after ``admission_timeout``);
* not running / draining / scorer dead for good →
  :class:`~repro.errors.ServiceUnavailableError`;
* deadline passed → response status ``partial``/``expired``, completed
  queries keep their hits;
* batch abandoned after the retry budget → response status ``failed``;
* scorer death (a :class:`~repro.errors.WorkerCrashError`, or its
  searcher failing to build) → its batch is re-queued and the scorer
  rebuilt, ``workers - 1 + max_worker_restarts`` times in all
  (``degraded`` in :meth:`SearchService.health` once more than
  ``max_worker_restarts`` are spent); the last scorer dying with no
  budget fails all outstanding requests typed.  The budget is spent in
  the critical section that records the death, so admission never sees
  "no workers" while a rebuild is under way.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.search import ShardSearcher
from repro.core.streaming import StreamingSearcher, check_store_servable
from repro.errors import (
    ConfigError,
    ReproError,
    ServiceOverloadedError,
    ServiceUnavailableError,
    WorkerCrashError,
)
from repro.faults.injector import ServiceFaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.metrics import get_metrics
from repro.scoring.hits import TopHitList
from repro.service.config import ServiceConfig
from repro.service.request import RequestHandle, SearchResponse
from repro.spectra.spectrum import Spectrum
from repro.store.index_store import StoredIndex, open_any_index

#: buckets for the batch-size histogram (queries per executed batch)
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: the monotonic counters of :meth:`SearchService.stats`
_COUNTERS = (
    "admitted", "rejected_overload", "rejected_unavailable", "completed",
    "partial", "expired", "failed", "batches", "batch_retries",
    "batches_failed", "worker_restarts", "max_queue_depth", "coalesced_requests",
)

#: scorer poll granularity; every wait in the service is bounded by this
#: (or the next retry's ready time), so no state change can be missed
#: for longer than one tick and nothing ever blocks indefinitely
_TICK = 0.05


@dataclass
class _Entry:
    """One query of a batch attempt: its origin, and its spectrum
    re-labelled with a service-wide unique id."""

    request: RequestHandle
    orig_qid: int
    spectrum: Spectrum


@dataclass
class _Batch:
    """One unit of scorer execution: coalesced requests, retry state."""

    seq: int
    requests: List[RequestHandle]
    failures: int = 0


class SearchService:
    """A resident, supervised, coalescing search server.

    Construct with exactly one source — ``store`` (a
    :class:`~repro.store.index_store.StoredIndex` or a path to one) or
    ``database`` — then :meth:`start`,
    :meth:`submit`/:meth:`search` from any number of threads, and
    :meth:`stop` to drain.  With a store the scorer owns a
    :class:`~repro.core.streaming.StreamingSearcher` over its rows, and a
    configuration no store can serve is refused here with
    :class:`~repro.errors.IndexCompatError`.  A partitioned store keeps
    resident memory at directory + double buffer regardless of store
    size, and ``memory_budget_mb`` bounds the stream; a resident store
    is mapped whole and refuses a budget (:meth:`start` raises
    :class:`~repro.errors.ConfigError`).
    """

    def __init__(
        self,
        config: SearchConfig,
        service_config: Optional[ServiceConfig] = None,
        *,
        database: Optional[ProteinDatabase] = None,
        store: Union[StoredIndex, str, None] = None,
        fault_plan: Optional[FaultPlan] = None,
        memory_budget_mb: Optional[float] = None,
    ):
        if (database is None) == (store is None):
            raise ConfigError(
                "SearchService needs exactly one of database= or store="
            )
        self.config = config
        self.service_config = service_config or ServiceConfig()
        self._database = database
        self._store: Optional[StoredIndex] = (
            open_any_index(store) if isinstance(store, (str, os.PathLike)) else store
        )
        self._memory_budget_mb = memory_budget_mb
        if store is not None:
            check_store_servable(config, "service")
        self._injector: Optional[ServiceFaultInjector] = None
        if fault_plan is not None and fault_plan.service is not None:
            self._injector = ServiceFaultInjector(fault_plan.service)

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # the scorer waits for work
        self._space = threading.Condition(self._lock)  # blocked submitters
        self._idle = threading.Condition(self._lock)  # drain waits for quiet
        self._state = "new"  # new -> running -> draining -> stopped
        self._pending: Deque[RequestHandle] = deque()
        self._retries: List[Tuple[float, int, _Batch]] = []
        self._in_flight = 0
        self._thread: Optional[threading.Thread] = None
        #: the scorer has its searcher and is taking batches
        self._alive = False
        #: scorer deaths left until the service is dead: the restarts,
        #: the ``workers - 1`` a pool of standbys absorbed, and the last
        self._lives = (
            self.service_config.max_worker_restarts + self.service_config.workers
        )
        self._next_request_id = itertools.count(1)
        self._next_uid = itertools.count(0)
        self._next_batch_seq = itertools.count(0)
        self._start_error: Optional[BaseException] = None
        self._counters: Dict[str, float] = dict.fromkeys(_COUNTERS, 0)

    # -- lifecycle --------------------------------------------------------

    def start(self, timeout: float = 30.0) -> "SearchService":
        """Start the scorer and wait for its searcher; raises if it fails
        to build."""
        with self._lock:
            if self._state != "new":
                raise ServiceUnavailableError(
                    f"service cannot start from state {self._state!r}"
                )
            self._state = "running"
            self._thread = threading.Thread(
                target=self._scorer_main, name="repro-service-scorer", daemon=True
            )
        self._thread.start()
        deadline = time.monotonic() + timeout
        with self._lock:
            while not self._alive:
                err = self._start_error
                if err is None and time.monotonic() >= deadline:
                    err = ServiceUnavailableError(
                        f"scorer failed to initialize within {timeout} s"
                    )
                if err is not None:
                    self._fail_all_locked(f"service failed to start: {err}")
                    self._state = "stopped"
                    self._work.notify_all()
                    raise err
                self._idle.wait(_TICK)
        return self

    def __enter__(self) -> "SearchService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) in-flight and queued work
        completes first, bounded by ``drain_timeout``.  Idempotent.
        Every request still outstanding afterwards gets a typed
        ``failed`` response — an admitted request always terminates."""
        cfg = self.service_config
        with self._lock:
            if self._state == "stopped":
                return
            self._state = "draining" if drain else "stopped"
            self._work.notify_all()
            self._space.notify_all()
            if drain:
                deadline = time.monotonic() + cfg.drain_timeout
                while self._pending or self._retries or self._in_flight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._lives:
                        break
                    self._idle.wait(min(_TICK, remaining))
            self._fail_all_locked("service stopped before the request completed")
            self._state = "stopped"
            self._work.notify_all()
            self._space.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=cfg.drain_timeout + 5.0)

    # -- admission --------------------------------------------------------

    def submit(
        self,
        queries: Sequence[Spectrum],
        deadline: Optional[float] = None,
        client: str = "",
    ) -> RequestHandle:
        """Admit one request; returns immediately with a handle.

        ``deadline`` is seconds from now (``None`` uses the config's
        ``default_deadline``; 0 means none).  Raises
        :class:`ServiceOverloadedError` under backpressure and
        :class:`ServiceUnavailableError` when not accepting work.
        """
        queries = tuple(queries)
        if not queries:
            raise ConfigError("a search request needs at least one query")
        qids = [q.query_id for q in queries]
        if len(set(qids)) != len(qids):
            raise ConfigError(
                f"request has duplicate query_ids: {sorted(qids)}"
            )
        cfg = self.service_config
        obs = get_metrics()
        # latency counts from here, so time spent blocked on a full queue
        # is reported; the deadline runs from admission
        submitted = time.monotonic()
        with self._lock:
            self._check_admissible_locked()
            if len(self._pending) >= cfg.queue_limit:
                if cfg.backpressure == "shed":
                    self._count_locked("rejected_overload")
                    raise ServiceOverloadedError(
                        f"admission queue is full ({cfg.queue_limit} queued); "
                        f"backpressure policy 'shed' rejects immediately"
                    )
                wait_until = time.monotonic() + cfg.admission_timeout
                while len(self._pending) >= cfg.queue_limit:
                    remaining = wait_until - time.monotonic()
                    if remaining <= 0:
                        self._count_locked("rejected_overload")
                        raise ServiceOverloadedError(
                            f"admission queue stayed full for "
                            f"{cfg.admission_timeout} s (policy 'block')"
                        )
                    self._space.wait(min(_TICK, remaining))
                    self._check_admissible_locked()
            now = time.monotonic()
            limit = cfg.default_deadline if deadline is None else deadline
            handle = RequestHandle(
                request_id=next(self._next_request_id),
                queries=queries,
                client=client,
                deadline_ts=(now + limit) if limit else None,
                submitted_ts=submitted,
            )
            self._pending.append(handle)
            self._count_locked("admitted")
            depth = len(self._pending)
            if depth > self._counters["max_queue_depth"]:
                self._counters["max_queue_depth"] = depth
            obs.gauge("service.queue_depth", depth)
            self._work.notify()
        return handle

    def search(
        self,
        queries: Sequence[Spectrum],
        deadline: Optional[float] = None,
        client: str = "",
        timeout: Optional[float] = None,
    ) -> SearchResponse:
        """Synchronous convenience: :meth:`submit` then wait for the result."""
        return self.submit(queries, deadline=deadline, client=client).result(timeout)

    def _check_admissible_locked(self) -> None:
        if self._state != "running":
            self._count_locked("rejected_unavailable")
            raise ServiceUnavailableError(
                f"service is not accepting requests (state {self._state!r})"
            )
        if not self._lives:
            self._count_locked("rejected_unavailable")
            raise ServiceUnavailableError(
                "service has no live scorer (restart budget exhausted)"
            )

    # -- introspection ----------------------------------------------------

    def health(self) -> Dict[str, object]:
        """Liveness/readiness probe payload.

        ``ready`` means requests submitted now would be admitted (the
        scorer is alive, or is being rebuilt and will take them);
        ``degraded`` means scorer deaths have used up
        ``max_worker_restarts`` and eaten into the ``workers - 1``
        allowance behind it, or a batch was quarantined;
        ``workers_alive`` is 1 while the scorer takes batches, else 0.
        """
        with self._lock:
            degraded = self._state in ("running", "draining") and (
                self._lives < self.service_config.workers
                or self._counters["batches_failed"] > 0
            )
            return {
                "state": self._state,
                "ready": self._state == "running" and self._lives > 0,
                "degraded": degraded,
                "workers_alive": int(self._alive),
                "worker_restarts": int(self._counters["worker_restarts"]),
                "queue_depth": len(self._pending),
                "in_flight": self._in_flight,
                "retry_backlog": len(self._retries),
                "batches_failed": int(self._counters["batches_failed"]),
            }

    def stats(self) -> Dict[str, float]:
        """Monotonic service counters (see docs/service.md)."""
        with self._lock:
            return dict(self._counters)

    def service_report(self) -> Dict[str, object]:
        """The ``service`` section for a RunReport."""
        return {
            "config": {
                "workers": self.service_config.workers,
                "queue_limit": self.service_config.queue_limit,
                "backpressure": self.service_config.backpressure,
                "coalesce": self.service_config.coalesce,
                "default_deadline": self.service_config.default_deadline,
                "max_worker_restarts": self.service_config.max_worker_restarts,
            },
            "health": self.health(),
            "counters": self.stats(),
        }

    # -- counters ---------------------------------------------------------

    def _count_locked(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value
        get_metrics().count(f"service.{name}", value)

    # -- supervision ------------------------------------------------------

    def _make_searcher(self):
        """The scorer's one whole-database searcher."""
        if self._store is not None:
            return StreamingSearcher(
                self._store, self.config, memory_budget_mb=self._memory_budget_mb
            )
        assert self._database is not None
        return ShardSearcher(self._database, self.config)

    def _scorer_main(self) -> None:
        """The scorer thread: one incarnation after another while the
        restart budget lasts."""
        incarnation = 0
        while self._run_incarnation(incarnation):
            incarnation += 1

    def _run_incarnation(self, incarnation: int) -> bool:
        """Build the searcher and score batches until the service stops
        (``False``) or the scorer dies (``True`` iff it is to be rebuilt)."""
        try:
            searcher = self._make_searcher()
        except BaseException as exc:
            if incarnation:
                return self._on_scorer_death(exc, None)
            with self._lock:  # the first scorer never came up: surface to start()
                self._start_error = exc
                self._idle.notify_all()
            return False
        with self._lock:
            self._set_alive_locked(True)
        while True:
            batch = self._next_work()
            if batch is None:
                return False
            try:
                self._execute_batch(batch, searcher, incarnation)
            except WorkerCrashError as exc:
                return self._on_scorer_death(exc, batch)
            except BaseException as exc:  # typed or not, the scorer stays up
                with self._lock:
                    self._fail_attempt_locked(batch, exc)
            # the clients just answered run before the queue is drained
            # again: a closed loop's next requests then share one block
            # instead of alternating halves with the ones that waited
            time.sleep(0)

    def _set_alive_locked(self, alive: bool) -> None:
        self._alive = alive
        get_metrics().gauge("service.workers_alive", int(alive))
        self._idle.notify_all()

    def _next_work(self) -> Optional[_Batch]:
        """Wait for work and take it: due retries first, then everything
        queued, formed into a batch only now that it can be scored.

        Returns ``None`` when the service stopped.  All waits are bounded
        by ``_TICK`` (or the next retry's ready time), so the scorer
        always observes state changes promptly and can never sleep
        forever.
        """
        with self._lock:
            while True:
                if self._state == "stopped":
                    self._set_alive_locked(False)
                    return None
                now = time.monotonic()
                if self._retries and self._retries[0][0] <= now:
                    return self._retries.pop(0)[2]
                taken = self._take_requests_locked(now) if self._pending else []
                if taken:
                    return _Batch(next(self._next_batch_seq), taken)
                timeout = _TICK
                if self._retries:
                    timeout = min(timeout, self._retries[0][0] - now)
                self._work.wait(timeout)

    def _take_requests_locked(self, now: float) -> List[RequestHandle]:
        """Pop the next batch's requests: all that are queued, up to
        ``max_batch_queries`` queries (one request without ``coalesce``)."""
        cfg = self.service_config
        taken: List[RequestHandle] = []
        num_queries = 0
        while self._pending and (cfg.coalesce or not taken):
            req = self._pending[0]
            if req.deadline_ts is not None and now >= req.deadline_ts:
                # expired while queued: answer without scoring anything
                self._pending.popleft()
                req.started_ts = now
                req.expired = True
                self._set_response_locked(req)
                continue
            if taken and num_queries + len(req.queries) > cfg.max_batch_queries:
                break
            self._pending.popleft()
            req.started_ts = now
            req._inflight = True
            taken.append(req)
            num_queries += len(req.queries)
        obs = get_metrics()
        if taken:
            self._in_flight += len(taken)
            self._count_locked("batches")
            if len(taken) > 1:
                self._count_locked("coalesced_requests", len(taken))
            obs.observe("service.batch_queries", num_queries, buckets=_BATCH_BUCKETS)
        obs.gauge("service.queue_depth", len(self._pending))
        obs.gauge("service.in_flight", self._in_flight)
        self._space.notify_all()
        return taken

    # -- execution --------------------------------------------------------

    def _execute_batch(
        self, batch: _Batch, searcher, incarnation: int
    ) -> None:
        """Run one batch to completion (or raise a typed fault).

        Execution is chunked so deadlines are honoured at chunk
        boundaries; every query in a finished chunk was scored against
        the whole database, so its hits are final.  A raised fault discards
        this attempt's partial hitlists entirely — the retry rescoring
        from scratch is what keeps completed results bitwise identical
        to a fault-free run.
        """
        if self._injector is not None:
            stall = self._injector.stall_for(incarnation)
            if stall:
                time.sleep(stall)
        cfg = self.service_config

        def mark_expired() -> None:
            now = time.monotonic()
            for req in batch.requests:
                if req.deadline_ts is not None and now >= req.deadline_ts:
                    req.expired = True

        mark_expired()
        # query ids made unique across requests (re-validating a spectrum
        # is not queue state: no lock held), then mass-sorted so the sweep
        # kernel coalesces cross-request cohorts; chunk boundaries then cut
        # contiguous mass ranges, preserving cohort quality inside each chunk
        entries = sorted(
            (
                _Entry(req, spectrum.query_id, replace(spectrum, query_id=uid))
                for req in batch.requests
                if not req.expired
                for spectrum, uid in zip(req.queries, self._next_uid)
            ),
            key=lambda e: (e.spectrum.parent_mass, e.spectrum.query_id),
        )
        hitlists: Dict[int, TopHitList] = {}
        scored: List[_Entry] = []
        for ci, pos in enumerate(range(0, len(entries), cfg.chunk_queries)):
            if self._injector is not None:
                self._injector.fire(batch.seq, batch.failures, incarnation, ci)
            chunk = [
                e for e in entries[pos : pos + cfg.chunk_queries]
                if not e.request.expired
            ]
            if chunk:
                searcher.run([e.spectrum for e in chunk], hitlists)
                scored.extend(chunk)
            mark_expired()
        answers = []
        for e in scored:
            hitlist = hitlists.get(e.spectrum.query_id)
            hits = hitlist.sorted_hits() if hitlist is not None else []
            answers.append([h._replace(query_id=e.orig_qid) for h in hits])
        with self._lock:
            for e, hits in zip(scored, answers):
                e.request.hits[e.orig_qid] = hits
                e.request.completed.append(e.orig_qid)
            for req in batch.requests:
                self._set_response_locked(req)

    def _set_response_locked(self, req: RequestHandle) -> None:
        """Assign the terminal response exactly once; idempotent."""
        if req.response is not None:
            return
        now = time.monotonic()
        completed = tuple(req.completed)
        done = set(completed)
        missing = tuple(q.query_id for q in req.queries if q.query_id not in done)
        if not missing:
            status, error = "ok", ""
        elif req.failure:
            status, error = "failed", req.failure
        elif req.expired:
            status = "partial" if completed else "expired"
            error = f"deadline exceeded; queries {list(missing)} were not scored"
        else:  # defensive: no declared cause, refuse to fabricate hits
            status, error = "failed", "request terminated without completing"
        latency = now - req.submitted_ts
        queue_wait = (req.started_ts if req.started_ts is not None else now) - (
            req.submitted_ts
        )
        req.response = SearchResponse(
            request_id=req.request_id,
            status=status,
            hits=dict(req.hits),
            completed_query_ids=completed,
            missing_query_ids=missing,
            error=error,
            latency_s=latency,
            queue_wait_s=queue_wait,
        )
        if req._inflight:
            req._inflight = False
            self._in_flight -= 1
        self._count_locked(status if status != "ok" else "completed")
        obs = get_metrics()
        obs.gauge("service.in_flight", self._in_flight)
        obs.observe("service.request_latency_s", latency)
        obs.observe("service.queue_wait_s", queue_wait)
        req._event.set()
        self._idle.notify_all()
        self._space.notify_all()

    # -- failure handling -------------------------------------------------

    def _fail_attempt_locked(self, batch: _Batch, exc: BaseException) -> None:
        """A typed fault retries with backoff per the PR 2 retry policy;
        past its budget, or on anything unexpected, the batch is
        quarantined and its requests fail typed."""
        batch.failures += 1
        policy = self.service_config.retry
        if (
            isinstance(exc, ReproError)
            and policy.allows_retry(batch.failures)
            and self._state != "stopped"
        ):
            ready = time.monotonic() + policy.delay(batch.failures)
            bisect.insort(self._retries, (ready, batch.seq, batch))
            self._count_locked("batch_retries")
            return
        self._count_locked("batches_failed")
        message = (
            f"batch {batch.seq} abandoned after {batch.failures} failed "
            f"attempts: {exc}"
        )
        for req in batch.requests:
            req.failure = message
            self._set_response_locked(req)

    def _on_scorer_death(self, exc: BaseException, batch: Optional[_Batch]) -> bool:
        """Record a scorer death; ``True`` when budget remains to rebuild it.

        ``batch`` is what it was scoring, ``None`` if it died rebuilding
        its searcher.  One critical section re-queues the batch and spends
        the budget, so admission never sees "no scorer" while any is left.
        """
        with self._lock:
            self._set_alive_locked(False)
            if batch is not None:
                self._fail_attempt_locked(batch, exc)
            self._lives -= 1
            if self._lives and self._state != "stopped":
                self._count_locked("worker_restarts")
                return True
            # nobody left to run anything: fail all outstanding work
            # typed instead of letting clients (or drain) wait
            self._fail_all_locked(f"scorer dead and restart budget exhausted: {exc}")
            return False

    def _fail_all_locked(self, message: str) -> None:
        retried = (req for _r, _s, batch in self._retries for req in batch.requests)
        for req in itertools.chain(self._pending, retried):
            if req.response is None:
                req.failure = message
                self._set_response_locked(req)
        self._pending.clear()
        self._retries.clear()
        get_metrics().gauge("service.queue_depth", 0)
        self._space.notify_all()
        self._idle.notify_all()
