"""Fault-injected service tests: crashes, stragglers, outages, overload.

The contract under test (docs/service.md): injected faults may cost
retries, scorer restarts, and degraded health — but never wrong
answers.  Every completed query's hits stay bitwise identical to the
fault-free serial reference, every admitted request reaches a typed
terminal response, and overload rejects with a typed error instead of
hanging.
"""

import threading
import time

import pytest

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.errors import (
    FaultPlanError,
    ServiceBatchError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.faults import (
    FaultPlan,
    RequestStorm,
    ServiceFaults,
    ServiceSlowWorker,
    ServiceStoreOutage,
    ServiceWorkerCrash,
)
from repro.faults.plan import EVERY
from repro.faults.supervisor import RetryPolicy
from repro.service import SearchService, ServiceConfig, run_storm


@pytest.fixture()
def sweep_config():
    return SearchConfig(tau=10)


@pytest.fixture()
def reference_hits(tiny_db, tiny_queries, sweep_config):
    report = search_serial(tiny_db, tiny_queries, sweep_config)
    return {qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()}


def fast_retry():
    return RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)


@pytest.fixture()
def scalar_reference(tiny_db, tiny_queries, sweep_config):
    """The independent oracle (``tests/reference.py``), ranked hits per query."""
    from tests.reference import reference_search

    hitlists = reference_search(tiny_db, sweep_config, tiny_queries)
    return {qid: hl.sorted_hits() for qid, hl in hitlists.items()}


class ExecutionProbe:
    """Watch, and optionally hold, a service's batch executions.

    Wraps ``service._execute_batch``: records ``(scorer incarnation,
    requests)`` per execution in start order and the most executions ever
    in progress at once; an execution whose ordinal is in ``hold`` stops
    at ``gate`` first (``held`` says it got there), its batch in hand.
    """

    def __init__(self, service, hold=()):
        self.gate = threading.Event()
        self.held = threading.Event()
        self.executions = []
        self.max_concurrent = 0
        self._active = 0
        self._lock = threading.Lock()
        execute = service._execute_batch

        def probed(batch, searchers, incarnation):
            with self._lock:
                ordinal = len(self.executions)
                self.executions.append((incarnation, len(batch.requests)))
                self._active += 1
                self.max_concurrent = max(self.max_concurrent, self._active)
            try:
                if ordinal in hold:
                    self.held.set()
                    assert self.gate.wait(30.0), "the test never opened the gate"
                return execute(batch, searchers, incarnation)
            finally:
                with self._lock:
                    self._active -= 1

        service._execute_batch = probed


def assert_bitwise(result, reference_hits):
    checked = 0
    for outcome in result.admitted:
        for qid, hits in outcome.response.hits.items():
            assert [h.sort_key() for h in hits] == reference_hits[qid], qid
            checked += 1
    assert checked > 0, "no completed queries to verify"


class TestPlanVocabulary:
    def test_service_section_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=1, attempts=2, chunk=1),),
                slow_workers=(ServiceSlowWorker(worker=0, delay=0.05, batches=3),),
                store_outages=(ServiceStoreOutage(batch=2, attempts=EVERY),),
                storm=RequestStorm(clients=6, requests_per_client=3, seed=7),
            )
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        loaded = FaultPlan.from_file(path)
        assert loaded == plan

    def test_plan_without_service_section_round_trips_to_none(self):
        plan = FaultPlan.from_json(FaultPlan().to_json())
        assert plan.service is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker_crashes": (ServiceWorkerCrash(batch=-1),)},
            {"worker_crashes": (ServiceWorkerCrash(batch=0, attempts=-2),)},
            {"worker_crashes": (ServiceWorkerCrash(batch=0, chunk=-1),)},
            {"slow_workers": (ServiceSlowWorker(worker=-1, delay=0.1),)},
            {"slow_workers": (ServiceSlowWorker(worker=0, delay=-0.1),)},
            {"store_outages": (ServiceStoreOutage(batch=-1),)},
            {"storm": RequestStorm(clients=0)},
            {"storm": RequestStorm(interval=-1.0)},
        ],
    )
    def test_bad_service_faults_rejected(self, kwargs):
        with pytest.raises(FaultPlanError):
            ServiceFaults(**kwargs)


class TestCrashRecovery:
    def test_mid_batch_crash_retries_and_stays_bitwise(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=0, attempts=1, chunk=0),)
            )
        )
        service_config = ServiceConfig(
            workers=2, retry=fast_retry(), chunk_queries=4
        )
        storm = RequestStorm(clients=3, requests_per_client=2, queries_per_request=4, seed=3)
        with SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        ) as service:
            result = run_storm(service, storm, tiny_queries)
            stats = service.stats()
        assert result.counts == {"ok": 6}
        assert stats["batch_retries"] >= 1
        assert stats["worker_restarts"] >= 1
        assert_bitwise(result, reference_hits)

    def test_crash_after_partial_chunk_discards_partial_scores(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        """A crash at chunk 1 threw away chunk 0's work; the retry
        rescores from scratch, so no query is double-counted or torn."""
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=0, attempts=1, chunk=1),)
            )
        )
        service_config = ServiceConfig(
            workers=1, retry=fast_retry(), chunk_queries=2, max_batch_queries=12
        )
        with SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        ) as service:
            response = service.search(tiny_queries[:8]).raise_for_status()
        assert sorted(response.completed_query_ids) == sorted(
            q.query_id for q in tiny_queries[:8]
        )
        for qid, hits in response.hits.items():
            assert [h.sort_key() for h in hits] == reference_hits[qid]

    def test_poison_batch_exhausts_retries_and_fails_typed(
        self, tiny_db, tiny_queries, sweep_config
    ):
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=0, attempts=EVERY),)
            )
        )
        service_config = ServiceConfig(
            workers=2, retry=fast_retry(), max_worker_restarts=8
        )
        with SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        ) as service:
            response = service.search(tiny_queries[:3], timeout=60.0)
            assert response.status == "failed"
            assert "crash" in response.error or "retry" in response.error
            with pytest.raises(ServiceBatchError):
                response.raise_for_status()
            health = service.health()
            assert health["degraded"]
            assert health["batches_failed"] == 1
            # the service survives: the next request completes normally
            assert service.search(tiny_queries[3:5]).ok

    def test_restart_budget_exhaustion_fails_typed_not_hung(
        self, tiny_db, tiny_queries, sweep_config
    ):
        """``workers=1, max_worker_restarts=0``: the first scorer death
        is the last.  The admitted request lands typed 'failed' (never
        hangs) and later submissions get a typed ServiceUnavailableError."""
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=0, attempts=EVERY),)
            )
        )
        service_config = ServiceConfig(
            workers=1, retry=RetryPolicy(max_retries=0), max_worker_restarts=0
        )
        with SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        ) as service:
            response = service.search(tiny_queries[:2], timeout=60.0)
            assert response.status == "failed"
            health = service.health()
            assert health["workers_alive"] == 0
            assert health["degraded"]
            assert not health["ready"]
            with pytest.raises(ServiceUnavailableError, match="budget exhausted"):
                service.submit(tiny_queries[2:4])

    def test_admission_is_never_refused_while_restart_budget_remains(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        """The scorer has crashed and is still rebuilding its searchers:
        budget remains, so the service stays ready, admits, and serves
        the request once the scorer is back — it must never answer
        "restart budget exhausted" here."""
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=0, attempts=1),)
            )
        )
        service_config = ServiceConfig(
            workers=1, retry=fast_retry(), max_worker_restarts=3
        )
        service = SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        )
        rebuilding, gate = threading.Event(), threading.Event()
        make_searcher = service._make_searcher
        calls = []

        def gated_rebuild():
            calls.append(None)
            if len(calls) > 1:  # the first scorer comes up at once
                rebuilding.set()
                assert gate.wait(30.0), "the test never opened the gate"
            return make_searcher()

        service._make_searcher = gated_rebuild
        try:
            with service:
                first = service.submit(tiny_queries[:3])
                assert rebuilding.wait(30.0), "the scorer was never rebuilt"
                health = service.health()
                assert health["workers_alive"] == 0
                assert health["ready"] and not health["degraded"]
                assert health["worker_restarts"] == 1 < service_config.max_worker_restarts
                second = service.submit(tiny_queries[3:5])  # admitted, not refused
                gate.set()
                for handle in (first, second):
                    response = handle.result(timeout=60.0).raise_for_status()
                    for qid, hits in response.hits.items():
                        assert [h.sort_key() for h in hits] == reference_hits[qid]
                assert service.stats()["rejected_unavailable"] == 0
                assert service.health()["workers_alive"] == 1
        finally:
            gate.set()

    def test_failed_rebuild_spends_budget_and_is_retried(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        """Searchers that fail to build after a crash cost one more life,
        not the service: the next rebuild scores the re-queued batch."""
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(ServiceWorkerCrash(batch=0, attempts=1),)
            )
        )
        service_config = ServiceConfig(
            workers=1, retry=fast_retry(), max_worker_restarts=2
        )
        service = SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        )
        make_searcher = service._make_searcher
        calls = []

        def second_build_fails():
            calls.append(None)
            if len(calls) == 2:
                raise OSError("injected: the store would not map")
            return make_searcher()

        service._make_searcher = second_build_fails
        with service:
            response = service.search(tiny_queries[:3], timeout=60.0).raise_for_status()
            health = service.health()
        assert len(calls) == 3
        assert health["worker_restarts"] == 2 and health["workers_alive"] == 1
        for qid, hits in response.hits.items():
            assert [h.sort_key() for h in hits] == reference_hits[qid]

    def test_first_build_failure_surfaces_from_start(self, tiny_db, sweep_config):
        service = SearchService(sweep_config, database=tiny_db)

        def no_build():
            raise OSError("injected: the store would not map")

        service._make_searcher = no_build
        with pytest.raises(OSError, match="would not map"):
            service.start()
        assert service.health()["state"] == "stopped"


class TestScoringTurn:
    """The one scorer takes turns draining the queue and scoring what it
    drained, a block at a time, and is rebuilt in place when it dies
    (docs/service.md, "Concurrency model").  Gates, not sleeps."""

    def test_requests_admitted_during_a_block_form_the_next_one(
        self, tiny_db, tiny_queries, sweep_config, scalar_reference
    ):
        service = SearchService(sweep_config, database=tiny_db)
        probe = ExecutionProbe(service, hold={0})
        try:
            with service:
                first = service.submit(tiny_queries[:2])
                assert probe.held.wait(30.0)
                before = service.stats()
                later = [service.submit([q]) for q in tiny_queries[2:7]]
                # nothing leaves the queue while the block ahead is scored
                assert service.health()["queue_depth"] == len(later)
                assert service.health()["in_flight"] == 1
                probe.gate.set()
                responses = [h.result(timeout=30.0) for h in [first, *later]]
                after = service.stats()
        finally:
            probe.gate.set()
        assert probe.max_concurrent == 1
        assert [n for _incarnation, n in probe.executions] == [1, len(later)]
        assert after["batches"] - before["batches"] == 1
        assert after["coalesced_requests"] - before["coalesced_requests"] == len(later)
        for response in responses:
            assert response.ok
            for qid, hits in response.hits.items():
                assert hits == scalar_reference[qid], qid

    def test_rebuilt_scorer_scores_the_batch_of_a_crashed_one(
        self, tiny_db, tiny_queries, sweep_config, scalar_reference
    ):
        """``workers=2, max_worker_restarts=0`` survives exactly one scorer
        death: the rebuilt scorer scores the crashed one's batch, bitwise
        identical; the second death fails everything outstanding typed."""
        plan = FaultPlan(
            service=ServiceFaults(
                worker_crashes=(
                    ServiceWorkerCrash(batch=0, attempts=1, chunk=0),
                    ServiceWorkerCrash(batch=2, attempts=1, chunk=0),
                )
            )
        )
        service_config = ServiceConfig(
            workers=2, retry=fast_retry(), max_worker_restarts=0
        )
        service = SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        )
        probe = ExecutionProbe(service, hold={3})
        try:
            with service:
                response = service.search(tiny_queries[:6], timeout=30.0)
                health = service.health()
                again = service.search(tiny_queries[6:8], timeout=30.0)
                # the second death, with one request scoring and one queued
                doomed = [service.submit(tiny_queries[:2])]
                assert probe.held.wait(30.0)
                doomed.append(service.submit(tiny_queries[2:4]))
                probe.gate.set()
                failed = [h.result(timeout=30.0) for h in doomed]
                dead = service.health()
                with pytest.raises(ServiceUnavailableError, match="budget exhausted"):
                    service.submit(tiny_queries[4:6])
        finally:
            probe.gate.set()
        assert response.ok and again.ok
        for qid, hits in {**response.hits, **again.hits}.items():
            assert hits == scalar_reference[qid], qid
        assert [i for i, _n in probe.executions] == [0, 1, 1, 1]
        assert health["degraded"] and health["ready"]
        assert health["workers_alive"] == 1 and health["worker_restarts"] == 1
        for outcome in failed:
            assert outcome.status == "failed" and "budget exhausted" in outcome.error
            with pytest.raises(ServiceBatchError):
                outcome.raise_for_status()
        assert dead["workers_alive"] == 0 and not dead["ready"]
        assert dead["worker_restarts"] == 1  # the last death rebuilt nothing

    def test_stop_while_scoring_drains(
        self, tiny_db, tiny_queries, sweep_config, scalar_reference
    ):
        service_config = ServiceConfig(drain_timeout=30.0)
        service = SearchService(sweep_config, service_config, database=tiny_db)
        probe = ExecutionProbe(service, hold={0})
        stopper = threading.Thread(target=service.stop)
        try:
            service.start()
            handles = [service.submit(tiny_queries[:2])]
            assert probe.held.wait(30.0)
            handles += [service.submit([q]) for q in tiny_queries[2:6]]
            stopper.start()
            deadline = time.monotonic() + 30.0
            while service.health()["state"] == "running":
                assert time.monotonic() < deadline, "stop() never began to drain"
                stopper.join(0.005)
            probe.gate.set()
            stopper.join(service_config.drain_timeout)
            assert not stopper.is_alive(), "stop() outlived drain_timeout"
        finally:
            probe.gate.set()
        health = service.health()
        assert health["state"] == "stopped" and health["workers_alive"] == 0
        assert not service._thread.is_alive()
        for handle in handles:
            assert handle.done()
            for qid, hits in handle.result(timeout=0.1).raise_for_status().hits.items():
                assert hits == scalar_reference[qid], qid


class TestStoreOutage:
    def test_transient_outage_retries_to_success(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        plan = FaultPlan(
            service=ServiceFaults(store_outages=(ServiceStoreOutage(batch=0, attempts=2),))
        )
        service_config = ServiceConfig(workers=2, retry=fast_retry())
        with SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        ) as service:
            response = service.search(tiny_queries[:5]).raise_for_status()
            stats = service.stats()
        assert stats["batch_retries"] == 2
        assert stats["worker_restarts"] == 0  # outages are not worker deaths
        for qid, hits in response.hits.items():
            assert [h.sort_key() for h in hits] == reference_hits[qid]

    def test_permanent_outage_fails_typed(self, tiny_db, tiny_queries, sweep_config):
        plan = FaultPlan(
            service=ServiceFaults(
                store_outages=(ServiceStoreOutage(batch=0, attempts=EVERY),)
            )
        )
        service_config = ServiceConfig(workers=1, retry=fast_retry())
        with SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        ) as service:
            response = service.search(tiny_queries[:2], timeout=60.0)
        assert response.status == "failed"
        with pytest.raises(ServiceBatchError, match="store"):
            response.raise_for_status()


class TestOverload:
    """Backpressure under a stalled worker: typed rejection, never a hang."""

    def _stalled_service(self, tiny_db, sweep_config, policy, **cfg_kwargs):
        plan = FaultPlan(
            service=ServiceFaults(
                slow_workers=(ServiceSlowWorker(worker=0, delay=0.3, batches=EVERY),)
            )
        )
        service_config = ServiceConfig(
            workers=1, queue_limit=1, backpressure=policy,
            retry=fast_retry(), **cfg_kwargs,
        )
        return SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        )

    def test_shed_rejects_immediately(self, tiny_db, tiny_queries, sweep_config):
        with self._stalled_service(tiny_db, sweep_config, "shed") as service:
            handles = [service.submit([tiny_queries[0]])]
            sheds = 0
            for q in tiny_queries[1:6]:
                try:
                    handles.append(service.submit([q]))
                except ServiceOverloadedError:
                    sheds += 1
            assert sheds >= 1
            assert service.stats()["rejected_overload"] == sheds
            for handle in handles:
                assert handle.result(timeout=60.0).ok

    def test_block_times_out_typed(self, tiny_db, tiny_queries, sweep_config):
        with self._stalled_service(
            tiny_db, sweep_config, "block", admission_timeout=0.05
        ) as service:
            handles = [service.submit([tiny_queries[0]])]
            rejections = 0
            for q in tiny_queries[1:6]:
                try:
                    handles.append(service.submit([q]))
                except ServiceOverloadedError as exc:
                    rejections += 1
                    assert "block" in str(exc)
            assert rejections >= 1
            for handle in handles:
                assert handle.result(timeout=60.0).ok


    def test_blocked_submit_reports_the_time_it_waited(
        self, tiny_db, tiny_queries, sweep_config
    ):
        """``latency_s`` / ``queue_wait_s`` run from entry to ``submit()``:
        a request that waited for queue space says so."""
        service_config = ServiceConfig(
            workers=1, queue_limit=1, backpressure="block", admission_timeout=30.0
        )
        service = SearchService(sweep_config, service_config, database=tiny_db)
        probe = ExecutionProbe(service, hold={0})
        space_waits = []
        blocked, blocked_a_while = threading.Event(), threading.Event()
        space_wait = service._space.wait

        def counted_wait(timeout=None):
            space_waits.append(timeout)
            blocked.set()
            if len(space_waits) == 3:  # two full ticks behind it
                blocked_a_while.set()
            return space_wait(timeout)

        service._space.wait = counted_wait
        late = []
        submitter = threading.Thread(
            target=lambda: late.append(service.submit([tiny_queries[2]]))
        )
        try:
            with service:
                service.submit([tiny_queries[0]])
                assert probe.held.wait(30.0)
                service.submit([tiny_queries[1]])  # the queue is now full
                submitter.start()
                assert blocked.wait(30.0)
                since = time.monotonic()  # submit() was entered before this
                assert blocked_a_while.wait(30.0)
                waited = time.monotonic() - since
                probe.gate.set()
                submitter.join(30.0)
                response = late[0].result(timeout=30.0)
        finally:
            probe.gate.set()
        assert response.ok
        assert response.latency_s >= waited
        assert response.queue_wait_s >= waited


class TestStragglerDegradation:
    def test_straggler_slows_but_never_corrupts(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        plan = FaultPlan(
            service=ServiceFaults(
                slow_workers=(ServiceSlowWorker(worker=0, delay=0.05, batches=4),)
            )
        )
        storm = RequestStorm(clients=4, requests_per_client=2, queries_per_request=3, seed=5)
        service_config = ServiceConfig(workers=2, retry=fast_retry())
        service = SearchService(
            sweep_config, service_config, database=tiny_db, fault_plan=plan
        )
        probe = ExecutionProbe(service)
        with service:
            result = run_storm(service, storm, tiny_queries)
        assert result.counts == {"ok": 8}
        assert_bitwise(result, reference_hits)
        # a straggler stalls with its batch in hand: the queue waits behind it
        assert probe.max_concurrent == 1
