"""Seeded storm-with-faults soak: the service-soak CI criterion.

One storm, every service fault class at once, a small queue, deadlines
on half the traffic — and five invariants that must survive it all:

1. **No hangs** — every submission reaches a typed outcome (admission
   rejection or terminal response) within the bounded timeout.
2. **Bounded queue** — observed queue depth never exceeds the
   configured limit (admission control actually admits).
3. **Clean drain** — shutdown completes and leaves nothing pending;
   every admitted request is terminal before stop() returns.
4. **Bitwise identity** — every completed query's hits equal the
   fault-free serial reference, whatever batches the storm produced.
5. **Restarts are capacity** — while restart budget remains, nothing
   is refused with ``ServiceUnavailableError``.
"""

import pytest

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.faults import (
    FaultPlan,
    RequestStorm,
    ServiceFaults,
    ServiceSlowWorker,
    ServiceStoreOutage,
    ServiceWorkerCrash,
)
from repro.faults.supervisor import RetryPolicy
from repro.service import SearchService, ServiceConfig, run_storm

TERMINAL = {"ok", "partial", "expired", "failed"}


def soak_plan():
    return FaultPlan(
        service=ServiceFaults(
            worker_crashes=(
                ServiceWorkerCrash(batch=1, attempts=1, chunk=0),
                ServiceWorkerCrash(batch=4, attempts=1, chunk=1),
            ),
            slow_workers=(ServiceSlowWorker(worker=0, delay=0.02, batches=6),),
            store_outages=(ServiceStoreOutage(batch=2, attempts=1),),
            storm=RequestStorm(
                clients=8, requests_per_client=4, queries_per_request=3, seed=17
            ),
        )
    )


class TestServiceSoak:
    @pytest.fixture(scope="class")
    def soak(self, tiny_db, tiny_queries):
        config = SearchConfig(tau=10)
        plan = soak_plan()
        service_config = ServiceConfig(
            workers=3,
            queue_limit=8,
            backpressure="shed",
            chunk_queries=4,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05),
            max_worker_restarts=4,
        )
        service = SearchService(
            config, service_config, database=tiny_db, fault_plan=plan
        )
        with service:
            result = run_storm(
                service, plan.service.storm, tiny_queries, result_timeout=120.0
            )
            running_health = service.health()
        reference = search_serial(tiny_db, tiny_queries, config)
        return {
            "result": result,
            "stats": service.stats(),
            "running_health": running_health,
            "final_health": service.health(),
            "reference": {
                qid: [h.sort_key() for h in hs] for qid, hs in reference.hits.items()
            },
            "spec": plan.service.storm,
            "limit": service_config.queue_limit,
            "max_worker_restarts": service_config.max_worker_restarts,
        }

    def test_no_hangs_every_submission_terminal(self, soak):
        result, spec = soak["result"], soak["spec"]
        assert len(result.outcomes) == spec.clients * spec.requests_per_client
        for outcome in result.outcomes:
            if outcome.rejected:
                assert outcome.rejected in (
                    "ServiceOverloadedError",
                    "ServiceUnavailableError",
                )
            else:
                assert outcome.response is not None
                assert outcome.response.status in TERMINAL

    def test_queue_depth_stayed_bounded(self, soak):
        assert 0 < soak["stats"]["max_queue_depth"] <= soak["limit"]

    def test_clean_drain(self, soak):
        health = soak["final_health"]
        assert health["state"] == "stopped"
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        assert health["retry_backlog"] == 0

    def test_faults_actually_fired(self, soak):
        stats = soak["stats"]
        assert stats["batch_retries"] >= 2  # crash at batch 1, outage at batch 2
        assert stats["worker_restarts"] >= 1

    def test_never_unavailable_while_restart_budget_remains(self, soak):
        """A scorer mid-rebuild is capacity: with budget left, no
        submission may be refused for want of a live scorer."""
        assert soak["stats"]["worker_restarts"] < soak["max_worker_restarts"]
        assert soak["stats"]["rejected_unavailable"] == 0

    def test_bitwise_identity_for_all_completed_queries(self, soak):
        reference = soak["reference"]
        checked = 0
        for outcome in soak["result"].admitted:
            response = outcome.response
            for qid in response.completed_query_ids:
                assert [
                    h.sort_key() for h in response.hits.get(qid, [])
                ] == reference[qid], f"query {qid} diverged from serial reference"
                checked += 1
        assert checked >= 10

    def test_counters_are_coherent(self, soak):
        stats, result = soak["stats"], soak["result"]
        admitted = len(result.admitted)
        rejected = len(result.outcomes) - admitted
        assert stats["admitted"] == admitted
        assert stats["rejected_overload"] == rejected
        terminal = (
            stats["completed"] + stats["partial"] + stats["expired"] + stats["failed"]
        )
        assert terminal == admitted
