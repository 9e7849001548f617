"""Unit tests for the service's config and request/response types."""

import pytest

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ReproError,
    ServiceBatchError,
    ServiceError,
    ServiceOverloadedError,
    ServiceUnavailableError,
)
from repro.faults.plan import RequestStorm
from repro.faults.supervisor import RetryPolicy
from repro.service import (
    BACKPRESSURE_POLICIES,
    RESPONSE_STATUSES,
    RequestHandle,
    SearchResponse,
    ServiceConfig,
    storm_queries,
)


class TestServiceConfig:
    def test_defaults_are_valid(self):
        cfg = ServiceConfig()
        assert cfg.workers == 2
        assert cfg.backpressure in BACKPRESSURE_POLICIES
        assert isinstance(cfg.retry, RetryPolicy)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_limit": 0},
            {"backpressure": "drop"},
            {"admission_timeout": -1.0},
            {"default_deadline": -0.5},
            {"max_batch_queries": 0},
            {"chunk_queries": 0},
            {"max_worker_restarts": -1},
            {"drain_timeout": -1.0},
        ],
    )
    def test_bad_knobs_rejected_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    def test_max_batch_requests_is_gone(self):
        """``max_batch_queries`` is the one cap on a coalesced batch."""
        with pytest.raises(TypeError):
            ServiceConfig(max_batch_requests=1)

    def test_frozen(self):
        cfg = ServiceConfig()
        with pytest.raises(AttributeError):
            cfg.workers = 5


class TestServiceErrors:
    """The typed hierarchy clients catch; all ReproErrors."""

    @pytest.mark.parametrize(
        "exc",
        [
            ServiceError,
            ServiceOverloadedError,
            ServiceUnavailableError,
            DeadlineExceededError,
            ServiceBatchError,
        ],
    )
    def test_service_errors_are_repro_errors(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, ServiceError)


class TestSearchResponse:
    def _resp(self, status, **kw):
        return SearchResponse(
            request_id=1, status=status, hits={}, completed_query_ids=(), **kw
        )

    def test_statuses_enumerated(self):
        assert set(RESPONSE_STATUSES) == {"ok", "partial", "expired", "failed"}

    def test_ok_chains_through_raise_for_status(self):
        resp = self._resp("ok")
        assert resp.ok
        assert resp.raise_for_status() is resp

    @pytest.mark.parametrize("status", ["partial", "expired"])
    def test_deadline_statuses_raise_deadline_error(self, status):
        with pytest.raises(DeadlineExceededError):
            self._resp(status, missing_query_ids=(3,)).raise_for_status()

    def test_failed_raises_batch_error_with_cause(self):
        with pytest.raises(ServiceBatchError, match="store outage"):
            self._resp("failed", error="store outage").raise_for_status()


class TestRequestHandle:
    def test_not_done_until_response_event(self):
        handle = RequestHandle(request_id=7, queries=())
        assert not handle.done()
        with pytest.raises(ServiceError, match="did not complete"):
            handle.result(timeout=0.01)

    def test_done_after_event(self):
        handle = RequestHandle(request_id=7, queries=())
        handle.response = SearchResponse(7, "ok", {}, ())
        handle._event.set()
        assert handle.done()
        assert handle.result(timeout=0.01).ok


class TestStormQueries:
    def test_deterministic_per_client_and_sequence(self, tiny_queries):
        storm = RequestStorm(clients=3, requests_per_client=2, queries_per_request=4, seed=9)
        a = storm_queries(storm, tiny_queries, client=1, seq=0)
        b = storm_queries(storm, tiny_queries, client=1, seq=0)
        assert [q.query_id for q in a] == [q.query_id for q in b]
        other = storm_queries(storm, tiny_queries, client=2, seq=0)
        assert [q.query_id for q in a] != [q.query_id for q in other]

    def test_sample_never_exceeds_pool(self, tiny_queries):
        storm = RequestStorm(queries_per_request=10_000, seed=1)
        picked = storm_queries(storm, tiny_queries, client=0, seq=0)
        assert len(picked) == len(tiny_queries)
        assert len({q.query_id for q in picked}) == len(picked)
