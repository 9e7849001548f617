"""Integration tests for the long-lived search service.

The load-bearing claim: the sweep kernel is bitwise deterministic for
*any* grouping of queries, so however the service coalesces concurrent
requests into batches — a timing-dependent, nondeterministic choice —
every completed query's hits are bitwise identical to the serial
reference.  These tests drive the real threaded service (no mocks) and
assert exactly that, plus the lifecycle, admission, deadline, and
reporting contracts documented in docs/service.md.
"""

import dataclasses

import pytest

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.faults.plan import RequestStorm
from repro.service import SearchService, ServiceConfig, run_storm, storm_queries
from repro.store import save_index

# submitters racing the scorer are exactly what the short interval exists to surface
pytestmark = pytest.mark.usefixtures("short_switch_interval")


@pytest.fixture()
def sweep_config():
    return SearchConfig(tau=10)


@pytest.fixture()
def reference_hits(tiny_db, tiny_queries, sweep_config):
    """Fault-free serial ground truth, keyed by query id."""
    report = search_serial(tiny_db, tiny_queries, sweep_config)
    return {qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()}


def _hit_keys(hits):
    return {qid: [h.sort_key() for h in hs] for qid, hs in hits.items()}


class TestLifecycle:
    def test_requires_exactly_one_source(self, tiny_db, sweep_config, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            SearchService(sweep_config)
        store = save_index(tiny_db, tmp_path / "idx")
        with pytest.raises(ConfigError, match="exactly one"):
            SearchService(sweep_config, database=tiny_db, store=store)

    def test_context_manager_lifecycle(self, tiny_db, sweep_config):
        service = SearchService(sweep_config, database=tiny_db)
        assert service.health()["state"] == "new"
        with service:
            health = service.health()
            assert health["state"] == "running"
            assert health["ready"]
            assert health["workers_alive"] == 1
        assert service.health()["state"] == "stopped"
        assert not service.health()["ready"]

    def test_submit_before_start_and_after_stop_is_typed(
        self, tiny_db, tiny_queries, sweep_config
    ):
        service = SearchService(sweep_config, database=tiny_db)
        with pytest.raises(ServiceUnavailableError):
            service.submit(tiny_queries[:2])
        with service:
            pass
        with pytest.raises(ServiceUnavailableError):
            service.submit(tiny_queries[:2])

    def test_restart_after_stop_refused(self, tiny_db, sweep_config):
        service = SearchService(sweep_config, database=tiny_db)
        with service:
            pass
        with pytest.raises(ServiceUnavailableError, match="cannot start"):
            service.start()

    def test_stop_is_idempotent(self, tiny_db, sweep_config):
        service = SearchService(sweep_config, database=tiny_db).start()
        service.stop()
        service.stop()
        assert service.health()["state"] == "stopped"


class TestAdmission:
    def test_empty_request_rejected(self, tiny_db, sweep_config):
        with SearchService(sweep_config, database=tiny_db) as service:
            with pytest.raises(ConfigError, match="at least one"):
                service.submit([])

    def test_duplicate_query_ids_rejected(self, tiny_db, tiny_queries, sweep_config):
        with SearchService(sweep_config, database=tiny_db) as service:
            with pytest.raises(ConfigError, match="duplicate"):
                service.submit([tiny_queries[0], tiny_queries[0]])

    def test_admitted_requests_counted(self, tiny_db, tiny_queries, sweep_config):
        with SearchService(sweep_config, database=tiny_db) as service:
            service.search(tiny_queries[:3])
            service.search(tiny_queries[3:5])
            stats = service.stats()
        assert stats["admitted"] == 2
        assert stats["completed"] == 2
        assert stats["rejected_overload"] == 0


class TestBitwiseIdentity:
    """Coalesced, concurrent, store-backed: all bitwise equal to serial."""

    def test_single_request_matches_serial(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        with SearchService(sweep_config, database=tiny_db) as service:
            response = service.search(tiny_queries).raise_for_status()
        assert sorted(response.completed_query_ids) == sorted(reference_hits)
        assert _hit_keys(response.hits) == reference_hits

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_storm_matches_serial_for_every_completed_query(
        self, tiny_db, tiny_queries, sweep_config, reference_hits, coalesce
    ):
        storm = RequestStorm(
            clients=4, requests_per_client=3, queries_per_request=5, seed=21
        )
        service_config = ServiceConfig(workers=2, coalesce=coalesce)
        with SearchService(sweep_config, service_config, database=tiny_db) as service:
            result = run_storm(service, storm, tiny_queries)
        assert result.counts == {"ok": 12}
        for outcome in result.admitted:
            # the workload is a pure function of the storm spec
            expected_ids = [
                q.query_id
                for q in storm_queries(storm, tiny_queries, outcome.client, outcome.seq)
            ]
            assert sorted(outcome.response.completed_query_ids) == sorted(expected_ids)
            for qid, hits in outcome.response.hits.items():
                assert [h.sort_key() for h in hits] == reference_hits[qid], qid

    def test_store_backed_service_matches_database_mode(
        self, tiny_db, tiny_queries, sweep_config, reference_hits, tmp_path
    ):
        store = save_index(tiny_db, tmp_path / "idx")
        with SearchService(sweep_config, database=None, store=store) as service:
            response = service.search(tiny_queries).raise_for_status()
        assert _hit_keys(response.hits) == reference_hits
        # and under a scorer the store's postings serve
        probed = dataclasses.replace(sweep_config, scorer="hyperscore")
        with SearchService(probed, store=store) as service:
            response = service.search(tiny_queries).raise_for_status()
        assert _hit_keys(response.hits) == _hit_keys(
            search_serial(tiny_db, tiny_queries, probed).hits
        )

    def test_store_accepts_path(self, tiny_db, tiny_queries, sweep_config, tmp_path):
        path = save_index(tiny_db, tmp_path / "idx").path
        with SearchService(sweep_config, store=path) as service:
            assert service.search(tiny_queries[:4]).ok


class TestDeadlines:
    def test_immediate_deadline_expires_with_typed_raise(
        self, tiny_db, tiny_queries, sweep_config, reference_hits
    ):
        with SearchService(sweep_config, database=tiny_db) as service:
            response = service.search(tiny_queries, deadline=1e-6)
        assert response.status in ("expired", "partial")
        completed = set(response.completed_query_ids)
        missing = set(response.missing_query_ids)
        assert completed | missing == {q.query_id for q in tiny_queries}
        assert not completed & missing
        # completed hits (if any) are still the bitwise-final answer
        for qid in completed:
            assert [h.sort_key() for h in response.hits[qid]] == reference_hits[qid]
        with pytest.raises(DeadlineExceededError):
            response.raise_for_status()

    def test_generous_deadline_completes(self, tiny_db, tiny_queries, sweep_config):
        with SearchService(sweep_config, database=tiny_db) as service:
            assert service.search(tiny_queries[:4], deadline=60.0).ok

    def test_default_deadline_from_config(self, tiny_db, tiny_queries, sweep_config):
        service_config = ServiceConfig(default_deadline=1e-6)
        with SearchService(sweep_config, service_config, database=tiny_db) as service:
            response = service.search(tiny_queries)
            assert response.status in ("expired", "partial")
            # an explicit deadline overrides the default
            assert service.search(tiny_queries[:2], deadline=60.0).ok


class TestDrain:
    def test_stop_drains_admitted_work(self, tiny_db, tiny_queries, sweep_config):
        service = SearchService(sweep_config, database=tiny_db).start()
        handles = [
            service.submit([q], client="drain-test") for q in tiny_queries[:6]
        ]
        service.stop(drain=True)
        for handle in handles:
            assert handle.done()
            assert handle.result(timeout=0.1).ok

    def test_result_timeout_is_typed(self, tiny_db, tiny_queries, sweep_config):
        with SearchService(sweep_config, database=tiny_db) as service:
            handle = service.submit(tiny_queries[:2])
            with pytest.raises(ServiceError):
                handle.result(timeout=0.0)
            handle.result(timeout=30.0)  # then it lands normally


class TestReporting:
    def test_service_report_shape(self, tiny_db, tiny_queries, sweep_config):
        with SearchService(sweep_config, database=tiny_db) as service:
            service.search(tiny_queries[:3])
            payload = service.service_report()
        assert set(payload) == {"config", "health", "counters"}
        assert payload["config"]["workers"] == 2
        assert payload["counters"]["completed"] == 1

    def test_run_report_carries_service_section(self, tiny_db, tiny_queries, sweep_config):
        from repro.core.results import SearchReport
        from repro.obs.report import RunReport

        with SearchService(sweep_config, database=tiny_db) as service:
            response = service.search(tiny_queries[:3])
            section = service.service_report()
        report = SearchReport(
            algorithm="service", num_ranks=1, hits=response.hits,
            candidates_evaluated=1, virtual_time=0.1,
        )
        run = RunReport.from_search_report(report, service=section)
        assert run.engine == "service"
        reread = RunReport.from_json(run.to_json())
        assert reread.service["counters"]["completed"] == 1
        # batch reports stay schema-compatible: no service key at all
        batch = RunReport.from_search_report(
            SearchReport(algorithm="serial", num_ranks=1, hits={},
                         candidates_evaluated=0, virtual_time=0.1)
        )
        assert "service" not in batch.to_dict()
        assert RunReport.validate(batch.to_dict()) == []


class TestServeCLI:
    def test_serve_smoke(self, capsys):
        from repro.cli import main

        rc = main(
            ["serve", "-n", "80", "-m", "16",
             "--clients", "3", "--requests", "2", "--queries-per-request", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "drained: state=stopped" in out
        assert "ok: 6" in out

    def test_serve_has_no_workers_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as usage:
            main(["serve", "-n", "80", "-m", "8", "--workers", "2"])
        assert usage.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_writes_run_report(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.report import RunReport

        out_path = tmp_path / "serve.json"
        rc = main(
            ["serve", "-n", "80", "-m", "12", "--clients", "2", "--requests", "2",
             "--report-out", str(out_path)]
        )
        assert rc == 0
        run = RunReport.load(out_path)
        assert run.engine == "service"
        assert run.num_ranks == 1  # one scorer thread, whatever the budget
        assert run.service["counters"]["admitted"] == 4
        assert run.service["health"]["state"] == "running"

    def test_serve_from_index_path(self, tmp_path, capsys):
        from repro.cli import main

        idx = tmp_path / "idx"
        assert main(["index", "build", str(idx), "-n", "80"]) == 0
        capsys.readouterr()
        rc = main(
            ["serve", "--index-path", str(idx), "-m", "8",
             "--clients", "2", "--requests", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert f"one scorer over {idx}" in out
