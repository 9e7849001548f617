"""Unit tests for the RunReport schema (repro.obs.report)."""

import json

import pytest

from repro.core.config import SearchConfig
from repro.core.driver import run_search
from repro.core.search import search_serial
from repro.engines.multiproc import run_multiprocess_search
from repro.obs.report import SCHEMA, RunReport, engine_of
from repro.simmpi.scheduler import ClusterConfig
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def workload():
    return generate_database(120, seed=3), generate_queries(6, seed=5)


class TestFromSearchReport:
    def test_simmpi_report(self, workload):
        db, queries = workload
        report = run_search(db, queries, "algorithm_a", 2, SearchConfig(tau=5))
        rr = RunReport.from_search_report(report)
        assert rr.schema == SCHEMA
        assert rr.engine == "simmpi"
        assert rr.algorithm == "algorithm_a"
        assert rr.num_ranks == 2
        assert rr.trace is not None
        assert set(rr.trace["per_rank"]) == {"0", "1"}
        assert rr.results["queries"] == len(queries)
        assert rr.faults["failed_units"] == 0
        assert rr.faults["degraded"] is False

    def test_serial_report_has_null_trace(self, workload):
        db, queries = workload
        rr = RunReport.from_search_report(search_serial(db, queries, SearchConfig(tau=5)))
        assert rr.engine == "serial"
        assert rr.trace is None

    def test_multiproc_report(self, workload):
        db, queries = workload
        report = run_multiprocess_search(db, queries, num_workers=1, config=SearchConfig(tau=5))
        rr = RunReport.from_search_report(report)
        assert rr.engine == "multiproc"
        # canonical fault counters present even on a clean run, under one name
        assert rr.extras["recovery_retries"] == rr.extras["recovery_timeouts"] == 0
        assert rr.faults["recovery_timeouts"] == 0
        assert not {"retries", "timeouts", "failed_units"} & set(rr.extras)

    def test_candidates_per_second(self):
        rr = RunReport(
            algorithm="a", engine="simmpi", num_ranks=1, virtual_time=2.0,
            candidates_evaluated=10, results={},
        )
        assert rr.candidates_per_second == 5.0
        rr.virtual_time = 0.0
        assert rr.candidates_per_second == 0.0


class TestEngineOf:
    @pytest.mark.parametrize(
        "algorithm,engine",
        [
            ("multiprocess", "multiproc"),
            ("service", "service"),
            ("serial", "serial"),
            ("algorithm_b", "simmpi"),
            ("xbang", "simmpi"),
        ],
    )
    def test_classification(self, algorithm, engine):
        class Fake:
            pass

        fake = Fake()
        fake.algorithm = algorithm
        assert engine_of(fake) == engine


class TestRoundTrip:
    def test_json_round_trip(self, workload, tmp_path):
        db, queries = workload
        report = run_search(db, queries, "algorithm_a", 2, SearchConfig(tau=5))
        rr = RunReport.from_search_report(report, metrics={"version": 1, "counters": {}})
        path = tmp_path / "report.json"
        rr.write(path)
        loaded = RunReport.load(path)
        assert loaded.to_dict() == rr.to_dict()

    def test_written_file_is_plain_json(self, workload, tmp_path):
        db, queries = workload
        rr = RunReport.from_search_report(search_serial(db, queries, SearchConfig(tau=5)))
        path = tmp_path / "report.json"
        rr.write(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert RunReport.validate(payload) == []


class TestValidate:
    def _minimal(self):
        return RunReport(
            algorithm="a", engine="simmpi", num_ranks=1, virtual_time=1.0,
            candidates_evaluated=1, results={},
        ).to_dict()

    def test_valid_payload_passes(self):
        assert RunReport.validate(self._minimal()) == []

    def test_non_object_rejected(self):
        assert RunReport.validate([1, 2]) == ["payload is not a JSON object"]

    def test_missing_key_reported(self):
        payload = self._minimal()
        del payload["faults"]
        assert any("faults" in p for p in RunReport.validate(payload))

    def test_unknown_schema_version_rejected(self):
        payload = self._minimal()
        payload["schema"] = "repro.run_report/999"
        assert any("unsupported schema version" in p for p in RunReport.validate(payload))
        payload["schema"] = "something/else"
        assert any("unrecognized schema" in p for p in RunReport.validate(payload))

    def test_bad_num_ranks_rejected(self):
        payload = self._minimal()
        payload["num_ranks"] = 0
        assert any("num_ranks" in p for p in RunReport.validate(payload))

    def test_index_build_keys_were_never_required(self, workload):
        """A /1 report written before the in-search index build went away
        carried ``total_index_build`` / ``index_build`` in its trace block
        and ``index_build_time`` in extras; one written now does not.
        Readers accept both."""
        db, queries = workload
        report = run_search(db, queries, "algorithm_a", 2, SearchConfig(tau=5))
        payload = RunReport.from_search_report(report).to_dict()
        assert "total_index_build" not in payload["trace"]
        assert "index_build" not in payload["trace"]["per_rank"]["0"]
        assert "index_build_time" not in payload["extras"]
        assert RunReport.validate(payload) == []
        payload["trace"]["total_index_build"] = 0.5
        payload["trace"]["per_rank"]["0"]["index_build"] = 0.5
        payload["extras"]["index_build_time"] = 0.5
        assert RunReport.validate(payload) == []
        assert RunReport.from_dict(payload).trace["total_index_build"] == 0.5

    def test_from_dict_raises_on_invalid(self):
        with pytest.raises(ValueError, match="not a valid RunReport"):
            RunReport.from_dict({"schema": SCHEMA})


class TestFaultNormalization:
    def test_simmpi_fault_keys_normalize(self, workload):
        db, queries = workload
        from repro.faults.plan import FaultPlan, RankCrash

        plan = FaultPlan(crashes=(RankCrash(rank=1, time=0.01),))
        report = run_search(
            db, queries, "algorithm_a", 2, SearchConfig(tau=5),
            cluster_config=ClusterConfig(num_ranks=2, fault_plan=plan),
        )
        rr = RunReport.from_search_report(report)
        assert rr.faults["failed_ranks"] == [1]
        assert rr.faults["failed_units"] == 1
        assert rr.faults["degraded"] is True
        assert rr.faults["recovery_retries"] == report.extras["recovery_retries"]
        assert "transfer_retries" not in report.extras
