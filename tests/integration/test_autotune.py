"""End-to-end autotuner tests: plan, run, verify, report, CLI wiring.

Calibration is seeded through the on-disk cache (fabricated but
physically plausible terms under the real machine fingerprint) so these
tests exercise the full autotune path — profiling, grid search, the
verification run, the RunReport ``tuning`` section, and the CLI flag
precedence rules — without paying the microbenchmark battery per test.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import SearchConfig
from repro.obs.report import RunReport
from repro.store import save_index, save_partitioned_index
from repro.tune.cache import save_calibration
from repro.tune.tuner import TUNING_SCHEMA, autotune
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

#: plausible single-core terms (same shape a real calibration produces)
SEED_TERMS = {
    "rho_base": 1.3e-6,
    "tau_cost": 8.0e-7,
    "index_probe_discount": 0.5,
    "index_load_per_byte": 8.0e-11,
    "index_open_overhead": 2.4e-4,
    "sweep_setup_per_query": 1.6e-4,
    "sweep_probe_per_cohort": 4.8e-4,
    "partition_read_per_byte": 9.0e-10,
    "partition_decode_per_byte": 4.5e-9,
    "partition_open_overhead": 5.0e-5,
    "transport_ship_per_byte": 1.0e-9,
    "worker_spinup_fork": 1.7e-2,
    "worker_spinup_spawn": 0.4,
    "task_dispatch_overhead": 2.4e-4,
}


@pytest.fixture
def cache_path(tmp_path):
    path = str(tmp_path / "calibration.json")
    save_calibration(path, SEED_TERMS)
    return path


@pytest.fixture(scope="module")
def workload():
    return generate_database(120, seed=202), generate_queries(40, seed=17)


class TestAutotuneEndToEnd:
    def test_full_pass_with_store(self, tmp_path, cache_path, workload):
        db, queries = workload
        config = SearchConfig()
        store_path = str(tmp_path / "pstore")
        store = save_partitioned_index(
            db,
            store_path,
            partition_mb=1.0,
            fragment_tolerance=config.fragment_tolerance,
        )
        result = autotune(
            db,
            queries,
            config,
            cache_path=cache_path,
            store=store,
            store_path=store_path,
            worker_choices=(1,),
            query_blocks=(1,),
            sweep_cohorts=(64,),
            start_methods=("fork",),
        )
        assert result.calibration.source == "cache"
        assert result.chosen in [plan for plan, _ in result.ranking]
        assert result.prediction.total == result.ranking[0][1].total
        assert any(plan.stream for plan, _ in result.ranking)

        ver = result.verification
        assert ver is not None
        assert ver["measured_makespan_s"] > 0
        assert "evaluation+query_overhead" in ver["phases"]
        for phase in ver["phases"].values():
            assert set(phase) == {"predicted_s", "measured_s", "rel_error"}

        points = result.lower_bounds["points"]
        assert set(points) == {"128", "512", "1024"}
        for point in points.values():
            assert 0.0 <= point["overlap_efficiency"] <= 1.0
            assert point["residual_to_compute"] >= 0.0
            assert point["floor_makespan_s"] == pytest.approx(
                max(point["comm_floor_s"], point["compute_floor_s"])
            )

        section = result.tuning
        assert section["schema"] == TUNING_SCHEMA
        assert section["calibration"]["source"] == "cache"
        assert section["chosen_label"] == result.chosen.label
        assert section["grid"]["feasible"] == len(result.ranking)
        json.dumps(section)  # the section must be JSON-serializable

    def test_plan_only_skips_run(self, cache_path, workload):
        db, queries = workload
        result = autotune(
            db,
            queries,
            cache_path=cache_path,
            worker_choices=(1,),
            query_blocks=(1,),
            sweep_cohorts=(64,),
            start_methods=("fork",),
            run=False,
            lower_bounds=False,
        )
        assert result.report is None
        assert result.verification is None
        assert result.lower_bounds is None
        assert "verification" not in result.tuning
        assert "lower_bounds" not in result.tuning


class TestTuningReportSection:
    def test_round_trip(self, cache_path, workload):
        db, queries = workload
        result = autotune(
            db,
            queries,
            cache_path=cache_path,
            worker_choices=(1,),
            query_blocks=(1,),
            sweep_cohorts=(64,),
            start_methods=("fork",),
        )
        report = RunReport.from_search_report(result.report, tuning=result.tuning)
        assert not RunReport.validate(report.to_dict())
        loaded = RunReport.from_dict(json.loads(report.to_json()))
        assert loaded.tuning == report.tuning
        assert loaded.tuning["schema"] == TUNING_SCHEMA

    def test_missing_tuning_stays_optional(self, workload):
        db, queries = workload
        from repro.core.search import search_serial

        report = RunReport.from_search_report(
            search_serial(db, list(queries)[:4], SearchConfig())
        )
        payload = report.to_dict()
        assert "tuning" not in payload
        assert not RunReport.validate(payload)
        assert RunReport.from_dict(payload).tuning is None

    def test_non_object_tuning_rejected(self, workload):
        db, queries = workload
        from repro.core.search import search_serial

        report = RunReport.from_search_report(
            search_serial(db, list(queries)[:4], SearchConfig())
        )
        payload = report.to_dict()
        payload["tuning"] = "fast"
        assert any("tuning" in p for p in RunReport.validate(payload))


class TestCliFlagCombinations:
    """Satellite: the flag-precedence and misuse rules, end to end."""

    def test_autotune_adopts_choice(self, cache_path, capsys):
        rc = main(
            ["search", "--autotune", "--tune-cache", cache_path,
             "-n", "80", "-m", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "autotune: chose" in out

    def test_explicit_flag_wins_with_warning(self, cache_path, capsys):
        # the tuner only ever picks a real engine (serial/multiproc), so
        # an explicit simulated engine always contradicts it
        rc = main(
            ["search", "--autotune", "--tune-cache", cache_path,
             "-a", "algorithm_a", "-n", "80", "-m", "6"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "autotune: chose" in captured.out
        assert "overrides the autotuned choice" in captured.err
        assert "algorithm_a" in captured.out  # explicit engine actually ran

    def test_memory_budget_without_stream_is_typed_error(self, capsys):
        rc = main(
            ["search", "-a", "serial", "-n", "60", "-m", "4",
             "--memory-budget-mb", "64"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--memory-budget-mb" in err
        assert "--stream" in err

    def test_stream_rejects_resident_store(self, tmp_path, capsys):
        db = generate_database(60, seed=202)
        path = str(tmp_path / "resident")
        save_index(db, path, num_shards=1)
        rc = main(
            ["search", "-a", "serial", "-n", "60", "-m", "4",
             "--stream", "--index-path", path]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--stream needs a partitioned store" in err

    def test_memory_budget_rejects_resident_store(self, tmp_path, capsys):
        db = generate_database(60, seed=202)
        path = str(tmp_path / "resident")
        save_index(db, path, num_shards=1)
        rc = main(
            ["search", "-a", "serial", "-n", "60", "-m", "4",
             "--memory-budget-mb", "64", "--index-path", path]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "resident-format store" in err

    def test_tune_plan_only(self, cache_path, capsys):
        rc = main(
            ["tune", "--plan-only", "--tune-cache", cache_path,
             "-n", "80", "-m", "6"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "calibration: cache" in out
        assert "grid:" in out

    def test_tune_report_out_requires_run(self, cache_path, tmp_path, capsys):
        rc = main(
            ["tune", "--plan-only", "--tune-cache", cache_path,
             "-n", "80", "-m", "6",
             "--report-out", str(tmp_path / "report.json")]
        )
        assert rc == 2
        assert "drop --plan-only" in capsys.readouterr().err

    def test_tune_writes_report_with_section(self, cache_path, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        rc = main(
            ["tune", "--tune-cache", cache_path, "-n", "80", "-m", "6",
             "--report-out", out_path]
        )
        assert rc == 0
        report = RunReport.load(out_path)
        assert report.tuning is not None
        assert report.tuning["schema"] == TUNING_SCHEMA
        assert report.tuning["calibration"]["source"] == "cache"
