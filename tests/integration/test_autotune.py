"""End-to-end autotuner tests: grid, trial, pick, run, report, CLI wiring.

The trial is real here (every feasible plan is timed on this host), so
the workloads are small; a module-scoped cache file lets the tests that
are not about the trial reuse the first one's rates.  What is pinned:
the full autotune path — profiling, the grid, the timed pick, the
verification run, the RunReport ``tuning`` section — returns the serial
reference's hits whichever plan wins, and the CLI flag precedence rules
hold.
"""

import json

import pytest

from repro.cli import main
from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.experiments.runner import _hits_digest
from repro.obs.report import RunReport
from repro.store import save_index, save_partitioned_index
from repro.tune.tuner import TUNING_SCHEMA, autotune, run_plan
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def workload():
    return generate_database(120, seed=202), generate_queries(40, seed=17)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    """Filled by the first test that tunes the module's no-store workload."""
    return str(tmp_path_factory.mktemp("tune") / "trials.json")


@pytest.fixture(scope="module")
def cli_cache(tmp_path_factory):
    """A trial cache for the CLI's ``-n 80 -m 12`` workload, timed once."""
    path = str(tmp_path_factory.mktemp("tune-cli") / "trials.json")
    assert main(["tune", "--plan-only", "--tune-cache", path, "-n", "80", "-m", "12"]) == 0
    return path


CLI_WORKLOAD = ["-n", "80", "-m", "12"]


class TestAutotuneEndToEnd:
    def test_full_pass_with_store(self, tmp_path, workload):
        db, queries = workload
        config = SearchConfig()
        store = save_partitioned_index(
            db,
            str(tmp_path / "pstore"),
            partition_mb=1.0,
        )
        cache = str(tmp_path / "trials.json")
        result = autotune(db, queries, config, cache_path=cache, store=store)
        assert result.trial_info["source"] == "measured"
        assert result.trial_info["samples"] == [8, 40]
        assert result.trial_info["trial_wall_s"] > 0
        assert result.chosen == result.trials[0].plan
        assert result.predicted_s == min(t.predicted_s for t in result.trials)
        assert {t.plan.stream for t in result.trials} == {False, True}
        for trial in result.trials:
            assert trial.fixed_s >= 0 and trial.seconds_per_candidate >= 0

        ver = result.verification
        assert set(ver) == {"measured_makespan_s", "predicted_makespan_s", "rel_error"}
        assert ver["measured_makespan_s"] > 0
        assert ver["predicted_makespan_s"] == result.predicted_s
        assert ver["rel_error"] == pytest.approx(
            (result.predicted_s - ver["measured_makespan_s"]) / ver["measured_makespan_s"]
        )

        points = result.lower_bounds["points"]
        assert set(points) == {"128", "512", "1024"}
        for point in points.values():
            assert 0.0 <= point["overlap_efficiency"] <= 1.0
            assert point["residual_to_compute"] >= 0.0
            assert point["floor_makespan_s"] == pytest.approx(
                max(point["comm_floor_s"], point["compute_floor_s"])
            )

        section = result.tuning
        assert section["schema"] == TUNING_SCHEMA == "repro.tuning/3"
        assert section["trial"]["source"] == "measured"
        assert [p["plan"] for p in section["trial"]["plans"]] == [
            t.plan.label for t in result.trials
        ]
        assert section["chosen_label"] == result.chosen.label
        assert section["grid"]["feasible"] == len(result.trials)
        assert section["grid"]["pruned"] == len(result.pruned)
        assert {k["knob"] for k in section["grid"]["pinned"]} == {
            "sweep_cohort", "query_blocks", "start_method"
        }
        assert all(k["measured"] for k in section["grid"]["pinned"])
        assert section["workload"] == {
            "queries": len(queries), "candidates": result.profile.total_candidates,
        }
        json.dumps(section)  # the section must be JSON-serializable

        # the same call again: nothing is timed, the pick is the same
        again = autotune(db, queries, config, cache_path=cache, store=store, run=False)
        assert again.trial_info["source"] == "cache"
        assert again.chosen == result.chosen
        assert again.predicted_s == pytest.approx(result.predicted_s)

    def test_plan_only_skips_run(self, cache_path, workload):
        db, queries = workload
        result = autotune(
            db, queries, cache_path=cache_path, run=False, lower_bounds=False
        )
        assert result.report is None
        assert result.verification is None
        assert result.lower_bounds is None
        assert "verification" not in result.tuning
        assert "lower_bounds" not in result.tuning

    @pytest.mark.parametrize("scorer", ["likelihood", "hyperscore"])
    def test_autotuned_hits_equal_the_serial_reference(self, tmp_path, workload, scorer):
        """Whatever the trial picks — and every plan it could have picked —
        returns the serial reference's hits, bit for bit."""
        db, queries = workload
        config = SearchConfig(scorer=scorer)
        reference = _hits_digest(search_serial(db, queries, config).hits)
        store = save_partitioned_index(
            db,
            str(tmp_path / "pstore"),
            partition_mb=1.0,
        )
        result = autotune(db, queries, config, store=store, lower_bounds=False)
        assert _hits_digest(result.report.hits) == reference
        for trial in result.trials[1:]:
            report, _ = run_plan(trial.plan, db, queries, config, store=store)
            assert _hits_digest(report.hits) == reference, trial.plan.label


class TestTuningReportSection:
    def test_round_trip(self, cache_path, workload):
        db, queries = workload
        result = autotune(db, queries, cache_path=cache_path)
        report = RunReport.from_search_report(result.report, tuning=result.tuning)
        assert not RunReport.validate(report.to_dict())
        loaded = RunReport.from_dict(json.loads(report.to_json()))
        assert loaded.tuning == report.tuning
        assert loaded.tuning["schema"] == TUNING_SCHEMA

    def test_missing_tuning_stays_optional(self, workload):
        db, queries = workload
        report = RunReport.from_search_report(
            search_serial(db, list(queries)[:4], SearchConfig())
        )
        payload = report.to_dict()
        assert "tuning" not in payload
        assert not RunReport.validate(payload)
        assert RunReport.from_dict(payload).tuning is None

    def test_non_object_tuning_rejected(self, workload):
        db, queries = workload
        report = RunReport.from_search_report(
            search_serial(db, list(queries)[:4], SearchConfig())
        )
        payload = report.to_dict()
        payload["tuning"] = "fast"
        assert any("tuning" in p for p in RunReport.validate(payload))


class TestCliFlagCombinations:
    """Satellite: the flag-precedence and misuse rules, end to end."""

    def test_autotune_adopts_choice(self, cli_cache, tmp_path, capsys):
        serial_tsv, tuned_tsv = str(tmp_path / "serial.tsv"), str(tmp_path / "tuned.tsv")
        assert main(["search", "-a", "serial", *CLI_WORKLOAD, "-o", serial_tsv]) == 0
        capsys.readouterr()
        rc = main(
            ["search", "--autotune", "--tune-cache", cli_cache, *CLI_WORKLOAD,
             "-o", tuned_tsv]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "autotune: chose" in out
        assert "timed:" in out and "trial cache" in out
        with open(serial_tsv, "rb") as a, open(tuned_tsv, "rb") as b:
            assert a.read() == b.read()

    def test_explicit_flag_wins_with_warning(self, cli_cache, capsys):
        # the tuner only ever picks a real engine (serial/multiproc), so
        # an explicit simulated engine always contradicts it
        rc = main(
            ["search", "--autotune", "--tune-cache", cli_cache,
             "-a", "algorithm_a", *CLI_WORKLOAD]
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
        save_index(db, path)
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
        save_index(db, path)
        rc = main(
            ["search", "-a", "serial", "-n", "60", "-m", "4",
             "--memory-budget-mb", "64", "--index-path", path]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "resident-format store" in err

    def test_tune_rejects_resident_store(self, tmp_path, capsys):
        db = generate_database(60, seed=202)
        path = str(tmp_path / "resident")
        save_index(db, path)
        rc = main(["tune", "-n", "60", "-m", "4", "--index-path", path])
        assert rc == 2
        assert "streams only from partitioned stores" in capsys.readouterr().err

    def test_tune_plan_only(self, cli_cache, capsys):
        rc = main(["tune", "--plan-only", "--tune-cache", cli_cache, *CLI_WORKLOAD])
        assert rc == 0
        out = capsys.readouterr().out
        assert "source: cache" in out and "nothing timed" in out
        assert "grid:" in out
        assert "verification:" not in out
        # --retune times again over the valid cache
        rc = main(
            ["tune", "--plan-only", "--retune", "--tune-cache", cli_cache, *CLI_WORKLOAD]
        )
        assert rc == 0
        assert "source: measured" in capsys.readouterr().out

    def test_tune_report_out_requires_run(self, cli_cache, tmp_path, capsys):
        rc = main(
            ["tune", "--plan-only", "--tune-cache", cli_cache, *CLI_WORKLOAD,
             "--report-out", str(tmp_path / "report.json")]
        )
        assert rc == 2
        assert "drop --plan-only" in capsys.readouterr().err

    def test_tune_writes_report_with_section(self, cli_cache, tmp_path, capsys):
        out_path = str(tmp_path / "report.json")
        rc = main(
            ["tune", "--tune-cache", cli_cache, *CLI_WORKLOAD, "--report-out", out_path]
        )
        assert rc == 0
        assert "verification: measured" in capsys.readouterr().out
        report = RunReport.load(out_path)
        assert report.tuning is not None
        assert report.tuning["schema"] == TUNING_SCHEMA
        assert report.tuning["trial"]["source"] == "cache"
        assert set(report.tuning["verification"]) == {
            "measured_makespan_s", "predicted_makespan_s", "rel_error"
        }
