"""End-to-end autotune tests: the rule's pick, its run, its report, CLI wiring.

:func:`repro.core.driver.choose_plan` times nothing, so these run the
plan it picks — and every plan it could have picked — through
``run_search`` and pin that each returns the serial reference's hits,
that the RunReport ``tuning`` section records the plan that ran, and
that the CLI's explicit-flag precedence holds.
"""

import json

import pytest

from repro.cli import main
from repro.core import driver
from repro.core.config import SearchConfig
from repro.core.driver import TUNING_SCHEMA, Plan, choose_plan, run_search
from repro.core.search import search_serial
from repro.experiments.runner import _hits_digest
from repro.obs.report import RunReport
from repro.store import save_partitioned_index
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def workload():
    return generate_database(120, seed=202), generate_queries(40, seed=17)


def run_plan(plan, db, queries, config, store=None, memory_budget_mb=None):
    """What the experiments runner does with an ``autotune`` cell's plan."""
    streamed = plan.source == "streamed"
    return run_search(
        db,
        queries,
        plan.algorithm,
        plan.num_workers,
        config,
        query_blocks=plan.query_blocks,
        start_method=plan.start_method,
        index_path=str(store.path) if streamed else None,
        memory_budget_mb=memory_budget_mb if streamed else None,
    )


CLI_WORKLOAD = ["-n", "80", "-m", "12"]


class TestAutotuneEndToEnd:
    def test_full_pass_with_store(self, tmp_path, workload):
        """A store with no budget runs direct; a budget under the
        resident footprint streams from it; both record their inputs."""
        db, queries = workload
        config = SearchConfig()
        # partitions small enough for a budget under database + queries
        store = save_partitioned_index(db, str(tmp_path / "pstore"), partition_mb=0.01)
        resident = db.nbytes + sum(q.nbytes for q in queries)

        direct = choose_plan(db, queries, config, store=store)
        assert direct.source == "direct"
        budget = resident / 2 / (1024 * 1024)
        streamed = choose_plan(db, queries, config, store=store, memory_budget_mb=budget)
        assert streamed.source == "streamed"
        assert streamed.inputs == {**direct.inputs, "memory_budget_mb": budget}

        report = run_plan(streamed, db, queries, config, store, budget)
        assert report.extras["index_provenance"]["source"] == "streamed"
        assert _hits_digest(report.hits) == _hits_digest(
            search_serial(db, queries, config).hits
        )
        section = streamed.tuning_section()
        assert section["schema"] == TUNING_SCHEMA == "repro.tuning/4"
        assert section["inputs"] == {
            "candidates": report.candidates_evaluated,
            "crossover": driver.MULTIPROC_CROSSOVER_CANDIDATES,
            "cpus": direct.inputs["cpus"],
            "memory_budget_mb": budget,
            "resident_bytes": resident,
            "store": True,
        }
        json.dumps(section)  # the section must be JSON-serializable

    @pytest.mark.parametrize("scorer", ["likelihood", "hyperscore"])
    def test_autotuned_hits_equal_the_serial_reference(self, tmp_path, workload, scorer):
        """Whatever the rule picks — and every plan it could have picked —
        returns the serial reference's hits, bit for bit."""
        db, queries = workload
        config = SearchConfig(scorer=scorer)
        reference = _hits_digest(search_serial(db, queries, config).hits)
        store = save_partitioned_index(db, str(tmp_path / "pstore"), partition_mb=1.0)
        picked = choose_plan(db, queries, config, store=store)
        multiproc = Plan("multiproc", 2, driver.MULTIPROC_QUERY_BLOCKS, picked.start_method)
        for plan in (picked, Plan(), multiproc):
            for source in ("direct", "streamed"):
                ran = Plan(plan.algorithm, plan.num_workers, plan.query_blocks,
                           plan.start_method, source)
                report = run_plan(ran, db, queries, config, store, memory_budget_mb=1.0)
                assert _hits_digest(report.hits) == reference, ran.label


class TestTuningReportSection:
    def test_round_trip(self, workload):
        db, queries = workload
        plan = choose_plan(db, queries)
        report = RunReport.from_search_report(
            run_plan(plan, db, queries, SearchConfig()), tuning=plan.tuning_section()
        )
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
    """The flag-precedence rules, end to end."""

    def test_autotune_adopts_choice(self, tmp_path, capsys):
        serial_tsv, tuned_tsv = str(tmp_path / "serial.tsv"), str(tmp_path / "tuned.tsv")
        assert main(["search", "-a", "serial", *CLI_WORKLOAD, "-o", serial_tsv]) == 0
        capsys.readouterr()
        report_path = str(tmp_path / "report.json")
        rc = main(
            ["search", "--autotune", *CLI_WORKLOAD, "-o", tuned_tsv,
             "--report-out", report_path]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "autotune: chose serial:direct" in captured.out
        assert "candidates vs crossover" in captured.out
        assert "overrides" not in captured.err
        with open(serial_tsv, "rb") as a, open(tuned_tsv, "rb") as b:
            assert a.read() == b.read()
        tuning = RunReport.load(report_path).tuning
        assert tuning["choice"]["label"] == "serial:direct"
        assert tuning["overrides"] == []

    def test_explicit_flag_wins_with_warning(self, tmp_path, capsys):
        # the rule only ever picks a real engine (serial/multiproc), so
        # an explicit simulated engine always contradicts it
        report_path = str(tmp_path / "report.json")
        rc = main(
            ["search", "--autotune", "-a", "algorithm_a", *CLI_WORKLOAD,
             "--report-out", report_path]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "autotune: chose" in captured.out
        assert "overrides the autotuned choice" in captured.err
        assert "algorithm_a" in captured.out  # explicit engine actually ran
        tuning = RunReport.load(report_path).tuning
        assert tuning["choice"]["algorithm"] == "algorithm_a"
        assert tuning["overrides"] == ["--algorithm"]

    def test_autotune_records_the_streamed_run(self, tmp_path, capsys):
        """``--stream`` is handed to the rule and the section names the
        plan that ran: streamed, as the run's provenance says."""
        report_path = str(tmp_path / "report.json")
        rc = main(
            ["search", "--autotune", "--stream", "--memory-budget-mb", "2",
             "--partition-mb", "0.5", "-n", "200", "-m", "40", "--show", "0",
             "--report-out", report_path]
        )
        assert rc == 0
        report = RunReport.load(report_path)
        assert report.extras["index_provenance"]["source"] == "streamed"
        assert report.tuning["choice"]["source"] == "streamed"
        assert report.tuning["choice"]["label"].endswith(":streamed")
        assert report.tuning["inputs"]["store"] is True
        assert report.tuning["inputs"]["memory_budget_mb"] == 2.0

    def test_budget_under_footprint_without_store_is_typed_error(self, capsys):
        rc = main(["search", "--autotune", *CLI_WORKLOAD, "--memory-budget-mb", "0.01"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no partitioned store" in err
