"""Unit tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.algorithm == "algorithm_a"
        assert args.ranks == 4

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "-a", "nope"])


class TestSerialRanks:
    """`-a serial` follows its engine's one rank unless `-p` was typed."""

    def test_serial_runs_out_of_the_box(self, capsys):
        assert main(["search", "-n", "40", "-m", "3", "-a", "serial"]) == 0
        assert "serial p=1" in capsys.readouterr().out

    @pytest.mark.parametrize("ranks", [["-p", "4"], ["-p4"], ["--ranks=4"]])
    def test_explicit_ranks_still_error(self, ranks, capsys):
        assert main(["search", "-n", "40", "-m", "3", "-a", "serial", *ranks]) == 2
        assert "serial engine requires num_ranks == 1, got 4" in capsys.readouterr().err


class TestValidation:
    """Bad arguments die at the argparse boundary, before any work runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "-p", "0"],
            ["search", "-p", "-3"],
            ["search", "-p", "four"],
            ["search", "-n", "0"],
            ["search", "-m", "0"],
            ["search", "--tau", "0"],
            ["search", "--delta", "0"],
            ["search", "--delta", "-1.5"],
            ["search", "--task-timeout", "0"],
            ["generate", "out.fasta", "-n", "0"],
            ["trace", "-p", "0"],
        ],
    )
    def test_out_of_range_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "expected a" in capsys.readouterr().err

    def test_removed_sweep_flags_rejected(self, capsys):
        """The sweep is the only engine path: there is no flag to pick it."""
        for argv in (["search", "--use-sweep"], ["search", "--no-sweep"], ["serve", "--no-sweep"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_nonexistent_database_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--database", "/no/such/db.fasta"])
        assert "file not found" in capsys.readouterr().err

    def test_nonexistent_fault_plan_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--fault-plan", "/no/such/plan.json"])
        assert "file not found" in capsys.readouterr().err


class TestTypedErrors:
    """ReproError failures exit 2 with a one-line message, no traceback."""

    def test_malformed_fasta_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        bad.write_text("PEPTIDE\n>late\nKR\n")
        rc = main(["search", "--database", str(bad), "-m", "2", "-p", "1", "-a", "serial"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "before first '>' header" in err

    def test_malformed_fault_plan_is_clean_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text("{not json")
        rc = main(
            ["search", "-n", "30", "-m", "2", "-p", "2", "--fault-plan", str(plan)]
        )
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err


    def test_stream_temp_store_removed_on_typed_error(
        self, tmp_path, monkeypatch, capsys, recwarn
    ):
        """A ReproError after `--stream` built its throwaway store still removes it."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        rc = main(["search", "-n", "40", "-m", "3", "-a", "serial", "-p", "2", "--stream"])
        assert rc == 2
        assert "serial engine requires num_ranks == 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # removed by the `with` block, not by TemporaryDirectory's finalizer
        assert not [w for w in recwarn if issubclass(w.category, ResourceWarning)]

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
        from repro.store import save_index
        from repro.workloads.synthetic import generate_database

        path = str(tmp_path / "resident")
        save_index(generate_database(60, seed=202), path)
        rc = main(
            ["search", "-a", "serial", "-n", "60", "-m", "4",
             "--stream", "--index-path", path]
        )
        assert rc == 2
        assert "--stream needs a partitioned store" in capsys.readouterr().err

    def test_memory_budget_rejects_resident_store(self, tmp_path, capsys):
        from repro.store import save_index
        from repro.workloads.synthetic import generate_database

        path = str(tmp_path / "resident")
        save_index(generate_database(60, seed=202), path)
        rc = main(
            ["search", "-a", "serial", "-n", "60", "-m", "4",
             "--memory-budget-mb", "64", "--index-path", path]
        )
        assert rc == 2
        assert "resident-format store" in capsys.readouterr().err


class TestFaultToleranceFlags:
    def test_multiproc_with_fault_plan_retries_and_completes(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, RankCrash

        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(crashes=(RankCrash(0, 1.0),)).to_json())
        rc = main(
            [
                "search", "-n", "40", "-m", "3", "-p", "2",
                "-a", "multiproc", "--fault-plan", str(plan),
            ]
        )
        assert rc == 0
        assert "multiprocess p=2" in capsys.readouterr().out

    def test_multiproc_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        base = ["search", "-n", "40", "-m", "3", "-p", "1", "-a", "multiproc",
                "--checkpoint", str(ckpt)]
        assert main(base) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        assert "resumed 1 completed task(s)" in capsys.readouterr().out

    def test_sim_engine_accepts_fault_plan(self, tmp_path, capsys):
        from repro.faults.plan import FaultPlan, Straggler

        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(stragglers=(Straggler(1, factor=0.5),)).to_json())
        rc = main(
            ["search", "-n", "40", "-m", "3", "-p", "2", "--fault-plan", str(plan)]
        )
        assert rc == 0
        assert "algorithm_a p=2" in capsys.readouterr().out


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "db.fasta"
        assert main(["generate", str(out), "-n", "15"]) == 0
        assert out.exists()
        assert "15 sequences" in capsys.readouterr().out

    def test_generate_named_dataset(self, tmp_path):
        out = tmp_path / "h.fasta"
        assert main(["generate", str(out), "-n", "10", "--dataset", "human"]) == 0

    def test_search_prints_hits(self, capsys):
        rc = main(["search", "-n", "100", "-m", "5", "-p", "2", "--show", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm_a p=2" in out
        assert "query" in out

    @pytest.mark.parametrize(
        "engine,line",
        [
            (["-a", "multiproc", "-p", "2"], "multiprocess p=2: wall time "),
            (["-a", "serial"], "serial p=1: simulated time "),
            (["-a", "algorithm_a", "-p", "2"], "algorithm_a p=2: simulated time "),
        ],
    )
    def test_search_names_its_clock(self, engine, line, capsys):
        """A multiproc report's time is the wall clock; the others' is modeled."""
        assert main(["search", "-n", "40", "-m", "3", "--show", "0", *engine]) == 0
        assert line in capsys.readouterr().out


class TestObservabilityCommands:
    def test_search_report_out_writes_valid_run_report(self, capsys, tmp_path):
        import json

        from repro.obs.report import SCHEMA, RunReport

        path = tmp_path / "report.json"
        rc = main(
            ["search", "-n", "120", "-m", "6", "-p", "2", "--report-out", str(path)]
        )
        assert rc == 0
        assert f"wrote run report to {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA
        assert RunReport.validate(payload) == []
        # the registry was live during the run, so the hot path counted:
        # each of the 6 queries is scored against both shards
        assert payload["metrics"]["counters"]["search.queries"] == 12

    @pytest.mark.parametrize(
        "engine", [["-a", "serial"], ["-a", "algorithm_a", "-p", "3"], ["-a", "multiproc", "-p", "1"]]
    )
    def test_files_to_tsv_and_run_report_build_no_hit(self, engine, capsys, tmp_path, monkeypatch):
        """The hits of a whole run stay columns from the block emit to the
        TSV and the RunReport's counts; only a printed query is indexed."""
        import json

        from repro.scoring import hits

        built = []
        build_hits = hits._build_hits
        monkeypatch.setattr(
            hits, "_build_hits", lambda qid, *a: built.append(qid) or build_hits(qid, *a)
        )
        tsv, report = tmp_path / "x.tsv", tmp_path / "r.json"
        argv = ["search", "-n", "80", "-m", "8", *engine, "-o", str(tsv), "--report-out", str(report)]
        assert main(argv + ["--show", "0"]) == 0
        assert built == []
        rows = tsv.read_text().splitlines()[1:]
        results = json.loads(report.read_text())["results"]
        assert results["queries"] == 8 and results["hits_reported"] == len(rows) > 0
        assert results["queries_with_hits"] == len({row.split("\t")[0] for row in rows})
        capsys.readouterr()
        assert main(argv + ["--show", "2"]) == 0
        shown = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  query ")]
        assert len(shown) == 2 and len(built) >= 2  # the printed ones, and empties passed over
        assert len(built) < 8

    def test_search_report_out_disables_registry_after(self, tmp_path):
        from repro.obs.metrics import get_metrics

        rc = main(
            ["search", "-n", "100", "-m", "4", "-p", "2",
             "--report-out", str(tmp_path / "r.json")]
        )
        assert rc == 0
        assert get_metrics().enabled is False

    def test_trace_chrome_simmpi(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main(
            ["trace", "-n", "120", "-m", "6", "-p", "2", "--out", str(path)]
        )
        assert rc == 0
        assert "trace events" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["otherData"]["engine"] == "simmpi"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete and {e["tid"] for e in complete} == {0, 1}

    def test_trace_ascii_simmpi_prints_gantt(self, capsys):
        rc = main(
            ["trace", "-n", "120", "-m", "6", "-p", "2",
             "--format", "ascii", "--width", "50"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "P0" in out and "#" in out

    def test_trace_chrome_multiproc(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        rc = main(
            ["trace", "-a", "multiproc", "-n", "120", "-m", "4", "-p", "2",
             "--out", str(path)]
        )
        assert rc == 0
        doc = json.loads(path.read_text())
        assert doc["otherData"]["engine"] == "multiproc"
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "task" in cats and "supervise" in cats

    def test_trace_ascii_rejects_multiproc(self, capsys):
        rc = main(["trace", "-a", "multiproc", "-p", "2", "--format", "ascii"])
        assert rc == 2
        assert "simulated engine" in capsys.readouterr().err

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.format == "chrome"
        assert args.out == "trace.json"
        assert args.algorithm == "algorithm_a"
