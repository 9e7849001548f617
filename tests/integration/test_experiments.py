"""Integration: the experiments grid runner end to end.

The contract under test is the issue's acceptance criterion: a grid can
be killed mid-run and ``repro experiments resume`` completes it without
rerunning finished cells, producing a ``report.json`` bitwise identical
to an uninterrupted run's.  Around that: schema-valid aggregates,
parallel == serial execution byte-for-byte, failed-cell semantics
(recorded, exit code 1, retried on resume), the markdown emitter +
splice round-trip, and every checked-in scenario parsing cleanly.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.errors import ExperimentSpecError
from repro.experiments import (
    ExperimentSpec,
    aggregate_run,
    extract_markdown,
    format_markdown,
    run_experiment,
    splice_markdown,
    validate_aggregate,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO_ROOT = os.path.dirname(SRC_DIR)
SCENARIOS_DIR = os.path.join(REPO_ROOT, "scenarios")


def tiny_payload(**overrides):
    """4 modeled cells, < 1 s total, with a scaling table over the grid."""
    payload = {
        "name": "itest",
        "description": "integration grid",
        "defaults": {
            "workload": {"queries": 25},
            "config": {"execution": "modeled"},
        },
        "axes": {
            "workload.database_size": [200, 400],
            "engine.ranks": [2, 4],
        },
        "tables": [
            {
                "name": "runtime",
                "rows": "workload.database_size",
                "cols": "engine.ranks",
                "value": "virtual_time",
                "scaling": True,
                "anchor_rank": 2,
            }
        ],
    }
    payload.update(overrides)
    return payload


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def checkpointed_cells(out_dir):
    with open(os.path.join(out_dir, "checkpoint.json")) as fh:
        return set(json.load(fh)["completed_tasks"])


class TestGridRun:
    def test_run_completes_and_validates(self, tmp_path):
        spec = ExperimentSpec.from_file(write_spec(tmp_path, tiny_payload()))
        out = str(tmp_path / "run")
        aggregate = run_experiment(spec, out)
        assert validate_aggregate(aggregate) == []
        assert aggregate["completed"] == aggregate["num_cells"] == 4
        assert aggregate["failed"] == []
        # every artifact of the layout exists
        for f in ("spec.json", "checkpoint.json", "report.json", "report.txt"):
            assert os.path.exists(os.path.join(out, f)), f
        assert checkpointed_cells(out) == {0, 1, 2, 3}
        for cell in spec.cells():
            assert os.path.exists(os.path.join(out, "cells", f"{cell.cell_id}.json"))
        # the scaling derivation rode along with the pivot
        (table,) = aggregate["tables"]
        assert table["name"] == "runtime"
        assert len(table["scaling"]["points"]) == 4
        assert all(p["rule"] == "chained" for p in table["scaling"]["points"])

    def test_parallel_workers_bitwise_equal(self, tmp_path):
        spec_path = write_spec(tmp_path, tiny_payload())
        spec = ExperimentSpec.from_file(spec_path)
        run_experiment(spec, str(tmp_path / "serial"), workers=1)
        run_experiment(spec, str(tmp_path / "fanout"), workers=2)
        a = (tmp_path / "serial" / "report.json").read_bytes()
        b = (tmp_path / "fanout" / "report.json").read_bytes()
        assert a == b

    def test_fresh_run_refuses_existing_checkpoint(self, tmp_path):
        spec = ExperimentSpec.from_file(write_spec(tmp_path, tiny_payload()))
        out = str(tmp_path / "run")
        run_experiment(spec, out)
        with pytest.raises(ExperimentSpecError, match="resume"):
            run_experiment(spec, out)

    def test_aggregate_rebuild_is_stable(self, tmp_path):
        spec = ExperimentSpec.from_file(write_spec(tmp_path, tiny_payload()))
        out = str(tmp_path / "run")
        run_experiment(spec, out)
        first = (tmp_path / "run" / "report.json").read_bytes()
        aggregate_run(spec, out)  # pure function of spec + cell files
        assert (tmp_path / "run" / "report.json").read_bytes() == first


class TestKillAndResume:
    def kill_payload(self):
        """One fast cell, then three slow ones: a wide window to kill in."""
        return {
            "name": "killable",
            "defaults": {"config": {"execution": "modeled"}},
            "cells": [
                {"id": "fast", "workload.database_size": 150, "workload.queries": 20},
                {"id": "slow1", "workload.database_size": 6000, "workload.queries": 600},
                {"id": "slow2", "workload.database_size": 6000, "workload.queries": 601},
                {"id": "slow3", "workload.database_size": 6000, "workload.queries": 602},
            ],
            "tables": [
                {
                    "name": "runtime",
                    "rows": "workload.database_size",
                    "cols": "workload.queries",
                    "value": "virtual_time",
                }
            ],
        }

    def test_kill_mid_grid_then_resume_bitwise_identical(self, tmp_path, host_slowdown):
        spec_path = write_spec(tmp_path, self.kill_payload())
        out = str(tmp_path / "run")

        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiments", "run", spec_path,
             "--out", out, "--quiet"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # wait until at least one cell is checkpointed, then pull the
            # plug; the wait is on the runner itself, so a runner that died
            # (or finished) ends it at once instead of running out the clock
            checkpoint = os.path.join(out, "checkpoint.json")
            deadline = time.monotonic() + 60 * host_slowdown
            while not (os.path.exists(checkpoint) and checkpointed_cells(out)):
                if time.monotonic() > deadline:
                    pytest.fail("runner never checkpointed a cell")
                try:
                    proc.wait(timeout=0.02)
                except subprocess.TimeoutExpired:
                    continue
                break  # exited on its own: the asserts below say how far it got
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()

        done = checkpointed_cells(out)
        assert done, "kill landed before any checkpoint"
        assert len(done) < 4, "grid finished before the kill; slow cells too fast"

        # snapshot the finished cells' files: resume must not touch them
        spec = ExperimentSpec.from_file(spec_path)
        cells = spec.cells()
        frozen = {}
        for i in sorted(done):
            path = os.path.join(out, "cells", f"{cells[i].cell_id}.json")
            frozen[path] = (os.stat(path).st_mtime_ns, open(path, "rb").read())

        rc = main(["experiments", "resume", spec_path, "--out", out, "--quiet"])
        assert rc == 0
        for path, (mtime_ns, payload) in frozen.items():
            assert os.stat(path).st_mtime_ns == mtime_ns, f"{path} was rerun"
            assert open(path, "rb").read() == payload
        assert checkpointed_cells(out) == {0, 1, 2, 3}

        # the resumed grid's aggregate is bitwise identical to a clean run's
        reference = str(tmp_path / "reference")
        run_experiment(ExperimentSpec.from_file(spec_path), reference)
        resumed_bytes = open(os.path.join(out, "report.json"), "rb").read()
        clean_bytes = open(os.path.join(reference, "report.json"), "rb").read()
        assert resumed_bytes == clean_bytes


class TestFailedCells:
    def failing_payload(self):
        """master_worker aborts on a dead peer (not fault tolerant)."""
        return {
            "name": "partial",
            "defaults": {
                "workload": {"database_size": 150, "queries": 15},
                "config": {"execution": "modeled"},
            },
            "fault_plans": {"boom": {"crashes": [{"rank": 1, "time": 0.0001}]}},
            "cells": [
                {"id": "ok", "engine.ranks": 2},
                {
                    "id": "doomed",
                    "engine.algorithm": "master_worker",
                    "engine.ranks": 4,
                    "config.execution": "real",
                    "faults.plan": "boom",
                },
            ],
        }

    def test_failure_recorded_and_rc1(self, tmp_path):
        spec_path = write_spec(tmp_path, self.failing_payload())
        out = str(tmp_path / "run")
        rc = main(["experiments", "run", spec_path, "--out", out, "--quiet"])
        assert rc == 1
        payload = json.load(open(os.path.join(out, "report.json")))
        assert validate_aggregate(payload) == []
        assert payload["completed"] == 1
        assert [f["id"] for f in payload["failed"]] == ["doomed"]
        assert payload["failed"][0]["error"]  # typed one-line reason, not empty
        # the healthy cell is checkpointed; the failed one is not
        assert checkpointed_cells(out) == {0}

    def test_resume_retries_only_failures(self, tmp_path):
        spec_path = write_spec(tmp_path, self.failing_payload())
        out = str(tmp_path / "run")
        main(["experiments", "run", spec_path, "--out", out, "--quiet"])
        ok_report = os.path.join(out, "cells", "ok.json")
        before = os.stat(ok_report).st_mtime_ns
        rc = main(["experiments", "resume", spec_path, "--out", out, "--quiet"])
        assert rc == 1  # doomed fails deterministically again
        assert os.stat(ok_report).st_mtime_ns == before


class TestMarkdownEmitter:
    @pytest.fixture()
    def aggregate(self, tmp_path):
        spec = ExperimentSpec.from_file(write_spec(tmp_path, tiny_payload()))
        return run_experiment(spec, str(tmp_path / "run"))

    def test_markdown_has_tables_and_provenance(self, aggregate):
        md = format_markdown(aggregate)
        assert "Generated by `repro experiments report" in md
        assert "| " in md  # pipe tables
        assert aggregate["spec_digest"][:16] in md

    def test_splice_and_extract_round_trip(self, aggregate):
        md = format_markdown(aggregate)
        doc = "# Results\n\nhand-written intro\n"
        spliced = splice_markdown(doc, "itest", md)
        assert "hand-written intro" in spliced
        # round trip is modulo trailing whitespace (splice canonicalizes)
        assert extract_markdown(spliced, "itest") == md.rstrip()
        # idempotent: splicing the same content changes nothing
        assert splice_markdown(spliced, "itest", md) == spliced
        # replacement: new content swaps in, prose survives
        replaced = splice_markdown(spliced, "itest", "NEW")
        assert extract_markdown(replaced, "itest") == "NEW"
        assert "hand-written intro" in replaced


class TestAlgorithmTables:
    """Table IV's shape in miniature: B's sorting time as a table value,
    and every engine's cells measured against the floor in markdown."""

    @pytest.fixture()
    def aggregate(self, tmp_path):
        payload = tiny_payload(
            defaults={
                "workload": {"queries": 25, "database_size": 200},
                "config": {"execution": "modeled"},
            },
            axes={
                "engine.algorithm": ["algorithm_a", "algorithm_b"],
                "engine.ranks": [2, 4],
            },
            tables=[
                {
                    "name": "sorting",
                    "rows": "engine.algorithm",
                    "cols": "engine.ranks",
                    "value": "sorting_time",
                }
            ],
            lower_bounds={"ranks": [4]},
        )
        spec = ExperimentSpec.from_file(write_spec(tmp_path, payload))
        return run_experiment(spec, str(tmp_path / "run"))

    def test_sorting_time_is_b_only(self, aggregate):
        grid = {e["row"]: e["values"] for e in aggregate["tables"][0]["grid"]}
        assert grid["algorithm_a"] == [None, None]
        assert all(t > 0 for t in grid["algorithm_b"])
        md = format_markdown(aggregate)
        assert f"| algorithm_b | {grid['algorithm_b'][0]:.3f} |" in md
        assert "| algorithm_a | - | - |" in md

    def test_markdown_charts_every_engine_against_the_floor(self, aggregate):
        measured = aggregate["lower_bounds"]["measured"]
        assert sorted(m["cell"] for m in measured) == [
            "algorithm-algorithm_a__ranks-4", "algorithm-algorithm_b__ranks-4"
        ]
        md = format_markdown(aggregate)
        assert "measured vs. floor" in md
        for m in measured:
            assert m["cell"] in md


class TestCLI:
    def test_run_report_out_and_update(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, tiny_payload())
        out = str(tmp_path / "run")
        report_out = str(tmp_path / "agg.json")
        doc = tmp_path / "RESULTS.md"
        doc.write_text("# Results\n\nprose\n")

        rc = main([
            "experiments", "run", spec_path, "--out", out, "--quiet",
            "--report-out", report_out, "--update", str(doc),
        ])
        assert rc == 0
        assert validate_aggregate(json.load(open(report_out))) == []
        text = doc.read_text()
        assert "<!-- experiments:itest begin -->" in text
        assert "prose" in text
        capsys.readouterr()

        # `report` re-derives the same aggregate from disk, rc 0
        rc = main(["experiments", "report", spec_path, "--out", out,
                   "--format", "json"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["spec_digest"] == json.load(open(report_out))["spec_digest"]

        # updating again is a no-op on the document
        rc = main(["experiments", "report", spec_path, "--out", out,
                   "--update", str(doc)])
        assert rc == 0
        assert doc.read_text() == text

    def test_report_without_run_is_rc2(self, tmp_path):
        spec_path = write_spec(tmp_path, tiny_payload())
        rc = main(["experiments", "report", spec_path,
                   "--out", str(tmp_path / "nope")])
        assert rc == 2


class TestCheckedInScenarios:
    def scenario_files(self):
        return sorted(glob.glob(os.path.join(SCENARIOS_DIR, "*.yaml")))

    def test_scenarios_exist(self):
        names = [os.path.basename(p) for p in self.scenario_files()]
        assert "paper_tables.yaml" in names
        assert "smoke.yaml" in names

    def test_all_scenarios_parse(self):
        for path in self.scenario_files():
            spec = ExperimentSpec.from_file(path)
            assert spec.cells(), path
            assert spec.digest()

    def test_paper_tables_covers_the_paper_grid(self):
        spec = ExperimentSpec.from_file(
            os.path.join(SCENARIOS_DIR, "paper_tables.yaml")
        )
        assert len(spec.cells()) == 40  # 5 database sizes x 8 rank counts
        sizes = {c.params["workload.database_size"] for c in spec.cells()}
        ranks = {c.params["engine.ranks"] for c in spec.cells()}
        assert sizes == {1000, 2000, 4000, 8000, 16000}
        assert ranks == {1, 2, 4, 8, 16, 32, 64, 128}
        assert spec.cells()[0].params["workload.queries"] == 1210
        assert any(t.scaling for t in spec.tables)

    def test_algorithms_covers_table4(self):
        spec = ExperimentSpec.from_file(
            os.path.join(SCENARIOS_DIR, "algorithms.yaml")
        )
        cells = {
            (c.params["engine.algorithm"], c.params["engine.ranks"])
            for c in spec.cells()
        }
        assert cells == {
            (a, p)
            for a in ("algorithm_a", "algorithm_a_nomask", "algorithm_b")
            for p in (1, 2, 4, 8, 16, 32, 64)
        }
        assert [t.value for t in spec.tables] == ["virtual_time", "sorting_time"]
        assert spec.lower_bounds["ranks"] == [8, 16, 32, 64]

    def test_validation_scenario_passes_then_catches_a_perturbed_cell(self, tmp_path):
        """What `repro validate` was: rc 0 when every engine reproduces the
        serial hits, rc 1 as soon as one cell's hits differ."""
        import yaml

        with open(os.path.join(SCENARIOS_DIR, "validation.yaml")) as fh:
            payload = yaml.safe_load(fh)
        cells = ExperimentSpec.from_dict(payload).cells()
        assert {(c.params["engine.algorithm"], c.params["engine.ranks"]) for c in cells} == {
            ("serial", 1), ("algorithm_a", 4), ("algorithm_b", 4), ("master_worker", 4)
        }
        assert {c.params["config.scorer"] for c in cells} == {
            "shared_peaks", "hyperscore", "xcorr", "likelihood"
        }
        payload["defaults"]["workload"] = {"database_size": 80, "queries": 8}
        spec_path = write_spec(tmp_path, payload)
        out = str(tmp_path / "run")
        assert main(["experiments", "run", spec_path, "--out", out, "--quiet"]) == 0
        cell_path = os.path.join(out, "cells", f"{cells[-1].cell_id}.json")
        with open(cell_path) as fh:
            report = json.load(fh)
        report["extras"]["hits_digest"] = "0" * 64
        with open(cell_path, "w") as fh:
            json.dump(report, fh)
        assert main(["experiments", "report", spec_path, "--out", out]) == 1
