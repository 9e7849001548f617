"""Checkpoint/resume: persistence format, manager semantics, kill-resume."""

import json
import multiprocessing

import pytest

from repro.core.config import SearchConfig
from repro.core.driver import run_search
from repro.engines.multiproc import run_multiprocess_search
from repro.errors import CheckpointError
from repro.faults.checkpoint import CheckpointManager, SearchCheckpoint
from repro.faults.injector import ALWAYS, FaultInjector, TaskFault
from repro.faults.supervisor import RetryPolicy
from repro.scoring.hits import Hit


def make_hit(qid, score, protein=0, start=0, stop=5):
    return Hit(
        query_id=qid, score=score, protein_id=protein,
        start=start, stop=stop, mass=700.0, mod_delta=0.0,
    )


def hit_keys(report):
    return {qid: [h.sort_key() for h in hs] for qid, hs in report.hits.items()}


FINGERPRINT = {"query_blocks": 4, "num_queries": 2, "tau": 3, "delta": 3.0, "scorer": "hyperscore"}

_START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


class _Killed(Exception):
    """Stands in for the parent process dying mid-run."""


class TestSearchCheckpoint:
    def test_json_round_trip(self):
        state = SearchCheckpoint(
            fingerprint=dict(FINGERPRINT),
            completed_tasks={2, 0},
            hits={7: [make_hit(7, 3.5), make_hit(7, 1.5, protein=1)]},
            counters={"candidates_evaluated": 123},
        )
        loaded = SearchCheckpoint.from_json(state.to_json())
        assert loaded.fingerprint == state.fingerprint
        assert loaded.completed_tasks == {0, 2}
        assert loaded.counters == {"candidates_evaluated": 123}
        assert [h.sort_key() for h in loaded.hits[7]] == [
            h.sort_key() for h in state.hits[7]
        ]

    def test_malformed_checkpoints_are_typed_errors(self, tmp_path):
        with pytest.raises(CheckpointError, match="not valid JSON"):
            SearchCheckpoint.from_json("{oops")
        with pytest.raises(CheckpointError, match="fingerprint"):
            SearchCheckpoint.from_json("{}")
        for version in (99, 1):  # 1 held per-Hit dicts, not hit columns
            with pytest.raises(CheckpointError, match="version"):
                SearchCheckpoint.from_json(
                    json.dumps({"version": version, "fingerprint": {}, "hits": {}})
                )
        with pytest.raises(CheckpointError, match="hit columns"):
            SearchCheckpoint.from_json(
                json.dumps({"version": 2, "fingerprint": {}, "hits": {"scores": []}})
            )
        with pytest.raises(CheckpointError, match="cannot read"):
            SearchCheckpoint.load(tmp_path / "missing.json")


class TestCheckpointManager:
    def test_record_flush_resume_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        manager = CheckpointManager(path, dict(FINGERPRINT), tau=3)
        manager.record(0, {1: [make_hit(1, 2.0)]}, {"candidates_evaluated": 10})
        manager.record(1, {1: [make_hit(1, 5.0, protein=2)]}, {"candidates_evaluated": 7})
        assert path.exists()

        resumed = CheckpointManager.resume(path, dict(FINGERPRINT), tau=3)
        assert resumed.completed_tasks == {0, 1}
        assert resumed.counters == {"candidates_evaluated": 17}
        merged = resumed.merged_hits()
        assert [h.score for h in merged[1]] == [5.0, 2.0]

    def test_duplicate_record_ignored(self, tmp_path):
        manager = CheckpointManager(tmp_path / "c.json", dict(FINGERPRINT), tau=3)
        manager.record(0, {1: [make_hit(1, 2.0)]}, {"n": 1})
        manager.record(0, {1: [make_hit(1, 9.0)]}, {"n": 1})
        assert manager.counters == {"n": 1}
        assert [h.score for h in manager.merged_hits()[1]] == [2.0]

    def test_merged_state_stays_bounded_at_tau(self, tmp_path):
        manager = CheckpointManager(tmp_path / "c.json", dict(FINGERPRINT), tau=2)
        manager.record(
            0, {1: [make_hit(1, float(s), start=s) for s in range(6)]}
        )
        assert len(manager.merged_hits()[1]) == 2

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "ckpt.json"
        CheckpointManager(path, dict(FINGERPRINT), tau=3).flush()
        other = dict(FINGERPRINT, query_blocks=8)
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointManager.resume(path, other, tau=3)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        manager = CheckpointManager(tmp_path / "c.json", dict(FINGERPRINT), tau=3)
        manager.flush()
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".checkpoint-")]
        assert leftovers == []


class TestKillResume:
    def test_interrupted_run_resumes_without_rescoring(self, tmp_path, tiny_db, tiny_queries):
        """The issue's acceptance scenario: a run that dies partway leaves
        a checkpoint; the resumed run skips completed tasks (visible in the
        counters) and reproduces the uninterrupted output exactly."""
        config = SearchConfig(tau=10)
        serial = run_search(tiny_db, tiny_queries, algorithm="serial", config=config)
        path = tmp_path / "search.ckpt"

        # First run (1 shard x 4 query blocks = 4 tasks): task 3 is
        # poisoned, so it is quarantined while every other task completes
        # and is checkpointed — a stand-in for a run killed partway through.
        crashed = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=2,
            query_blocks=4,
            config=config,
            retry_policy=RetryPolicy(max_retries=0, backoff_base=0.001),
            checkpoint_path=str(path),
            fault_injector=FaultInjector((TaskFault(3, "crash", attempts=ALWAYS),)),
        )
        assert crashed.extras["degraded"]
        done_first = crashed.extras["tasks_completed"]
        assert done_first == crashed.extras["tasks_total"] - 1
        assert path.exists()

        # Second run: same workload, no faults, resume from the checkpoint.
        resumed = run_multiprocess_search(
            tiny_db,
            tiny_queries,
            num_workers=2,
            query_blocks=4,
            config=config,
            checkpoint_path=str(path),
            resume=True,
        )
        assert resumed.extras["tasks_resumed"] == done_first
        # only the previously-failed task was executed this time
        assert resumed.extras["tasks_completed"] == 1
        assert not resumed.extras["degraded"]
        assert hit_keys(resumed) == hit_keys(serial)
        assert resumed.candidates_evaluated == serial.candidates_evaluated

    @pytest.mark.parametrize("start_method", _START_METHODS)
    def test_killed_run_resumes_bitwise(
        self, tmp_path, tiny_db, tiny_queries, start_method, monkeypatch
    ):
        """The parent dies right after its second checkpoint write, tasks
        still running; the resumed run runs only the rest and returns the
        uninterrupted run's hit columns and candidate count, bit for bit."""
        kwargs = dict(
            num_workers=2, query_blocks=4, config=SearchConfig(tau=10),
            start_method=start_method,
        )
        whole = run_multiprocess_search(tiny_db, tiny_queries, **kwargs)
        path = tmp_path / "run.ckpt"
        record = CheckpointManager.record

        def record_then_die(manager, *args, **kw):
            record(manager, *args, **kw)
            if len(manager.completed_tasks) == 2:
                raise _Killed

        monkeypatch.setattr(CheckpointManager, "record", record_then_die)
        with pytest.raises(_Killed):
            run_multiprocess_search(tiny_db, tiny_queries, checkpoint_path=str(path), **kwargs)
        monkeypatch.undo()
        assert len(SearchCheckpoint.load(path).completed_tasks) == 2

        resumed = run_multiprocess_search(
            tiny_db, tiny_queries, checkpoint_path=str(path), resume=True, **kwargs
        )
        assert (resumed.extras["tasks_resumed"], resumed.extras["tasks_completed"]) == (2, 2)
        for got, want in zip(resumed.hits.columns, whole.hits.columns):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert resumed.candidates_evaluated == whole.candidates_evaluated

    def test_resume_with_changed_workload_refused(self, tmp_path, tiny_db, tiny_queries):
        config = SearchConfig(tau=10)
        path = tmp_path / "search.ckpt"
        run_multiprocess_search(
            tiny_db, tiny_queries, num_workers=1, config=config,
            checkpoint_path=str(path),
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_multiprocess_search(
                tiny_db, tiny_queries[:-1], num_workers=1, config=config,
                checkpoint_path=str(path), resume=True,
            )


class TestOrphanTmpCleanup:
    """A crash between mkstemp and os.replace strands `.checkpoint-*`
    siblings; constructing or resuming a manager must sweep them away
    without touching the real checkpoint or unrelated files."""

    def _orphan(self, tmp_path, name=".checkpoint-dead42"):
        orphan = tmp_path / name
        orphan.write_text('{"half": "writ')
        return orphan

    def test_fresh_manager_sweeps_orphans(self, tmp_path):
        orphan = self._orphan(tmp_path)
        bystander = tmp_path / "notes.txt"
        bystander.write_text("keep me")
        CheckpointManager(tmp_path / "run.ckpt", dict(FINGERPRINT), tau=3)
        assert not orphan.exists()
        assert bystander.exists()

    def test_resume_after_torn_flush_sweeps_and_loads(self, tmp_path):
        path = tmp_path / "run.ckpt"
        manager = CheckpointManager(path, dict(FINGERPRINT), tau=3)
        manager.record(0, {7: [make_hit(7, 3.5)]})
        manager.flush()
        orphan = self._orphan(tmp_path)  # the torn half of a later flush
        resumed = CheckpointManager.resume(path, dict(FINGERPRINT), tau=3)
        assert resumed.completed_tasks == {0}
        assert [h.sort_key() for h in resumed.merged_hits()[7]] == [
            make_hit(7, 3.5).sort_key()
        ]
        assert not orphan.exists()

    def test_cleaner_never_removes_checkpoint_itself(self, tmp_path):
        from repro.faults.checkpoint import clean_orphan_tmp_files

        # a checkpoint pathologically named like a scratch file survives
        path = tmp_path / ".checkpoint-real"
        path.write_text("{}")
        orphan = self._orphan(tmp_path, ".checkpoint-stale7")
        removed = clean_orphan_tmp_files(path)
        assert path.exists()
        assert not orphan.exists()
        assert removed == [".checkpoint-stale7"]

    def test_cleaner_tolerates_missing_directory(self, tmp_path):
        from repro.faults.checkpoint import clean_orphan_tmp_files

        assert clean_orphan_tmp_files(tmp_path / "nope" / "run.ckpt") == []
