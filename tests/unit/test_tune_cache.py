"""Trial-cache hygiene: atomic writes, fingerprinting, keying, corruption.

The contract under test (repro/tune/cache.py): a valid cache round-trips
exactly; *every* way a cache can be untrustworthy — torn JSON, schema
drift, another machine's fingerprint, another workload's key,
non-physical values — makes ``load_trials`` return ``None`` so the
caller times its plans again, never raises, and never returns
half-trusted data.
"""

import json
import os

import pytest

from repro.core.config import SearchConfig
from repro.tune import tuner
from repro.tune.cache import (
    CACHE_SCHEMA,
    load_trials,
    machine_fingerprint,
    save_trials,
)
from repro.tune.plan import enumerate_plans, profile_workload
from repro.tune.tuner import PlanTrial, autotune, trial_key
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

KEY = {
    "scorer": "likelihood",
    "delta": 3.0,
    "fragment_tolerance": 0.5,
    "db_residues": 90_000,
    "store": None,
}
TRIALS = {
    "serial:direct:sweep/64": {"fixed_s": 3.0e-3, "seconds_per_candidate": 2.6e-6},
    "multiproc:w=2:blocks=4:fork:direct:sweep/64": {
        "fixed_s": 8.8e-2,
        "seconds_per_candidate": 1.8e-6,
    },
}


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "trials.json")
        saved = save_trials(path, KEY, TRIALS, details={"note": "t"})
        assert saved == path
        payload = load_trials(path, KEY)
        assert payload is not None
        assert payload["trials"] == TRIALS
        assert payload["key"] == KEY
        assert payload["schema"] == CACHE_SCHEMA
        assert payload["fingerprint"] == machine_fingerprint()

    def test_save_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "trials.json")
        save_trials(path, KEY, TRIALS)
        assert load_trials(path, KEY) is not None

    def test_no_tmp_siblings_left_behind(self, tmp_path):
        path = str(tmp_path / "trials.json")
        save_trials(path, KEY, TRIALS)
        assert os.listdir(tmp_path) == ["trials.json"]

    def test_rewrite_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "trials.json")
        save_trials(path, KEY, TRIALS)
        slower = {"serial:direct:sweep/64": {"fixed_s": 0.0, "seconds_per_candidate": 9e-6}}
        save_trials(path, KEY, slower)
        assert load_trials(path, KEY)["trials"] == slower


class TestInvalidation:
    """Each distrust reason degrades to None, not an exception."""

    def test_missing_file(self, tmp_path):
        assert load_trials(str(tmp_path / "absent.json"), KEY) is None

    def test_torn_write(self, tmp_path):
        path = tmp_path / "trials.json"
        save_trials(str(path), KEY, TRIALS)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # truncated mid-file
        assert load_trials(str(path), KEY) is None

    def test_not_json(self, tmp_path):
        path = tmp_path / "trials.json"
        path.write_text("\x00\xff garbage")
        assert load_trials(str(path), KEY) is None

    def test_json_but_not_object(self, tmp_path):
        path = tmp_path / "trials.json"
        path.write_text(json.dumps(["not", "a", "dict"]))
        assert load_trials(str(path), KEY) is None

    def test_schema_drift(self, tmp_path):
        path = tmp_path / "trials.json"
        save_trials(str(path), KEY, TRIALS)
        payload = json.loads(path.read_text())
        # a future schema, and the last one that held fitted CostModel
        # terms instead of trials
        for schema in ("repro.tune_trials/999", "repro.tune_calibration/5"):
            payload["schema"] = schema
            path.write_text(json.dumps(payload))
            assert load_trials(str(path), KEY) is None

    def test_foreign_fingerprint(self, tmp_path):
        path = tmp_path / "trials.json"
        save_trials(str(path), KEY, TRIALS)
        payload = json.loads(path.read_text())
        payload["fingerprint"]["machine"] = "pdp-11"
        path.write_text(json.dumps(payload))
        assert load_trials(str(path), KEY) is None

    @pytest.mark.parametrize(
        "changed",
        [
            {"scorer": "hyperscore"},
            {"delta": 1.5},
            {"fragment_tolerance": 0.02},
            {"db_residues": 90_001},
            {"store": "9f2c"},
        ],
    )
    def test_another_workloads_key(self, tmp_path, changed):
        """Rates timed under one scorer, tolerance, database or store say
        nothing about another: the entry is not this caller's."""
        path = str(tmp_path / "trials.json")
        save_trials(path, KEY, TRIALS)
        assert load_trials(path, {**KEY, **changed}) is None

    @pytest.mark.parametrize(
        "terms",
        [
            {},  # empty
            {"fixed_s": -1e-6, "seconds_per_candidate": 2e-6},  # negative cost
            {"fixed_s": float("nan"), "seconds_per_candidate": 2e-6},
            {"fixed_s": 0.0, "seconds_per_candidate": float("inf")},
            {"fixed_s": True, "seconds_per_candidate": 2e-6},  # bool is not a measurement
            {"fixed_s": "fast", "seconds_per_candidate": 2e-6},
            "not a mapping",
        ],
    )
    def test_invalid_terms(self, tmp_path, terms):
        path = tmp_path / "trials.json"
        save_trials(str(path), KEY, TRIALS)
        payload = json.loads(path.read_text())
        for trials in ({"serial:direct:sweep/64": terms}, terms):
            payload["trials"] = trials
            path.write_text(json.dumps(payload))
            assert load_trials(str(path), KEY) is None


@pytest.fixture(scope="module")
def workload():
    return generate_database(60, seed=202), generate_queries(20, seed=17)


class TestCalibrateCachePath:
    """autotune() trusts a valid cache and times again past a bad one."""

    def seed(self, path, workload, **overrides):
        """A cache holding plausible rates for every plan this host's grid
        has for the workload, under the workload's real key."""
        db, queries = workload
        config = SearchConfig()
        profile = profile_workload(db, queries, config)
        plans, _ = enumerate_plans(profile)
        trials = {
            plan.label: {"fixed_s": 0.01 * i, "seconds_per_candidate": 2e-6}
            for i, plan in enumerate(plans)
        }
        save_trials(str(path), {**trial_key(config, profile), **overrides}, trials)
        return trials

    @pytest.fixture
    def scripted(self, monkeypatch):
        """``time_plans`` replaced by a recorder that returns fixed rates."""
        calls = []

        def fake(plans, database, queries, config, profile, *, store=None):
            calls.append(len(plans))
            return [PlanTrial(p, 0.5, 1e-6, profile.total_candidates) for p in plans], (8, 20)

        monkeypatch.setattr(tuner, "time_plans", fake)
        return calls

    def test_cache_hit_skips_measurement(self, tmp_path, workload, monkeypatch):
        path = tmp_path / "trials.json"
        seeded = self.seed(path, workload)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("cache hit should not time anything")

        monkeypatch.setattr(tuner, "time_plans", boom)
        result = autotune(*workload, cache_path=str(path), run=False, lower_bounds=False)
        assert result.trial_info["source"] == "cache"
        assert result.trial_info["trial_wall_s"] == 0.0
        assert {t.plan.label: t.fixed_s for t in result.trials} == {
            label: terms["fixed_s"] for label, terms in seeded.items()
        }
        # the cached rates are read at *this* workload's candidate count
        for trial in result.trials:
            assert trial.predicted_s == pytest.approx(
                trial.fixed_s + 2e-6 * result.profile.total_candidates
            )
        assert result.chosen.label == "serial:direct:sweep/64"

    def test_corrupt_cache_triggers_recalibration(self, tmp_path, workload, scripted):
        path = tmp_path / "trials.json"
        self.seed(path, workload)
        previous_schema = json.loads(path.read_text())
        previous_schema["schema"] = "repro.tune_calibration/5"
        for stale in ("{torn", json.dumps(previous_schema)):
            path.write_text(stale)
            result = autotune(*workload, cache_path=str(path), run=False, lower_bounds=False)
            assert result.trial_info["source"] == "measured"
            # and the rewritten cache is valid again
            payload = json.loads(path.read_text())
            assert payload["schema"] == CACHE_SCHEMA
            assert load_trials(str(path), payload["key"])["trials"] == {
                t.plan.label: {"fixed_s": 0.5, "seconds_per_candidate": 1e-6}
                for t in result.trials
            }
        assert scripted == [len(result.trials)] * 2
        # a cache for another database, or one missing a feasible plan,
        # is a miss too
        self.seed(path, workload, db_residues=1)
        assert autotune(*workload, cache_path=str(path), run=False, lower_bounds=False).trial_info["source"] == "measured"
        save_trials(
            str(path), payload["key"],
            {"serial:direct:sweep/64": {"fixed_s": 0.0, "seconds_per_candidate": 1e-6}},
        )
        if len(result.trials) > 1:
            assert autotune(*workload, cache_path=str(path), run=False, lower_bounds=False).trial_info["source"] == "measured"

    def test_force_bypasses_valid_cache(self, tmp_path, workload, scripted):
        path = tmp_path / "trials.json"
        self.seed(path, workload)
        result = autotune(
            *workload, cache_path=str(path), retune=True, run=False, lower_bounds=False
        )
        assert result.trial_info["source"] == "measured"
        assert scripted == [len(result.trials)]
        assert all(t.fixed_s == 0.5 for t in result.trials)
        # the fresh rates replaced the seeded ones
        again = autotune(*workload, cache_path=str(path), run=False, lower_bounds=False)
        assert again.trial_info["source"] == "cache"
        assert all(t.fixed_s == 0.5 for t in again.trials)

    def test_workload_timed_whole_is_not_cached(self, tmp_path, workload):
        """One timed point has no rate: reading it at a larger workload's
        candidate count would predict that workload costs the same."""
        db, queries = workload
        path = tmp_path / "trials.json"
        result = autotune(
            db, queries[:3], cache_path=str(path), run=False, lower_bounds=False
        )
        assert result.trial_info["samples"] == [3]
        assert result.trial_info["source"] == "measured"
        assert not path.exists()
