"""Calibration-cache hygiene: atomic writes, fingerprinting, corruption.

The contract under test (repro/tune/cache.py): a valid cache round-trips
exactly; *every* way a cache can be untrustworthy — torn JSON, schema
drift, another machine's fingerprint, non-physical term values — makes
``load_calibration`` return ``None`` so the caller re-calibrates, never
raises, and never returns half-trusted data.
"""

import json
import os

import pytest

from repro.tune.cache import (
    CACHE_SCHEMA,
    load_calibration,
    machine_fingerprint,
    save_calibration,
)
from repro.tune.calibrate import Calibration, calibrate

# the package re-exports the calibrate() *function* under the same name
# as this submodule, which shadows plain attribute traversal — go
# through the import system to get the module itself for monkeypatching
import importlib

calibrate_mod = importlib.import_module("repro.tune.calibrate")

TERMS = {"rho_base": 1.5e-6, "tau_cost": 8.0e-7, "sweep_setup_per_query": 2.0e-4}


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = str(tmp_path / "cal.json")
        saved = save_calibration(path, TERMS, details={"note": "t"})
        assert saved == path
        payload = load_calibration(path)
        assert payload is not None
        assert payload["terms"] == TERMS
        assert payload["schema"] == CACHE_SCHEMA
        assert payload["fingerprint"] == machine_fingerprint()

    def test_save_creates_parent_dirs(self, tmp_path):
        path = str(tmp_path / "deep" / "nest" / "cal.json")
        save_calibration(path, TERMS)
        assert load_calibration(path) is not None

    def test_no_tmp_siblings_left_behind(self, tmp_path):
        path = str(tmp_path / "cal.json")
        save_calibration(path, TERMS)
        assert os.listdir(tmp_path) == ["cal.json"]

    def test_rewrite_replaces_atomically(self, tmp_path):
        path = str(tmp_path / "cal.json")
        save_calibration(path, TERMS)
        save_calibration(path, {**TERMS, "rho_base": 9e-6})
        assert load_calibration(path)["terms"]["rho_base"] == 9e-6


class TestInvalidation:
    """Each distrust reason degrades to None, not an exception."""

    def test_missing_file(self, tmp_path):
        assert load_calibration(str(tmp_path / "absent.json")) is None

    def test_torn_write(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(str(path), TERMS)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # truncated mid-file
        assert load_calibration(str(path)) is None

    def test_not_json(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("\x00\xff garbage")
        assert load_calibration(str(path)) is None

    def test_json_but_not_object(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(["not", "a", "dict"]))
        assert load_calibration(str(path)) is None

    def test_schema_drift(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(str(path), TERMS)
        payload = json.loads(path.read_text())
        # a future schema, and the previous one (it carries the index-build
        # term of a path no search runs)
        for schema in ("repro.tune_calibration/999", "repro.tune_calibration/3"):
            payload["schema"] = schema
            path.write_text(json.dumps(payload))
            assert load_calibration(str(path)) is None

    def test_foreign_fingerprint(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(str(path), TERMS)
        payload = json.loads(path.read_text())
        payload["fingerprint"]["machine"] = "pdp-11"
        path.write_text(json.dumps(payload))
        assert load_calibration(str(path)) is None

    @pytest.mark.parametrize(
        "terms",
        [
            {},  # empty
            {"rho_base": -1e-6},  # negative cost
            {"rho_base": float("nan")},
            {"rho_base": float("inf")},
            {"rho_base": True},  # bool is not a measurement
            {"rho_base": "fast"},
            "not a mapping",
        ],
    )
    def test_invalid_terms(self, tmp_path, terms):
        path = tmp_path / "cal.json"
        save_calibration(str(path), TERMS)
        payload = json.loads(path.read_text())
        payload["terms"] = terms
        path.write_text(json.dumps(payload))
        assert load_calibration(str(path)) is None


class TestCalibrateCachePath:
    """calibrate() trusts a valid cache and recalibrates past a bad one."""

    def test_cache_hit_skips_measurement(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cal.json")
        save_calibration(path, TERMS)

        def boom(spec=None):  # pragma: no cover - must not run
            raise AssertionError("cache hit should not re-measure")

        monkeypatch.setattr(calibrate_mod, "run_calibration", boom)
        result = calibrate(cache_path=path)
        assert result.source == "cache"
        assert result.terms == TERMS

    def test_corrupt_cache_triggers_recalibration(self, tmp_path, monkeypatch):
        path = tmp_path / "cal.json"
        monkeypatch.setattr(
            calibrate_mod, "run_calibration",
            lambda spec=None: Calibration(terms=dict(TERMS), source="measured"),
        )
        save_calibration(str(path), {"rho_base": 123.0})
        previous_schema = json.loads(path.read_text())
        previous_schema["schema"] = "repro.tune_calibration/3"
        for stale in ("{torn", json.dumps(previous_schema)):
            path.write_text(stale)
            result = calibrate(cache_path=str(path))
            assert result.source == "measured"
            # and the rewritten cache is valid again
            assert load_calibration(str(path))["terms"] == TERMS
            assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA

    def test_force_bypasses_valid_cache(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cal.json")
        save_calibration(path, {"rho_base": 123.0})
        monkeypatch.setattr(
            calibrate_mod, "run_calibration",
            lambda spec=None: Calibration(terms=dict(TERMS), source="measured"),
        )
        result = calibrate(cache_path=path, force=True)
        assert result.source == "measured"
        assert result.terms == TERMS


class TestRunCalibration:
    def test_fits_exactly_the_calibratable_terms(self):
        """The battery times the shard pass the engines run and fits the
        14 calibratable terms, no more: the paper machine's
        ``query_overhead`` is not one of them."""
        from repro.tune.calibrate import (
            CALIBRATABLE_TERMS,
            CalibrationSpec,
            run_calibration,
        )

        spec = CalibrationSpec(
            db_size=60, num_queries=40, store_db_size=30, repeats=1,
            sweep_cohorts=(4, 32), include_spawn=False,
        )
        calibration = run_calibration(spec)
        assert len(CALIBRATABLE_TERMS) == 14 and "query_overhead" not in CALIBRATABLE_TERMS
        assert set(calibration.terms) == set(CALIBRATABLE_TERMS) - {"worker_spinup_spawn"}
        assert all(value >= 0.0 for value in calibration.terms.values())
        assert calibration.terms["rho_base"] > 0.0
        runs = calibration.details["sweep_runs"]
        assert {r["scorer"] for r in runs} == set(spec.scorers)
        assert {r["cohort_cap"] for r in runs} == set(spec.sweep_cohorts)
        assert all(r["cohorts"] > 0 for r in runs)  # every run went through the pass
        assert calibration.cost_model().rho_base == calibration.terms["rho_base"]
        # the posting discount is measured on a pass that probes postings
        index_run = calibration.details["index_run"]
        assert index_run["scorer"] == "hyperscore" and index_run["index_rows"] > 0

    def test_unmeasured_posting_discount_is_an_error_not_a_default(self, monkeypatch):
        """A calibration pass that serves no row from the index leaves
        ``index_probe_discount`` unmeasured: typed error, never the 0.5
        default under a "measured" label."""
        from repro.errors import ConfigError
        from repro.index import FragmentIndex

        terms = {
            "rho_base": 1e-6, "tau_cost": 1e-7,
            "sweep_setup_per_query": 1e-5, "sweep_probe_per_cohort": 1e-4,
        }
        db = calibrate_mod.generate_database(30, seed=3)
        queries = calibrate_mod.generate_queries(10, seed=4)
        spec = calibrate_mod.CalibrationSpec(repeats=1)
        fitted = calibrate_mod._fit_index_terms(db, queries, spec, terms, {})
        assert 0.05 <= fitted["index_probe_discount"] <= 1.5
        monkeypatch.setattr(FragmentIndex, "serves", staticmethod(lambda scorer: False))
        with pytest.raises(ConfigError, match="index_probe_discount"):
            calibrate_mod._fit_index_terms(db, queries, spec, terms, {})
