"""Unit tests for the CI performance regression gate (benchmarks/regression.py)."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "regression", _REPO_ROOT / "benchmarks" / "regression.py"
)
regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regression)


BASELINE = {
    "per_query_qps": 100.0,
    "virtual_time": 2.0,
    "nested": {"index_build_time": 0.5, "num_queries": 64},
    "rows": [{"mean_cohort_build_s": 0.01}],
    "masking_effectiveness": 0.9,
    "timeouts": 0,
}


class TestClassify:
    @pytest.mark.parametrize(
        "key,direction",
        [
            ("per_query_qps", "higher"),
            ("candidates_per_second", "higher"),
            ("speedup_p8", "higher"),
            ("masking_effectiveness", "higher"),
            ("virtual_time", "lower"),
            ("extras.index_build_time", "lower"),
            ("wall_time", "lower"),
            ("mean_cohort_build_s", "lower"),
            ("probe_us", "lower"),
            ("transfer_retries", "lower"),
            ("failed_units", "lower"),
            ("timeouts", "lower"),  # via the "time" substring, on purpose
            ("num_queries", None),
            ("tau", None),
            ("schema", None),
        ],
    )
    def test_direction(self, key, direction):
        assert regression.classify(key) == direction

    def test_leaf_key_decides(self):
        # the path prefix must not leak into classification
        assert regression.classify("timings.num_queries") is None
        assert regression.classify("config.echo.qps") == "higher"


class TestNumericLeaves:
    def test_walks_dicts_and_lists(self):
        leaves = dict(regression.numeric_leaves(BASELINE))
        assert leaves["per_query_qps"] == 100.0
        assert leaves["nested.index_build_time"] == 0.5
        assert leaves["rows[0].mean_cohort_build_s"] == 0.01

    def test_bools_are_not_numbers(self):
        assert dict(regression.numeric_leaves({"degraded": True})) == {}


class TestCompare:
    def test_identical_documents_have_no_regressions(self):
        assert regression.compare(BASELINE, copy.deepcopy(BASELINE)) == []

    def test_slowdown_past_threshold_flagged(self):
        cand = copy.deepcopy(BASELINE)
        cand["virtual_time"] = 2.4  # +20% on a lower-is-better metric
        (reg,) = regression.compare(BASELINE, cand, threshold=0.10)
        assert reg["metric"] == "virtual_time"
        assert reg["direction"] == "lower"
        assert reg["change"] == pytest.approx(0.2)

    def test_throughput_drop_flagged(self):
        cand = copy.deepcopy(BASELINE)
        cand["per_query_qps"] = 75.0  # -25% on a higher-is-better metric
        (reg,) = regression.compare(BASELINE, cand)
        assert reg["metric"] == "per_query_qps"
        assert reg["direction"] == "higher"

    def test_improvement_and_within_threshold_pass(self):
        cand = copy.deepcopy(BASELINE)
        cand["virtual_time"] = 1.5  # faster
        cand["per_query_qps"] = 105.0  # better
        cand["nested"]["index_build_time"] = 0.52  # +4% < 10%
        assert regression.compare(BASELINE, cand) == []

    def test_near_zero_baseline_skipped(self):
        # timeouts baseline is 0 — a regression there cannot be relative
        cand = copy.deepcopy(BASELINE)
        cand["timeouts"] = 5
        assert regression.compare(BASELINE, cand) == []

    def test_undirectional_metrics_ignored(self):
        cand = copy.deepcopy(BASELINE)
        cand["nested"]["num_queries"] = 1  # workload echo, not perf
        assert regression.compare(BASELINE, cand) == []

    def test_metric_missing_from_candidate_skipped(self):
        cand = copy.deepcopy(BASELINE)
        del cand["nested"]
        assert regression.compare(BASELINE, cand) == []


class TestMain:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_files_exit_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", BASELINE)
        assert regression.main([base, base]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    def test_regressed_file_exits_one(self, tmp_path, capsys):
        cand = copy.deepcopy(BASELINE)
        cand["virtual_time"] = 3.0
        base = self._write(tmp_path, "base.json", BASELINE)
        bad = self._write(tmp_path, "cand.json", cand)
        assert regression.main([base, bad]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "virtual_time" in out

    def test_loose_threshold_tolerates_the_same_diff(self, tmp_path):
        cand = copy.deepcopy(BASELINE)
        cand["virtual_time"] = 3.0  # +50%
        base = self._write(tmp_path, "base.json", BASELINE)
        ok = self._write(tmp_path, "cand.json", cand)
        assert regression.main(["--threshold", "0.6", base, ok]) == 0

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", BASELINE)
        assert regression.main([base, str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_nonpositive_threshold_rejected(self, tmp_path):
        base = self._write(tmp_path, "base.json", BASELINE)
        with pytest.raises(SystemExit):
            regression.main(["--threshold", "0", base, base])

    def test_checked_in_baseline_gates_itself(self, capsys):
        bench = str(_REPO_ROOT / "BENCH_scale.json")
        assert regression.main([bench, bench]) == 0
        assert "directional metrics compared" in capsys.readouterr().out
