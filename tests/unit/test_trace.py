"""Unit tests for trace accounting."""

import pytest

from repro.simmpi.trace import RankTrace, TraceSummary


class TestRankTrace:
    def test_categories_accumulate(self):
        t = RankTrace(0)
        t.add("compute", 0.0, 2.0)
        t.add("wait", 2.0, 1.0)
        t.add("collective", 3.0, 0.5)
        t.add("comm_issued", 0.0, 0.25)
        assert t.compute == 2.0
        assert t.wait == 1.0
        assert t.collective == 0.5
        assert t.comm_issued == 0.25

    def test_residual_to_compute_ratio(self):
        t = RankTrace(0)
        t.add("compute", 0.0, 10.0)
        t.add("wait", 10.0, 3.6)
        assert t.residual_to_compute_ratio == pytest.approx(0.36)

    def test_ratio_zero_compute(self):
        assert RankTrace(0).residual_to_compute_ratio == 0.0

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            RankTrace(0).add("sleep", 0.0, 1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            RankTrace(0).add("compute", 0.0, -1.0)

    def test_events_recorded_only_when_enabled(self):
        off = RankTrace(0)
        off.add("compute", 0.0, 1.0, "step")
        assert off.events == []
        on = RankTrace(0, record_events=True)
        on.add("compute", 0.0, 1.0, "step")
        assert on.events == [("compute", 0.0, 1.0, "step")]


class TestTraceSummary:
    def _summary(self):
        traces = {}
        for r in range(3):
            t = RankTrace(r)
            t.add("compute", 0.0, 10.0)
            t.add("wait", 10.0, 2.0 + r)
            t.add("comm_issued", 0.0, 5.0)
            traces[r] = t
        return TraceSummary.from_traces(traces, makespan=13.0)

    def test_totals(self):
        s = self._summary()
        assert s.total_compute == 30.0
        assert s.total_wait == 9.0
        assert s.makespan == 13.0

    def test_mean_residual_to_compute(self):
        s = self._summary()
        assert s.mean_residual_to_compute == pytest.approx((0.2 + 0.3 + 0.4) / 3)

    def test_masking_effectiveness(self):
        s = self._summary()
        assert s.masking_effectiveness == pytest.approx(1.0 - 9.0 / 15.0)

    def test_masking_with_no_comm_is_full(self):
        s = TraceSummary.from_traces({0: RankTrace(0)}, makespan=0.0)
        assert s.masking_effectiveness == 1.0
