"""Unit tests for scaling metrics and the paper's anchor rule."""

import pytest

from repro.analysis.metrics import chained_speedup, mean_and_std, speedup


class TestBasics:
    def test_speedup(self):
        assert speedup(100.0, 25.0) == 4.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)

    def test_chained_speedup_matches_paper_rule(self):
        """S(p) = (T(8)/T(p)) * 4.51 for sizes with no 1-rank run."""
        assert chained_speedup(100.0, 25.0, 4.51) == pytest.approx(18.04)

    def test_chained_invalid(self):
        with pytest.raises(ValueError):
            chained_speedup(1.0, 1.0, 0.0)


class TestMeanStd:
    def test_basic(self):
        mean, std = mean_and_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx((2.0 / 3.0) ** 0.5)

    def test_empty(self):
        assert mean_and_std([]) == (0.0, 0.0)


class TestSensitivityHelpers:
    def test_perturbed_changes_one_field(self):
        import dataclasses

        from repro.analysis.sensitivity import _perturbed
        from repro.core.costmodel import CostModel

        base = CostModel()
        out = _perturbed(base, "rho_base", 2.0)
        assert out.rho_base == 2 * base.rho_base
        for f in dataclasses.fields(CostModel):
            if f.name != "rho_base":
                assert getattr(out, f.name) == getattr(base, f.name)

    def test_conclusion_check_all_hold(self):
        from repro.analysis.sensitivity import ConclusionCheck

        good = ConclusionCheck("x", 1.0, True, True, True, True, True)
        bad = ConclusionCheck("x", 1.0, True, False, True, True, True)
        assert good.all_hold and not bad.all_hold
