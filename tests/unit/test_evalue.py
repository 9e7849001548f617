"""Unit tests for e-value estimation."""

import numpy as np
import pytest

from repro.scoring.evalue import SurvivalFit, expect_value, fit_survival


class TestFitSurvival:
    def test_exponential_tail_recovered(self):
        rng = np.random.default_rng(3)
        scores = rng.exponential(scale=2.0, size=5000)
        fit = fit_survival(scores)
        # S(x) = exp(-x/2) -> log10 S = -x / (2 ln 10): slope ~ 0.217
        assert fit.slope == pytest.approx(1 / (2 * np.log(10)), rel=0.15)

    def test_infinite_scores_dropped(self):
        scores = [-np.inf] * 50 + list(np.random.default_rng(4).exponential(1.0, 500))
        fit = fit_survival(scores)
        assert fit.n_candidates == 500

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="finite scores"):
            fit_survival([1.0, 2.0, 3.0])

    def test_invalid_tail_fraction(self):
        with pytest.raises(ValueError):
            fit_survival(np.ones(100), tail_fraction=0.0)

    def test_non_decaying_tail_gives_flat_fit(self):
        fit = fit_survival(np.linspace(0, 1e-9, 100))  # all-equal-ish scores
        assert fit.slope >= 0.0


class TestExpect:
    def test_outlier_top_hit_has_tiny_evalue(self):
        rng = np.random.default_rng(5)
        null_scores = rng.exponential(2.0, 2000)
        top = 40.0  # far beyond the null tail
        e = expect_value(top, null_scores)
        assert e < 1e-2

    def test_unremarkable_hit_has_large_evalue(self):
        rng = np.random.default_rng(6)
        null_scores = rng.exponential(2.0, 2000)
        median = float(np.median(null_scores))
        e = expect_value(median, null_scores)
        assert e > 100

    def test_evalue_monotone_in_score(self):
        rng = np.random.default_rng(7)
        fit = fit_survival(rng.exponential(2.0, 1000))
        assert fit.expect(10.0) < fit.expect(5.0) < fit.expect(1.0)

    def test_survival_fit_expect_formula(self):
        fit = SurvivalFit(slope=0.5, intercept=0.0, n_candidates=1000, fit_points=100)
        assert fit.expect(2.0) == pytest.approx(1000 * 10 ** (-1.0))


class TestEndToEnd:
    def test_true_hit_separates_from_null_in_real_search(self, tiny_db):
        """Score a real query against all its candidates and check the
        true hit's e-value is far below the runners-up."""
        from repro.core.config import SearchConfig
        from repro.core.search import ShardSearcher
        from repro.workloads.queries import QueryWorkload

        spectra, targets = QueryWorkload(num_queries=3, seed=44, source=tiny_db).build()
        cfg = SearchConfig(tau=500, delta=50.0)  # wide window: many null scores
        searcher = ShardSearcher(tiny_db, cfg)
        hitlists = {}
        searcher.run(spectra, hitlists)
        separated = 0
        for spectrum in spectra:
            hits = hitlists[spectrum.query_id].sorted_hits()
            scores = [h.score for h in hits]
            if len(scores) < 20:
                continue
            try:
                top_e = expect_value(scores[0], scores[1:])
            except ValueError:
                continue
            if top_e < 0.5:
                separated += 1
        assert separated >= 1
