"""Unit tests for SearchConfig."""

import pytest

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.core.config import ExecutionMode, SearchConfig
from repro.errors import ConfigError


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.delta == 3.0
        assert cfg.tau == 50
        assert cfg.scorer == "likelihood"
        assert cfg.execution is ExecutionMode.REAL

    def test_execution_accepts_string(self):
        cfg = SearchConfig(execution="modeled")
        assert cfg.execution is ExecutionMode.MODELED

    def test_invalid_delta(self):
        with pytest.raises(ConfigError):
            SearchConfig(delta=-1.0)

    def test_invalid_tau(self):
        with pytest.raises(ConfigError):
            SearchConfig(tau=0)

    def test_unknown_scorer(self):
        with pytest.raises(ConfigError):
            SearchConfig(scorer="magic")

    def test_invalid_fragment_tolerance(self):
        with pytest.raises(ConfigError):
            SearchConfig(fragment_tolerance=0.0)

    @pytest.mark.parametrize("field", ["delta", "fragment_tolerance"])
    def test_nan_tolerance_is_refused(self, field):
        """NaN compares false with every bound, so ``x < 0`` let it through
        to a raw numpy error mid-search."""
        with pytest.raises(ConfigError, match=f"{field} must be"):
            SearchConfig(**{field: float("nan")})

    def test_invalid_min_candidate_length(self):
        with pytest.raises(ConfigError):
            SearchConfig(min_candidate_length=0)

    def test_make_scorer_matches_name(self):
        assert SearchConfig(scorer="hyperscore").make_scorer().name == "hyperscore"

    def test_modifications_carried(self):
        mods = (STANDARD_MODIFICATIONS["oxidation"],)
        assert SearchConfig(modifications=mods).modifications == mods

    def test_no_use_sweep_field(self):
        with pytest.raises(TypeError, match="use_sweep"):
            SearchConfig(use_sweep=True)

    def test_frozen(self):
        cfg = SearchConfig()
        with pytest.raises(AttributeError):
            cfg.tau = 99
