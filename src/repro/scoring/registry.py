"""Name-based scorer construction for configs and the CLI."""

from __future__ import annotations

from repro.errors import ConfigError
from repro.scoring.base import Scorer
from repro.scoring.hypergeometric import HypergeometricScorer
from repro.scoring.hyperscore import HyperScorer
from repro.scoring.likelihood import LikelihoodRatioScorer
from repro.scoring.shared_peaks import SharedPeakScorer
from repro.scoring.xcorr import XCorrScorer

SCORER_NAMES = ("shared_peaks", "likelihood", "hyperscore", "xcorr", "hypergeometric")


def make_scorer(name: str, fragment_tolerance: float = 0.5) -> Scorer:
    """Instantiate a scorer by name.  The tolerance is checked here too,
    since xcorr (which bins instead) takes none: NaN or ``<= 0`` is a
    ``ValueError`` under every name."""
    if not fragment_tolerance > 0:  # NaN included
        raise ValueError(f"fragment_tolerance must be > 0, got {fragment_tolerance}")
    if name == "shared_peaks":
        return SharedPeakScorer(fragment_tolerance)
    if name == "likelihood":
        return LikelihoodRatioScorer(fragment_tolerance)
    if name == "hyperscore":
        return HyperScorer(fragment_tolerance)
    if name == "xcorr":
        return XCorrScorer()
    if name == "hypergeometric":
        return HypergeometricScorer(fragment_tolerance)
    raise ConfigError(f"unknown scorer {name!r}; expected one of {SCORER_NAMES}")
