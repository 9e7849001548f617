"""Statistical scoring models and hit bookkeeping."""

from repro.scoring.base import Scorer
from repro.scoring.hits import Hit, TopHitList
from repro.scoring.shared_peaks import SharedPeakScorer
from repro.scoring.likelihood import LikelihoodRatioScorer
from repro.scoring.hypergeometric import HypergeometricScorer
from repro.scoring.hyperscore import HyperScorer
from repro.scoring.xcorr import XCorrScorer
from repro.scoring.registry import make_scorer, SCORER_NAMES
from repro.scoring.statistics import (
    ScoredIdentification,
    accepted_at_fdr,
    fdr_curve,
    score_threshold_at_fdr,
    top_hits_with_labels,
)

__all__ = [
    "Scorer",
    "Hit",
    "TopHitList",
    "SharedPeakScorer",
    "LikelihoodRatioScorer",
    "HyperScorer",
    "HypergeometricScorer",
    "XCorrScorer",
    "make_scorer",
    "SCORER_NAMES",
    "ScoredIdentification",
    "accepted_at_fdr",
    "fdr_curve",
    "score_threshold_at_fdr",
    "top_hits_with_labels",
]
