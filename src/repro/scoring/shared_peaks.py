"""Shared-peak-count scorer: the cheapest useful model.

Counts experimental peaks explained by the candidate's b/y fragment
ladder within a fragment tolerance.  This is the classic prefilter score
(X!Tandem's first pass, SEQUEST's preliminary Sp core) — fast, crude,
and the unit against which other scorers' ``relative_cost`` is defined.
"""

from __future__ import annotations

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import count_matches_pairs
from repro.spectra.theoretical import by_ion_ladders


class SharedPeakScorer:
    """Number of observed peaks matching the singly-charged b/y ladder."""

    name = "shared_peaks"
    relative_cost = 1.0

    def __init__(self, fragment_tolerance: float = 0.5):
        if not fragment_tolerance > 0:  # NaN included
            raise ValueError(f"fragment_tolerance must be > 0, got {fragment_tolerance}")
        self.fragment_tolerance = fragment_tolerance

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, lengths, ladders)`` -> per-row counts.

        A ``+inf`` pad fragment of a padded row matches no peak interval,
        so the row's lengths are not needed.
        """

        def kernel(member, _lengths, ladders):
            return count_matches_pairs(spectra, member, ladders, self.fragment_tolerance)

        return kernel

    def score_block(self, spectra, batch: CandidateBatch, selections):
        """Cohort scoring: ladders built once, one pair-kernel call per length band."""
        from repro.scoring.base import score_block_pairs

        def prepare(group):
            return (by_ion_ladders(group.mass_rows(), group.row_lengths),)

        return score_block_pairs(
            batch, selections, 0.0, prepare, self.pair_kernel(spectra)
        )

    def score_index_block(self, spectra, index, row_sets):
        """Index-served cohort scoring: one flat probe for all queries."""
        return index.shared_peak_counts_block(
            spectra, self.fragment_tolerance, row_sets
        ).astype(np.float64)
