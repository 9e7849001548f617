"""Hypergeometric probability scorer.

The study behind MSPolygraph (Cannon et al. 2005, the paper's reference
[5]) compared *probability* models against *likelihood* models for
peptide identification.  This is the classic probability model: treat
the spectrum's m/z axis as ``B`` tolerance-sized bins of which ``b`` are
occupied by observed peaks; a candidate with ``F`` fragments matching
``k`` of them scores the hypergeometric tail probability

    P(X >= k),  X ~ Hypergeometric(B, b, F)

— the chance a random candidate would match at least as well.  Reported
as ``-log10 P`` so larger is better, like every other scorer here.

Including it lets the library reproduce the *model comparison* that
justified MSPolygraph's likelihood approach (see
``benchmarks/bench_models.py``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import match_peaks_pairs, sorted_runs
from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import by_ion_ladder_rows


class HypergeometricScorer:
    """-log10 hypergeometric tail probability of the shared peak count."""

    name = "hypergeometric"
    relative_cost = 4.0

    def __init__(self, fragment_tolerance: float = 0.5, mz_range: float = 2000.0):
        if fragment_tolerance <= 0:
            raise ValueError(f"fragment_tolerance must be > 0, got {fragment_tolerance}")
        if mz_range <= 0:
            raise ValueError(f"mz_range must be > 0, got {mz_range}")
        self.fragment_tolerance = fragment_tolerance
        self.mz_range = mz_range

    def _bins(self, spectrum: Spectrum):
        """``(total_bins, occupied)`` of a spectrum's observed m/z axis."""
        span = max(float(spectrum.mz[-1] - spectrum.mz[0]), self.mz_range)
        total_bins = max(int(span / (2.0 * self.fragment_tolerance)), 1)
        return total_bins, min(spectrum.num_peaks, total_bins)

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, ladders)`` -> row scores.

        Matched-fragment counts come from one cohort-wide match; the scipy
        tail probability is then evaluated once per member and *distinct*
        matched count — a length group's rows share ``draws`` and matched
        counts repeat heavily, so the expensive ``hypergeom.sf`` call
        count collapses from O(rows) to O(distinct counts).  Rows of a
        member without peaks stay ``-inf`` like the scalar early return.
        """
        bins = [self._bins(s) if s.num_peaks else None for s in spectra.spectra]

        def kernel(member, ladders):
            scores = np.full(len(member), -math.inf)
            matched = match_peaks_pairs(
                spectra, member, ladders, self.fragment_tolerance
            ).sum(axis=1)
            for k, a, b in sorted_runs(member):
                if bins[k] is None:
                    continue
                total_bins, occupied = bins[k]
                draws = min(ladders.shape[1], total_bins)
                capped = np.minimum(matched[a:b], min(draws, occupied))
                for m in np.unique(capped):
                    tail = stats.hypergeom.sf(int(m) - 1, total_bins, occupied, draws)
                    tail = max(float(tail), 1e-300)
                    scores[a:b][capped == m] = -math.log10(tail)
            return scores

        return kernel

    def score_block(self, spectra, batch: CandidateBatch, selections):
        """Cohort scoring: ladders built once, one pair-kernel call per length."""
        from repro.scoring.base import score_block_pairs

        def prepare(group):
            if group.length < 2:
                return None  # empty ladder, score stays -inf
            return (by_ion_ladder_rows(group.mass_rows()),)

        return score_block_pairs(
            batch, selections, -math.inf, prepare, self.pair_kernel(spectra)
        )
