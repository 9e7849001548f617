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
``tests/integration/test_quality.py::TestModelComparison``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import match_peaks_pairs, row_prefix_sums, sorted_runs
from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import by_ion_ladders


class HypergeometricScorer:
    """-log10 hypergeometric tail probability of the shared peak count."""

    name = "hypergeometric"
    relative_cost = 4.0

    def __init__(self, fragment_tolerance: float = 0.5, mz_range: float = 2000.0):
        if not fragment_tolerance > 0:  # NaN included
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

    @property
    def binding_key(self):
        """What :meth:`bind` depends on besides the spectra."""
        return (self.name, self.fragment_tolerance, self.mz_range)

    def bind(self, spectra) -> np.ndarray:
        """:meth:`_bins` of every member, ``(members, 2)`` int64: the
        per-member binding a batch keeps
        (:meth:`~repro.spectra.spectrum_batch.SpectrumBatch.bound`).  A
        member without peaks gets ``(0, 0)``."""
        table = np.zeros((len(spectra), 2), dtype=np.int64)
        for k, s in enumerate(spectra.spectra):
            if s.num_peaks:
                table[k] = self._bins(s)
        return table

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, lengths, ladders)`` -> row scores.

        Matched-fragment counts come from one cohort-wide match over each
        row's own ``2 * (length - 1)`` fragments (a ``+inf`` pad
        "matches" the member's ``+inf`` peak pad, so it is not counted),
        and a row draws as many fragments as it has.  The scipy tail
        probability is then evaluated once per member and *distinct*
        (draws, matched count) pair — a band's rows share a few widths
        and matched counts repeat heavily, so the expensive
        ``hypergeom.sf`` call count collapses from O(rows) to O(distinct
        pairs).  Rows of a member without peaks stay ``-inf`` like the
        scalar early return.
        """
        bins = spectra.bound(self).tolist()

        def kernel(member, lengths, ladders):
            scores = np.full(len(member), -math.inf)
            widths = None if lengths is None else 2 * lengths - 2
            matched = row_prefix_sums(
                match_peaks_pairs(spectra, member, ladders, self.fragment_tolerance), widths
            )
            for k, a, b in sorted_runs(member):
                total_bins, occupied = bins[k]
                if total_bins == 0:  # no peaks
                    continue
                draws = np.minimum(ladders.shape[1] if widths is None else widths[a:b], total_bins)
                capped = np.minimum(matched[a:b], np.minimum(draws, occupied))
                pair = draws * (occupied + 1) + capped  # capped <= occupied
                for p in np.unique(pair):
                    d, m = divmod(int(p), occupied + 1)
                    tail = stats.hypergeom.sf(m - 1, total_bins, occupied, d)
                    tail = max(float(tail), 1e-300)
                    scores[a:b][pair == p] = -math.log10(tail)
            return scores

        return kernel

    def score_block(self, spectra, batch: CandidateBatch, selections):
        """Cohort scoring: ladders built once, one pair-kernel call per length band."""
        from repro.scoring.base import score_block_pairs

        def prepare(group):
            return (by_ion_ladders(group.mass_rows(), group.row_lengths),)

        return score_block_pairs(
            batch, selections, -math.inf, prepare, self.pair_kernel(spectra)
        )
