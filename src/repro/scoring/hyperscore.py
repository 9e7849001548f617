"""X!Tandem-style hyperscore — the "fast, simple" model.

X!!Tandem's speed (paper Section I.A: 2.65 M peptides against 1,210
spectra in under 2 minutes on 8 processors) comes from a cheap dot-product
score.  The hyperscore is::

    hyperscore = (sum of matched peak intensities) * Nb! * Ny!

reported in log form.  We count b- and y-series matches separately and
apply Stirling-exact ``lgamma`` factorials, as X!Tandem does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import matched_intensity_pairs
from repro.spectra.theoretical import IonSeries, fragment_mz_rows

#: log(10), the hyperscore's reporting base.
_LOG10 = math.log(10.0)

#: lgamma(k + 1) lookup, grown on demand.  ``math.lgamma`` of an integer
#: argument is deterministic, so table entries equal the scalar
#: definition's per-candidate calls exactly.
_LGAMMA_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(128)])


def _lgamma_factorial(n_max: int) -> np.ndarray:
    """Table ``t`` with ``t[k] == math.lgamma(k + 1)`` for ``k <= n_max``."""
    global _LGAMMA_FACTORIAL
    if n_max >= len(_LGAMMA_FACTORIAL):
        _LGAMMA_FACTORIAL = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    return _LGAMMA_FACTORIAL


class HyperScorer:
    """log10 hyperscore over singly-charged b and y series."""

    name = "hyperscore"
    relative_cost = 1.5

    def __init__(self, fragment_tolerance: float = 0.5):
        if not fragment_tolerance > 0:  # NaN included
            raise ValueError(f"fragment_tolerance must be > 0, got {fragment_tolerance}")
        self.fragment_tolerance = fragment_tolerance

    @staticmethod
    def _finalize(nb, b_int, ny, y_int):
        """Counts and sums -> log10 hyperscore, row by row the scalar arithmetic.

        ``np.log`` rather than ``math.log``: the two differ in the last bit
        for some inputs, and the scalar definition uses ``np.log``.
        """
        out = np.full(len(nb), -math.inf)
        dot = b_int + y_int
        valid = np.nonzero((dot > 0.0) & ((nb > 0) | (ny > 0)))[0]
        if len(valid) == 0:
            return out
        table = _lgamma_factorial(int(max(nb.max(), ny.max())))
        ln = np.log(dot[valid]) + table[nb[valid]] + table[ny[valid]]
        out[valid] = ln / _LOG10
        return out

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, lengths, b_rows, y_rows)`` -> per-row scores.

        A member without peaks matches nothing, so its rows come out of
        ``_finalize`` at ``-inf`` like the scalar early return.  A
        ``+inf`` pad fragment of a padded row matches no peak interval,
        so the row's lengths are not needed.
        """

        def kernel(member, _lengths, b_rows, y_rows):
            nb, b_int = matched_intensity_pairs(
                spectra, member, b_rows, self.fragment_tolerance
            )
            ny, y_int = matched_intensity_pairs(
                spectra, member, y_rows, self.fragment_tolerance
            )
            return self._finalize(nb, b_int, ny, y_int)

        return kernel

    def score_block(self, spectra, batch: CandidateBatch, selections):
        """Cohort scoring: fragment matrices built once per length band,
        one pair-kernel call per band."""
        from repro.scoring.base import score_block_pairs

        def prepare(group):
            masses, lengths = group.mass_rows(), group.row_lengths
            return (
                fragment_mz_rows(masses, IonSeries.B, lengths=lengths),
                fragment_mz_rows(masses, IonSeries.Y, lengths=lengths),
            )

        return score_block_pairs(
            batch, selections, -math.inf, prepare, self.pair_kernel(spectra)
        )

    def score_index_block(self, spectra, index, row_sets):
        """Index-served cohort scoring: one flat b/y probe for all queries."""
        return self._finalize(
            *index.matched_intensity_block(spectra, self.fragment_tolerance, row_sets)
        )
