"""Likelihood-ratio scorer — the "slow, accurate" MSPolygraph-style model.

MSPolygraph scores a candidate by "generating two different spectra ...
one a model spectrum for the candidate and the other being a spectrum
generated for a random peptide — and then comparing both against the
experimental spectrum.  The result is a likelihood ratio score" (paper
Section II.A, after Cannon et al. 2005).

Our implementation follows that structure exactly:

* **Candidate hypothesis H1** — the candidate generated the spectrum.
  Each fragment position of the model spectrum is observed with
  probability ``p_detect`` (weighted by the model intensity, so strong
  y ions are more often expected than weak ones).
* **Null hypothesis H0 (random peptide)** — observed peaks land near a
  given fragment position only by chance.  The chance-match probability
  is estimated from the query's own peak density: a tolerance window of
  width ``2 * tol`` in an m/z range populated by ``P`` peaks is hit with
  probability ``min(1, 2 * tol * P / range)``.

The returned score is the log-likelihood ratio ``log P(obs | H1) -
log P(obs | H0)`` accumulated over fragment positions, so it is additive,
well-calibrated for ranking, and positive only when the candidate
explains the spectrum better than chance.

The model spectrum is the on-the-fly, sequence-averaged b/y model
(:func:`~repro.spectra.theoretical.theoretical_spectrum`): its intensity
is a per-series constant, so a fragment's term is one of four values per
query — unmatched or matched, b or y — and the pair kernel gathers them
from one table per cohort (:meth:`LikelihoodRatioScorer.llr_table`).

Cost: it touches every fragment of the model spectrum and does
intensity-weighted work — its calibrated ``relative_cost`` makes it
roughly an order of magnitude costlier than the shared-peak count, which
is how the paper's X!!Tandem-vs-MSPolygraph speed/quality trade-off
shows up here.
"""

from __future__ import annotations

import math

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import match_peaks_pairs, row_prefix_sums
from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import SERIES_WEIGHT, IonSeries, by_model_rows


class LikelihoodRatioScorer:
    """Poisson/Bernoulli log-likelihood ratio of candidate vs. random model."""

    name = "likelihood"
    relative_cost = 8.0

    def __init__(self, fragment_tolerance: float = 0.5, p_detect: float = 0.7):
        if not fragment_tolerance > 0:  # NaN included
            raise ValueError(f"fragment_tolerance must be > 0, got {fragment_tolerance}")
        if not 0.0 < p_detect < 1.0:
            raise ValueError(f"p_detect must be in (0, 1), got {p_detect}")
        self.fragment_tolerance = fragment_tolerance
        self.p_detect = p_detect

    def _chance_match_probability(self, spectrum: Spectrum) -> float:
        """Probability a random tolerance window contains >= 1 observed peak
        (the scalar definition; :meth:`llr_table` evaluates it for a whole
        batch at once)."""
        if spectrum.num_peaks == 0:
            return 1e-9
        span = float(spectrum.mz[-1] - spectrum.mz[0])
        if span <= 0:
            return 1e-9
        density = spectrum.num_peaks / span
        p0 = 2.0 * self.fragment_tolerance * density
        return float(min(max(p0, 1e-9), 0.999))

    def llr_table(self, spectra) -> np.ndarray:
        """Per-fragment log-likelihood ratios of a cohort: ``(members, 4)``.

        Columns: unmatched b, unmatched y, matched b, matched y.  The model
        intensity is a per-series constant, so ``p1`` takes one value per
        series and a fragment's term is one of these four: the Bernoulli
        log-likelihood ratio ``log(p1 / p0)`` if an observed peak lies
        within the tolerance, ``log((1 - p1) / (1 - p0))`` otherwise, with
        ``p1 = clip(p_detect * weight / max weight, 1e-6, 0.999)`` — dominant
        ions are expected, weak ions optional.  ``p0`` is
        :meth:`_chance_match_probability` of every member in one array
        expression, its operations in the scalar's order.  A member without
        peaks gets ``-inf``, the score of a spectrum nothing can match.
        """
        weights = np.array([SERIES_WEIGHT[IonSeries.B], SERIES_WEIGHT[IonSeries.Y]])
        p1 = np.clip(self.p_detect * (weights / weights.max()), 1e-6, 0.999)
        counts = np.diff(spectra.offsets)
        mz, padded = spectra.padded_mz()
        with np.errstate(divide="ignore", invalid="ignore"):
            # last minus first peak of each member; a member without peaks
            # reads pads or its neighbours' peaks and is overwritten below
            span = mz[padded[1:] - 2] - mz[padded[:-1]]
            p0 = np.clip(2.0 * self.fragment_tolerance * (counts / span), 1e-9, 0.999)
        p0[(counts == 0) | ~(span > 0)] = 1e-9
        p0 = p0[:, None]
        table = np.concatenate((np.log((1.0 - p1) / (1.0 - p0)), np.log(p1 / p0)), axis=1)
        table[counts == 0] = -math.inf
        return table

    @property
    def binding_key(self):
        """What :meth:`bind` depends on besides the spectra."""
        return (self.name, self.fragment_tolerance, self.p_detect)

    def bind(self, spectra) -> np.ndarray:
        """The per-member binding a batch keeps
        (:meth:`~repro.spectra.spectrum_batch.SpectrumBatch.bound`): the
        :meth:`llr_table`."""
        return self.llr_table(spectra)

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, lengths, model_mz, y_rows)`` -> row scores.

        Each fragment gathers its member's :meth:`llr_table` entry (made
        once per batch: :meth:`bind`) for its series and match; the row
        sum runs in m/z order over the row's own ``2 * (length - 1)``
        fragments, as the scalar definition's sum does (a ``+inf`` pad "matches" the member's
        ``+inf`` peak pad, so it must not be summed).
        """
        table = spectra.bound(self).ravel()

        def kernel(member, lengths, model_mz, y_rows):
            code = 2 * match_peaks_pairs(spectra, member, model_mz, self.fragment_tolerance)
            code += y_rows
            code += 4 * member[:, None]
            return row_prefix_sums(table[code], None if lengths is None else 2 * lengths - 2)

        return kernel

    def score_block(self, spectra, batch: CandidateBatch, selections):
        """Cohort scoring: model spectra generated once per length band,
        one pair-kernel call per band."""
        from repro.scoring.base import score_block_pairs

        def prepare(group):
            return by_model_rows(group.mass_rows(), group.row_lengths)

        return score_block_pairs(
            batch, selections, -math.inf, prepare, self.pair_kernel(spectra)
        )
