"""SEQUEST-style cross-correlation (Xcorr) scorer.

SEQUEST (Eng, McCormack & Yates 1994 — the paper's reference [11])
correlates a binned experimental spectrum with a binned theoretical
spectrum and subtracts the mean correlation over displaced offsets,
rewarding alignment at zero shift specifically.

We use the standard fast reformulation: preprocess the observed binned
vector once per query as ``y' = y - mean(y shifted by -75..+75 bins)``,
after which each candidate's Xcorr is a single sparse dot product against
the candidate's fragment bins.  The preprocessing is cached per spectrum
because one query is scored against many thousands of candidates; a
cache entry holds its spectrum, so the ``id`` it is keyed by cannot be
reused by another spectrum while the entry lives.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import bin_spectrum, row_segment_sums
from repro.spectra.spectrum import Spectrum
from repro.spectra.theoretical import by_ion_ladders


class PreprocessedVectors:
    """Preprocessed vectors of a batch's members laid end to end: member
    ``k``'s is ``processed[bases[k] : bases[k] + limits[k]]``.  A slice of
    members (``vectors[a:b]``) keeps ``processed`` and slices the rest."""

    __slots__ = ("processed", "limits", "bases")

    def __init__(self, processed: np.ndarray, limits: np.ndarray, bases: np.ndarray):
        self.processed, self.limits, self.bases = processed, limits, bases

    def __getitem__(self, members: slice) -> "PreprocessedVectors":
        return PreprocessedVectors(self.processed, self.limits[members], self.bases[members])


class XCorrScorer:
    """Fast Xcorr over unit-width m/z bins."""

    name = "xcorr"
    relative_cost = 3.0

    def __init__(self, bin_width: float = 1.0005, offset_range: int = 75):
        if bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        if offset_range < 1:
            raise ValueError(f"offset_range must be >= 1, got {offset_range}")
        self.bin_width = bin_width
        self.offset_range = offset_range
        self._cache: Dict[int, Tuple[Spectrum, np.ndarray]] = {}

    def _preprocessed(self, spectrum: Spectrum) -> np.ndarray:
        key = id(spectrum)
        cached = self._cache.get(key)
        if cached is not None and cached[0] is spectrum:
            return cached[1]
        mz_max = float(max(spectrum.precursor_mz * spectrum.charge, spectrum.mz[-1] if spectrum.num_peaks else 1.0)) + 2.0
        binned = bin_spectrum(spectrum.mz, np.sqrt(spectrum.intensity), self.bin_width, mz_max)
        # y' = y - mean of y over +/- offset_range bins (excluding self),
        # computed with a cumulative sum for O(n).
        w = self.offset_range
        csum = np.concatenate(([0.0], np.cumsum(binned)))
        n = len(binned)
        # w >= 1, so only one bound of each can bind (np.clip on ints pays
        # a getlimits lookup a call)
        lo = np.maximum(np.arange(n) - w, 0)
        hi = np.minimum(np.arange(n) + w + 1, n)
        window_sum = csum[hi] - csum[lo] - binned
        window_len = (hi - lo - 1).astype(np.float64)
        mean = np.divide(window_sum, window_len, out=np.zeros(n), where=window_len > 0)
        processed = binned - mean
        if len(self._cache) > 64:  # one query is live at a time per engine
            self._cache.clear()
        self._cache[key] = (spectrum, processed)
        return processed

    def _ladder_matrix_scores(
        self,
        processed: np.ndarray,
        ladders: np.ndarray,
        limit: Optional[np.ndarray] = None,
        base: Optional[np.ndarray] = None,
        padded: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row Xcorr sums and unique-bin counts for a ladder matrix.

        A cohort of one passes its member's preprocessed vector; a larger cohort passes the members' vectors
        concatenated as ``processed`` with, per row, its member's bin
        ``limit`` (a column) and ``base`` offset into the concatenation;
        a row then keeps the same bins and sums the same values in the
        same order as against its member's vector alone.  ``ladders`` rows
        are ascending (:func:`~repro.spectra.theoretical.by_ion_ladders`);
        ``padded`` rows end in ``+inf`` pad fragments, which keep no bin.
        """
        sentinel = np.iinfo(np.int64).max
        bins = ladders / self.bin_width
        if padded:  # a +inf pad has no bin: cast it as -1, out of range
            bins[np.isinf(bins)] = -1.0
        bins = bins.astype(np.int64)
        if limit is None:
            limit = len(processed)
        bins[(bins < 0) | (bins >= limit)] = sentinel
        # Rows are already sorted: ladders are ascending positive m/z, so
        # their truncated bins are non-decreasing, and a pad or a bin past
        # the limit (the sentinel) can only sit at a row's end.
        # First occurrence of each value per row == np.unique per row.
        keep = np.ones(bins.shape, dtype=bool)
        keep[:, 1:] = bins[:, 1:] != bins[:, :-1]
        keep &= bins != sentinel
        counts = keep.sum(axis=1)
        row_offsets = np.concatenate(([0], np.cumsum(counts)))
        flat_bins = bins[keep]  # row-major => sorted unique bins per row
        if base is not None:
            flat_bins += np.repeat(base, counts)
        sums = row_segment_sums(processed, flat_bins, row_offsets)
        return sums, counts

    @property
    def binding_key(self):
        """What :meth:`bind` depends on besides the spectra."""
        return (self.name, self.bin_width, self.offset_range)

    def bind(self, spectra) -> PreprocessedVectors:
        """The members' preprocessed vectors, end to end: the per-member
        binding a batch keeps
        (:meth:`~repro.spectra.spectrum_batch.SpectrumBatch.bound`).  A
        member without peaks gets an empty vector."""
        vectors = [
            self._preprocessed(s) if s.num_peaks else np.empty(0)
            for s in spectra.spectra
        ]
        limits = np.fromiter((len(v) for v in vectors), dtype=np.int64, count=len(vectors))
        bases = np.concatenate(([0], np.cumsum(limits)[:-1]))
        return PreprocessedVectors(np.concatenate(vectors), limits, bases)

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, lengths, ladders)`` -> per-row scores.

        The members' preprocessed vectors are concatenated once per batch
        (:meth:`bind`).  A member without peaks gets bin limit 0: every
        bin of its rows is out of range, which leaves them at ``-inf``
        like the scalar early return.
        """
        bound = spectra.bound(self)
        limits, bases = bound.limits, bound.bases
        single = len(limits) == 1  # a cohort of one: the plain per-spectrum call
        processed = bound.processed
        if single:  # its own vector, a view
            processed = processed[bases[0] : bases[0] + limits[0]]

        def kernel(member, lengths, ladders):
            out = np.full(len(member), -np.inf)
            padded = lengths is not None
            if single:
                sums, counts = self._ladder_matrix_scores(processed, ladders, padded=padded)
            else:
                sums, counts = self._ladder_matrix_scores(
                    processed, ladders, limits[member][:, None], bases[member], padded
                )
            scored = np.nonzero(counts > 0)[0]
            out[scored] = sums[scored] * 1e-2
            return out

        return kernel

    def score_block(self, spectra, batch: CandidateBatch, selections):
        """Cohort scoring: ladders built once, one pair-kernel call per length band."""
        from repro.scoring.base import score_block_pairs

        def prepare(group):
            return (by_ion_ladders(group.mass_rows(), group.row_lengths),)

        return score_block_pairs(
            batch, selections, -np.inf, prepare, self.pair_kernel(spectra)
        )
