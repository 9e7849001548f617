"""SEQUEST-style cross-correlation (Xcorr) scorer.

SEQUEST (Eng, McCormack & Yates 1994 — the paper's reference [11])
correlates a binned experimental spectrum with a binned theoretical
spectrum and subtracts the mean correlation over displaced offsets,
rewarding alignment at zero shift specifically.

We use the standard fast reformulation: preprocess the observed binned
vector once per query as ``y' = y - mean(y shifted by -75..+75 bins)``,
after which each candidate's Xcorr is a single sparse dot product against
the candidate's fragment bins.  One query is scored against many
thousands of candidates, so the preprocessing is a batch's *binding*
(:meth:`XCorrScorer.bind`), made once per batch for all its members in
a few array passes over small groups of them, and kept on the batch:
no spectrum can be served another's vector.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.spectra.binning import _ragged_arange, row_segment_sums
from repro.spectra.theoretical import by_ion_ladders


class PreprocessedVectors:
    """Preprocessed vectors of a batch's members in one array: member
    ``k``'s is ``processed[bases[k] : bases[k] + limits[k]]``, and what
    lies between two vectors (a group's pads, :meth:`XCorrScorer.bind`) is
    never read.  A slice of members (``vectors[a:b]``) keeps ``processed``
    and slices the rest."""

    __slots__ = ("processed", "limits", "bases")

    def __init__(self, processed: np.ndarray, limits: np.ndarray, bases: np.ndarray):
        self.processed, self.limits, self.bases = processed, limits, bases

    def __getitem__(self, members: slice) -> "PreprocessedVectors":
        return PreprocessedVectors(self.processed, self.limits[members], self.bases[members])


#: Members a binding preprocesses together, in one matrix each of
#: binned peaks, running sums, window sums and window lengths (~4 x 8 B
#: a bin a member, ~0.5 MB at 8 members of ~1 850 bins: a core's L2).
#: Binding time per pass over the xcorr blocks of a 250 x 800 and a
#: 2000 x 400 search (seed 17, ~57 members a block, 758-3 213 bins a
#: member), medians of 15 on 2 vCPUs with 2 MB of L2 each, at
#: 4 / 8 / 16 / 32 / 64 members: 16.7 / 16.4 / 21.4 / 25.1 / 34.4 ms and
#: 8.6 / 8.1 / 11.5 / 14.7 / 19.1 ms (one member at a time, the form it
#: replaced: ~38 and ~19-25 ms).
GROUP_ROWS = 8


class XCorrScorer:
    """Fast Xcorr over unit-width m/z bins."""

    name = "xcorr"
    relative_cost = 3.0

    def __init__(self, bin_width: float = 1.0005, offset_range: int = 75):
        if not 0 < bin_width < math.inf:  # NaN included
            raise ValueError(f"bin_width must be finite and > 0, got {bin_width}")
        integral = isinstance(offset_range, (int, np.integer))
        if isinstance(offset_range, bool) or not (integral and offset_range >= 1):
            raise ValueError(f"offset_range must be an int >= 1, got {offset_range!r}")
        self.bin_width = bin_width
        self.offset_range = int(offset_range)

    def _ladder_matrix_scores(
        self,
        processed: np.ndarray,
        ladders: np.ndarray,
        limit: Optional[np.ndarray] = None,
        base: Optional[np.ndarray] = None,
        padded: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row Xcorr sums and unique-bin counts for a ladder matrix.

        A cohort of one passes its member's preprocessed vector; a larger
        cohort passes the array holding the members' vectors as
        ``processed`` with, per row, its member's bin ``limit`` (a column)
        and ``base`` offset into that array;
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
        """The members' preprocessed vectors: the per-member binding a
        batch keeps (:meth:`~repro.spectra.spectrum_batch.SpectrumBatch.bound`).

        A member with peaks gets ``n = ceil((max(precursor m/z x charge,
        last peak) + 2) / bin_width)`` bins; its vector is the binned
        ``sqrt(intensity)`` ``y`` minus the mean of ``y`` over the
        ``offset_range`` bins either side of each bin, itself excluded.  A
        member without peaks gets an empty vector (limit 0).

        Members are taken in groups of :data:`GROUP_ROWS` by ascending
        ``n``, each group one zero-padded matrix as wide as its widest
        member; a member's vector is its row's first ``n`` entries, at
        ``bases[k]``, and the pads after it are never read.  Per group: one
        ``bincount`` of every peak into its row, ``w + 1`` zeros before
        (``w = offset_range``) and ``w`` after (each bin's sum starts at
        ``0.0`` and adds its peaks in m/z order, as ``np.add.at`` does); one row-wise
        running sum, whose prefix of zeros leaves every sum of the scalar's
        ``cumsum`` unchanged and whose zeros past ``n`` keep it constant,
        so the sums at the window edges ``min(j + w + 1, n)`` and ``max(j -
        w, 0)`` are two shifted slices; the window lengths ``min(j + w, 2w,
        n - 1, n - 1 + w - j)``; one divide and one subtract, written into
        the binding.  A window of length 0 (a one-bin vector's) sums to
        ``y - y = 0.0``; dividing it by 1 keeps its mean 0, as the scalar
        definition does, and ``y - 0.0 == y``.  Each vector is therefore
        the per-spectrum definition's bit for bit
        (``tests/reference.py::xcorr_preprocessed``).
        """
        w, width = self.offset_range, self.bin_width
        counts = np.diff(spectra.offsets)
        limits = np.zeros(len(counts), dtype=np.int64)
        bases = np.zeros(len(counts), dtype=np.int64)
        live = np.flatnonzero(counts)
        if not len(live):
            return PreprocessedVectors(np.empty(0), limits, bases)
        precursor = np.fromiter(
            (s.precursor_mz * s.charge for s in spectra.spectra), np.float64, len(counts)
        )
        top = np.maximum(precursor[live], spectra.mz[spectra.offsets[live + 1] - 1])
        limits[live] = np.ceil((top + 2.0) / width).astype(np.int64)
        order = live[np.argsort(limits[live], kind="stable")]
        heads = np.arange(0, len(order), GROUP_ROWS)
        rows = np.diff(np.append(heads, len(order)))
        widest = limits[order[heads + rows - 1]]
        starts = np.concatenate(([0], np.cumsum(rows * widest)))
        slot = np.arange(len(order)) % GROUP_ROWS  # each member's row in its group
        bases[order] = np.repeat(starts[:-1], rows) + slot * np.repeat(widest, rows)
        # every peak, members in group order, at its place in its group's
        # matrix, whose rows are w + 1 zeros, n bins and w zeros; a bin at
        # or past its member's n is dropped, as the scalar's range check
        # drops it
        sizes = counts[order]
        peaks = _ragged_arange(spectra.offsets[order], sizes)
        place = (spectra.mz[peaks] / width).astype(np.int64)
        keep = place < np.repeat(limits[order], sizes)
        place += np.repeat(slot * np.repeat(widest + (2 * w + 1), rows) + (w + 1), sizes)
        place, values = place[keep], np.sqrt(spectra.intensity[peaks][keep])
        first = np.concatenate(([0], np.cumsum(sizes)))[np.append(heads, len(order))]
        edges = np.concatenate(([0], np.cumsum(keep)))[first]  # group g's: edges[g : g + 2]
        # window lengths min(j + w, 2w) and min(n - 1, n - 1 + w - j) =
        # n - 1 + min(0, w - j), as floats; one work buffer each, sized
        # for the largest group
        j = np.arange(int(widest[-1]), dtype=np.float64)
        near, far = np.minimum(j + w, 2 * w), np.minimum(w - j, 0.0)
        cells = int((rows * widest).max())
        csum_buf = np.empty(cells + int(rows.max()) * (2 * w + 1))
        window_buf, length_buf = np.empty(cells), np.empty(cells)
        processed = np.empty(int(starts[-1]))
        for g in range(len(heads)):
            k, n = int(rows[g]), int(widest[g])
            span = n + 2 * w + 1
            at = slice(edges[g], edges[g + 1])
            padded = np.bincount(place[at], values[at], k * span).reshape(k, span)
            binned = padded[:, w + 1 : w + 1 + n]
            csum = np.cumsum(padded, axis=1, out=csum_buf[: k * span].reshape(k, span))
            window = window_buf[: k * n].reshape(k, n)
            # the sums at min(j + w + 1, n) and max(j - w, 0)
            np.subtract(csum[:, 2 * w + 1 :], csum[:, :n], out=window)
            window -= binned
            length = length_buf[: k * n].reshape(k, n)
            np.add((limits[order[heads[g] : heads[g] + k]] - 1.0)[:, None], far[:n], out=length)
            np.minimum(length, near[:n], out=length)
            np.maximum(length, 1.0, out=length)
            window /= length
            np.subtract(binned, window, out=processed[starts[g] : starts[g + 1]].reshape(k, n))
        return PreprocessedVectors(processed, limits, bases)

    def pair_kernel(self, spectra):
        """Bind a cohort: ``kernel(member, lengths, ladders)`` -> per-row scores.

        The members' preprocessed vectors are made once per batch
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
