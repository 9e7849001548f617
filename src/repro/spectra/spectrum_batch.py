"""Packed multi-spectrum batch for cohort (candidate-major) scoring.

A cohort of queries whose precursor windows overlap shares one candidate
block; the block's fragment-index probe then wants all member peaks in a
single pair of flat arrays so binning, posting-list lookup, and segment
sums run once per cohort instead of once per query.  ``SpectrumBatch``
concatenates the members' peak arrays with a CSR-style offsets vector.

The flat arrays are plain concatenations — every value is bit-for-bit
the same float64 the per-spectrum arrays hold — so any kernel that
gathers a member's slice (or addresses peaks by global flat index)
produces results bitwise identical to the per-query path.  For the same
reason a contiguous range of members, :meth:`SpectrumBatch.slice`, is a
batch of its own made of views: a rank packs its queries once and every
scoring block of every shard pass reads a slice of that one batch.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.spectra.spectrum import Spectrum


class SpectrumBatch:
    """Peaks of several spectra packed into flat CSR arrays.

    Attributes:
        spectra: the member spectra, in cohort order.
        mz: all members' peak m/z values, concatenated (``float64``).
        intensity: matching concatenated intensities.
        offsets: ``(len + 1,)`` int64; member ``k`` owns the flat slice
            ``[offsets[k], offsets[k + 1])``.
    """

    __slots__ = ("spectra", "mz", "intensity", "offsets", "_padded", "_bound", "_source")

    def __init__(self, spectra: Sequence[Spectrum]):
        self.spectra: List[Spectrum] = list(spectra)
        counts = np.fromiter(
            (s.num_peaks for s in self.spectra), dtype=np.int64, count=len(self.spectra)
        )
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        if self.spectra:
            self.mz = np.ascontiguousarray(np.concatenate([s.mz for s in self.spectra]))
            self.intensity = np.ascontiguousarray(
                np.concatenate([s.intensity for s in self.spectra])
            )
        else:
            self.mz = np.empty(0, dtype=np.float64)
            self.intensity = np.empty(0, dtype=np.float64)
        self._padded = None
        self._bound: Dict[Hashable, Any] = {}
        self._source = None  # (parent, a, b) of a slice

    def slice(self, a: int, b: int) -> "SpectrumBatch":
        """Members ``[a, b)`` as a batch of their own: views of this batch's
        flat arrays (and of its padded peaks and bindings, once made)."""
        part = SpectrumBatch.__new__(SpectrumBatch)
        lo, hi = self.offsets[a], self.offsets[b]
        part.spectra = self.spectra[a:b]
        part.mz = self.mz[lo:hi]
        part.intensity = self.intensity[lo:hi]
        part.offsets = self.offsets[a : b + 1] - lo
        part._padded = None
        part._bound = {}
        part._source = (self, a, b)
        return part

    def __len__(self) -> int:
        return len(self.spectra)

    @property
    def num_peaks(self) -> int:
        """Total peak count across all members."""
        return len(self.mz)

    def padded_mz(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(mz, offsets)`` with ``+inf`` after each member's peaks (cached):
        member ``k`` owns ``mz[offsets[k]:offsets[k + 1]]``, its pad last."""
        if self._padded is None:
            if self._source is None:
                mz = np.insert(self.mz, self.offsets[1:], np.inf)
                self._padded = (mz, self.offsets + np.arange(len(self.offsets)))
            else:
                parent, a, b = self._source
                mz, offsets = parent.padded_mz()
                self._padded = (mz[offsets[a] : offsets[b]], offsets[a : b + 1] - offsets[a])
        return self._padded

    def bound(self, scorer) -> Any:
        """``scorer.bind(self)``, made once per ``scorer.binding_key`` (its
        name and the parameters the binding depends on, so equal scorers
        share it): a scorer's per-member state, one entry per member along
        the first axis.  A slice slices its parent's binding
        (``binding[a:b]``) instead of making its own."""
        key = scorer.binding_key
        binding = self._bound.get(key)
        if binding is None:
            if self._source is None:
                binding = scorer.bind(self)
            else:
                parent, a, b = self._source
                binding = parent.bound(scorer)[a:b]
            self._bound[key] = binding
        return binding


def flatten_members(per_member: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-member index arrays into cohort-flat form.

    Returns ``(flat, member)``: the member-major concatenation and, for
    each entry, the position of the member that owns it — non-decreasing,
    which is what the pair kernels require of their member-of-row vector.
    """
    if len(per_member) == 1:  # a cohort of one: nothing to concatenate
        only = np.asarray(per_member[0], dtype=np.int64)
        return only, np.zeros(len(only), dtype=np.int64)
    sizes = np.fromiter((len(a) for a in per_member), dtype=np.int64, count=len(per_member))
    member = np.repeat(np.arange(len(per_member), dtype=np.int64), sizes)
    if len(member) == 0:
        return np.empty(0, dtype=np.int64), member
    return np.concatenate(per_member).astype(np.int64, copy=False), member
