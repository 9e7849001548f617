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

A batch also keeps, per key shift, a :class:`PeakLocator`: a bin ->
first-peak table over its padded peaks that answers the cohort
matchers' "first peak at or above ``x``" by one gather and a few steps
instead of a binary search per member.
"""

from __future__ import annotations

import math
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

    __slots__ = (
        "spectra", "mz", "intensity", "offsets", "_padded", "_bound", "_locators", "_source"
    )

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
        self._locators: Dict[float, PeakLocator] = {}
        self._source = None  # (parent, a, b) of a slice

    def slice(self, a: int, b: int) -> "SpectrumBatch":
        """Members ``[a, b)`` as a batch of their own: views of this batch's
        flat arrays (and of its padded peaks, bindings and locators, once
        made)."""
        part = SpectrumBatch.__new__(SpectrumBatch)
        lo, hi = self.offsets[a], self.offsets[b]
        part.spectra = self.spectra[a:b]
        part.mz = self.mz[lo:hi]
        part.intensity = self.intensity[lo:hi]
        part.offsets = self.offsets[a : b + 1] - lo
        part._padded = None
        part._bound = {}
        part._locators = {}
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

    def locator(self, shift: float) -> "PeakLocator":
        """The :class:`PeakLocator` of the keys ``padded_mz() + shift``,
        made once per shift.  A slice reads its parent's table (a view and
        an offset), never a copy of it."""
        loc = self._locators.get(shift)
        if loc is None:
            if self._source is None:
                loc = PeakLocator(*self.padded_mz(), shift)
            else:
                parent, a, b = self._source
                lo, hi = parent.padded_mz()[1][[a, b]]
                loc = parent.locator(shift).slice(a, b, int(lo), int(hi))
            self._locators[shift] = loc
        return loc


BINS_PER_PEAK = 16
"""Table bins per peak of an average member, to within a factor of
``sqrt(2)`` (the bin width is a power of two): few enough that a table
costs ``4 * BINS_PER_PEAK`` bytes a peak, many enough that a needle's own
bin rarely holds a peak below it."""


class PeakLocator:
    """Per member, the first padded peak key at or above a needle.

    ``keys`` are a batch's padded peaks plus a shift (its ``+inf`` pads
    stay ``+inf``); ``bin(x) = clip(floor(x * inv_width), 0, nb)``.
    ``table[m * (nb + 1) + k]`` is the position of member ``m``'s first key
    with ``bin(key) >= k``, counted from the first key of the batch the
    table was built for; ``base`` is where this batch's keys start there
    (0 unless it is a slice).

    :meth:`locate` gathers the table entry of each needle's bin and steps
    forward while the key is below the needle.  That is exact: ``bin`` is
    monotone (a product by a positive constant, clipped and floored, never
    reverses an order; with ``inv_width`` a power of two it is not even
    rounded), so every key of a lower bin than the needle's is below it,
    and no step passes a member's ``+inf`` pad.
    """

    __slots__ = ("keys", "table", "inv_width", "nb", "base")

    def __init__(self, padded: np.ndarray, offsets: np.ndarray, shift: float):
        """Build over a whole batch's padded peaks: one ``repeat`` of the
        key positions by how many bins each key's (member, bin) code
        opens, so no table-sized temporary is made."""
        if len(padded) > np.iinfo(np.int32).max:
            raise ValueError(f"{len(padded)} padded peaks do not fit int32 positions")
        self.keys = padded if shift == 0 else padded + shift
        counts = np.diff(offsets)  # peaks + 1 a member
        members = len(counts)
        peaks = len(padded) - members
        top = float(np.max(self.keys, initial=0.0, where=np.isfinite(self.keys)))
        target = BINS_PER_PEAK * peaks / max(members, 1)
        exponent = round(math.log2(target / top)) if target > 0 and top > 0 else 0
        self.inv_width = math.ldexp(1.0, max(-60, min(60, exponent)))
        self.nb = max(1, math.ceil(top * self.inv_width))
        self.base = 0
        codes = self.bins(self.keys)  # pads: nb
        codes += np.repeat(np.arange(members, dtype=np.intp) * (self.nb + 1), counts)
        # codes are non-decreasing; entry j is the first position whose code is >= j
        self.table = np.repeat(
            np.arange(len(codes), dtype=np.int32), np.diff(codes, prepend=-1)
        )

    def slice(self, a: int, b: int, lo: int, hi: int) -> "PeakLocator":
        """Members ``[a, b)``, whose padded keys are ``keys[lo:hi]``: views."""
        part = PeakLocator.__new__(PeakLocator)
        stride = self.nb + 1
        part.keys = self.keys[lo:hi]
        part.table = self.table[a * stride : b * stride]
        part.inv_width, part.nb = self.inv_width, self.nb
        part.base = self.base + lo
        return part

    def bins(self, x: np.ndarray) -> np.ndarray:
        """``clip(floor(x * inv_width), 0, nb)`` as ``intp`` (the cast
        truncates, which is the floor once clipped at 0)."""
        at = x * self.inv_width
        np.clip(at, 0, self.nb, out=at)
        return at.astype(np.intp)

    def locate(self, member: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, found)`` for a ``(rows, width)`` needle matrix: the
        position in ``keys`` of member ``member[r]``'s first key ``>= x[r,
        j]`` — bitwise ``np.searchsorted`` of the row in that member's padded
        keys plus the member's padded offset — and that key.  Needles must
        not be NaN."""
        pos = self.bins(x)
        pos += (member * (self.nb + 1))[:, None]
        np.subtract(self.table.take(pos), self.base, out=pos)
        flat, needles = pos.reshape(-1), x.reshape(-1)
        found = self.keys.take(flat)
        live = np.flatnonzero(found < needles)
        while len(live):
            flat[live] += 1
            found[live] = step = self.keys.take(flat[live])
            live = live[step < needles[live]]
        return pos, found.reshape(x.shape)


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
