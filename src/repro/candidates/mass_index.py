"""Per-shard prefix/suffix mass index.

The paper defines candidates as prefixes or suffixes of database
sequences whose mass lies within ``m(q) +/- delta`` (Section II.A).  A
naive enumeration touches every residue of the shard per query; instead
we precompute, once per shard, the masses of *all* prefixes and suffixes
(2N values for N residues) and keep them sorted, so each query's
candidate set is two binary searches plus a gather.

This trades memory for time exactly once per shard: the index occupies a
constant multiple of the shard's size and therefore preserves the
paper's O(N/p) per-rank space bound.  The simulated machine accounts the
index's true ``nbytes`` against the rank's RAM cap, so the accounting is
honest rather than flattering.

Layout
------
Flat position ``k`` (0 <= k < N) of the shard's residue buffer identifies
both:

* the prefix of its sequence ending at ``k`` (inclusive), and
* the suffix of its sequence starting at ``k``.

``seq_of_pos[k]`` maps a flat position back to its sequence index; spans
are then recovered from the shard's offsets.

:func:`mass_sorted_spans` lays the same spans out as one mass-sorted row
table, the form a store keeps them in: a window is then one row range.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.constants import WATER_MASS
from repro.spectra.binning import _ragged_arange


@dataclass(frozen=True)
class CandidateSpans:
    """Candidates from one window query, in structure-of-arrays form.

    ``seq_index`` indexes into the *shard* the index was built over;
    ``start``/``stop`` are residue spans within that sequence; ``mass``
    is the unmodified neutral span mass; ``mod_delta`` is the variable
    modification mass applied (0 for unmodified candidates).
    """

    seq_index: np.ndarray  # int64
    start: np.ndarray  # int64
    stop: np.ndarray  # int64
    mass: np.ndarray  # float64
    mod_delta: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.seq_index)

    def take(self, mask_or_indices: np.ndarray) -> "CandidateSpans":
        """Subset of the spans selected by a boolean mask or index array.

        The single sanctioned way to filter spans — replaces hand-rolled
        five-field boolean gathers.  Order is preserved, which the
        deterministic (mod tier, mass rank) candidate order relies on.
        """
        sel = np.asarray(mask_or_indices)
        return CandidateSpans(
            self.seq_index[sel],
            self.start[sel],
            self.stop[sel],
            self.mass[sel],
            self.mod_delta[sel],
        )

    @property
    def lengths(self) -> np.ndarray:
        """Residue count of each span."""
        return self.stop - self.start

    @staticmethod
    def empty() -> "CandidateSpans":
        z = np.empty(0, dtype=np.int64)
        f = np.empty(0, dtype=np.float64)
        return CandidateSpans(z, z, z, f, f)

    @staticmethod
    def concat(parts: list) -> "CandidateSpans":
        parts = [p for p in parts if len(p)]
        if not parts:
            return CandidateSpans.empty()
        return CandidateSpans(
            np.concatenate([p.seq_index for p in parts]),
            np.concatenate([p.start for p in parts]),
            np.concatenate([p.stop for p in parts]),
            np.concatenate([p.mass for p in parts]),
            np.concatenate([p.mod_delta for p in parts]),
        )


def _flat_span_masses(shard: ProteinDatabase) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(seq_of_pos, prefix_mass, suffix_mass)`` per flat residue position:
    the sequence owning position ``k``, the mass of the prefix ending at
    ``k`` and of the suffix starting there (see the module docstring)."""
    offsets = shard.offsets
    csum = np.concatenate(([0.0], np.cumsum(mass_table()[shard.residues])))
    seq_of_pos = np.repeat(np.arange(len(shard), dtype=np.int64), shard.lengths)
    # prefix ending at k (inclusive): residues [off, k] -> csum[k+1] - csum[off]
    prefix_mass = csum[1:] - csum[offsets[seq_of_pos]] + WATER_MASS
    # suffix starting at k: residues [k, off_next) -> csum[off_next] - csum[k]
    suffix_mass = csum[offsets[seq_of_pos + 1]] - csum[:-1] + WATER_MASS
    return seq_of_pos, prefix_mass, suffix_mass


def mass_sorted_spans(shard: ProteinDatabase) -> CandidateSpans:
    """Every distinct prefix and suffix span of ``shard``, sorted by mass.

    The row table every store holds: a full-length span is listed
    once, as a prefix, and the sort is stable over prefixes (in flat
    position order) followed by suffixes (likewise), so equal-mass spans
    keep the order ``candidates_in_window`` lists them in.  Masses are
    the :class:`MassIndex` ones bit for bit, so a row range cut by two
    ``searchsorted`` calls on ``mass`` is exactly a mass-index window.
    """
    seq_of_pos, prefix_mass, suffix_mass = _flat_span_masses(shard)
    pos = np.arange(len(seq_of_pos), dtype=np.int64)
    local = pos - shard.offsets[seq_of_pos]
    proper = local > 0  # a suffix from a sequence's first residue is its prefix
    seq = np.concatenate((seq_of_pos, seq_of_pos[proper]))
    start = np.concatenate((np.zeros(len(pos), dtype=np.int64), local[proper]))
    stop = np.concatenate((local + 1, shard.lengths[seq_of_pos[proper]]))
    mass = np.concatenate((prefix_mass, suffix_mass[proper]))
    order = np.argsort(mass, kind="stable")
    return CandidateSpans(
        seq[order], start[order], stop[order], mass[order], np.zeros(len(order))
    )


#: serialises the first build over a shard (one module lock: nothing to
#: pickle with a database or to carry into the databases derived from it)
_BUILD_LOCK = threading.Lock()


class MassIndex:
    """Sorted prefix/suffix mass arrays over one database shard."""

    @classmethod
    def for_shard(cls, shard: ProteinDatabase) -> "MassIndex":
        """The shard's mass index, built on first use and kept on the shard.

        The index depends on the shard alone, so every searcher over one
        database object shares one.  Databases derived from it (``subset``,
        ``slice_range``, unpickled copies) start without one.  The index
        holds no reference back to the shard, so the cache forms no cycle.
        Threads racing on a fresh shard get one object from one build.
        """
        index = shard._mass_index
        if index is None:
            with _BUILD_LOCK:
                index = shard._mass_index
                if index is None:
                    index = shard._mass_index = cls(shard)
        return index

    def __init__(self, shard: ProteinDatabase):
        offsets = shard.offsets
        #: sequence index owning each flat residue position.
        self.seq_of_pos, prefix_mass, suffix_mass = _flat_span_masses(shard)
        self._prefix_order = np.argsort(prefix_mass, kind="stable")
        self._prefix_sorted = prefix_mass[self._prefix_order]
        self._suffix_order = np.argsort(suffix_mass, kind="stable")
        self._suffix_sorted = suffix_mass[self._suffix_order]
        self._offsets = offsets
        # Deduplicated suffix arrays: a full-length span (start == 0, i.e.
        # a suffix starting at its sequence's first residue) is reported
        # as a prefix, so enumeration drops it from the suffix side.  The
        # start > 0 filter used to run per window query; hoisting it here
        # makes window enumeration a pure slice of pre-filtered arrays.
        # Stable filtering of a sorted array preserves sorted order and
        # tie order, so slices are bitwise identical to the old per-call
        # filter.  The full arrays above remain for counting, where the
        # duplicate is subtracted via the parent-mass array instead.
        proper = self._suffix_order != offsets[self.seq_of_pos[self._suffix_order]]
        self._suffix_dedup_order = self._suffix_order[proper]
        self._suffix_dedup_sorted = self._suffix_sorted[proper]
        # Sorted whole-sequence masses: a full-length span appears in both
        # the prefix and the suffix arrays; enumeration reports it once
        # (as a prefix), and counting subtracts this array's window count
        # so counts and enumeration sizes agree exactly.
        self._parent_order = np.argsort(shard.parent_masses(), kind="stable")
        self._parent_sorted = shard.parent_masses()[self._parent_order]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays (excluding the shard itself)."""
        return int(
            self.seq_of_pos.nbytes
            + self._prefix_order.nbytes
            + self._prefix_sorted.nbytes
            + self._suffix_order.nbytes
            + self._suffix_sorted.nbytes
            + self._suffix_dedup_order.nbytes
            + self._suffix_dedup_sorted.nbytes
        )

    # -- window counting (O(log N), used by modeled execution) ----------

    def count_in_window(self, lo: float, hi: float) -> int:
        """Distinct prefix/suffix candidates with mass in ``[lo, hi]``.

        Matches ``len(self.candidates_in_window(lo, hi))`` exactly, in
        O(log N): full-length spans, present in both sorted arrays, are
        subtracted once.
        """
        return int(self.count_many(np.array([lo]), np.array([hi]))[0])

    def count_many(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`count_in_window` over query arrays."""
        pc = np.searchsorted(self._prefix_sorted, highs, side="right") - np.searchsorted(
            self._prefix_sorted, lows, side="left"
        )
        sc = np.searchsorted(self._suffix_sorted, highs, side="right") - np.searchsorted(
            self._suffix_sorted, lows, side="left"
        )
        fc = np.searchsorted(self._parent_sorted, highs, side="right") - np.searchsorted(
            self._parent_sorted, lows, side="left"
        )
        return (pc + sc - fc).astype(np.int64)

    def presence_counter(self, unit_csum: np.ndarray) -> "PresenceCounter":
        """O(log N) counter of window spans containing >= 1 flagged residue.

        ``unit_csum`` is a length ``N + 1`` cumulative count of a per-residue
        indicator over the shard's flat buffer (e.g. "is a PTM target
        residue").  The returned counter answers, for any mass window, how
        many *distinct* prefix/suffix candidates contain at least one flagged
        residue — exactly ``len(filter(candidates_in_window(lo, hi)))``
        without enumerating any spans.
        """
        pos_offsets = self._offsets[self.seq_of_pos]
        next_offsets = self._offsets[self.seq_of_pos + 1]
        # prefix ending at k covers [off, k]; suffix starting at k covers
        # [k, off_next); a full sequence covers [off, off_next).
        prefix_has = (unit_csum[1:] - unit_csum[pos_offsets]) > 0
        suffix_has = (unit_csum[next_offsets] - unit_csum[:-1]) > 0
        parent_has = (unit_csum[self._offsets[1:]] - unit_csum[self._offsets[:-1]]) > 0
        return PresenceCounter(
            self,
            np.concatenate(([0], np.cumsum(prefix_has[self._prefix_order]))),
            np.concatenate(([0], np.cumsum(suffix_has[self._suffix_order]))),
            np.concatenate(([0], np.cumsum(parent_has[self._parent_order]))),
        )

    # -- window enumeration (used by real execution) ---------------------

    def candidates_in_window(self, lo: float, hi: float) -> CandidateSpans:
        """All candidates (prefixes then suffixes) with mass in ``[lo, hi]``.

        A full-length span qualifies both as a prefix and as a suffix; it
        is reported once, as a prefix (the pre-deduplicated suffix arrays
        hold only spans with ``start > 0``), so candidate sets contain no
        duplicates.  Empty windows return without touching (or copying)
        any of the index arrays.
        """
        p0 = int(np.searchsorted(self._prefix_sorted, lo, side="left"))
        p1 = int(np.searchsorted(self._prefix_sorted, hi, side="right"))
        s0 = int(np.searchsorted(self._suffix_dedup_sorted, lo, side="left"))
        s1 = int(np.searchsorted(self._suffix_dedup_sorted, hi, side="right"))
        if p1 <= p0 and s1 <= s0:
            return CandidateSpans.empty()
        spans, _num_prefixes = self.sweep_spans(p0, p1, s0, s1)
        return spans

    # -- sweep enumeration (candidate-major search) ----------------------

    def windows_many(
        self, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized window boundaries for many queries at once.

        Returns ``(p0, p1, s0, s1)``: per query, the half-open slice
        ``[p0, p1)`` of the sorted prefix array and ``[s0, s1)`` of the
        deduplicated sorted suffix array whose masses lie in
        ``[low, high]`` — the batched replacement for per-query
        ``candidates_in_window`` binary searches.  For query ``q``,
        ``sweep_spans(p0[q], p1[q], s0[q], s1[q])`` enumerates exactly
        ``candidates_in_window(lows[q], highs[q])``.
        """
        p0 = np.searchsorted(self._prefix_sorted, lows, side="left")
        p1 = np.searchsorted(self._prefix_sorted, highs, side="right")
        s0 = np.searchsorted(self._suffix_dedup_sorted, lows, side="left")
        s1 = np.searchsorted(self._suffix_dedup_sorted, highs, side="right")
        return p0, p1, s0, s1

    def sweep_spans(self, p0, p1, s0, s1) -> Tuple[CandidateSpans, int]:
        """Materialize one candidate block from sorted-array slice bounds.

        Returns ``(spans, num_prefixes)`` where ``spans`` lists the
        prefixes ``[p0, p1)`` followed by the deduplicated suffixes
        ``[s0, s1)``, each in ascending-mass (slice) order.  A run of
        queries with overlapping windows enumerates its union block once
        through this method; each member's candidate set is then the pair
        of contiguous sub-slices its own ``windows_many`` bounds select,
        in exactly ``candidates_in_window`` order.

        The bounds may also be equal-length arrays, one entry per run of
        a packed scoring block: the block then lists every run's prefix
        slice (run-major), then every run's suffix slice, so the rows
        between two runs are never materialized.
        """
        if not isinstance(p0, np.ndarray):  # one window (ints or NumPy scalars)
            p0, p1 = int(p0), int(max(p0, p1))
            s0, s1 = int(s0), int(max(s0, s1))
            pre_pos = self._prefix_order[p0:p1]
            pre_mass = self._prefix_sorted[p0:p1].copy()
            suf_pos = self._suffix_dedup_order[s0:s1]
            suf_mass = self._suffix_dedup_sorted[s0:s1].copy()
        else:
            pre = _ragged_arange(p0, np.maximum(p1 - p0, 0))
            suf = _ragged_arange(s0, np.maximum(s1 - s0, 0))
            pre_pos = self._prefix_order[pre]
            pre_mass = self._prefix_sorted[pre]
            suf_pos = self._suffix_dedup_order[suf]
            suf_mass = self._suffix_dedup_sorted[suf]
        seq = self.seq_of_pos[pre_pos]
        prefixes = CandidateSpans(
            seq,
            np.zeros(len(seq), dtype=np.int64),
            pre_pos - self._offsets[seq] + 1,
            pre_mass,
            np.zeros(len(seq)),
        )
        seq = self.seq_of_pos[suf_pos]
        suffixes = CandidateSpans(
            seq,
            suf_pos - self._offsets[seq],
            self._offsets[seq + 1] - self._offsets[seq],
            suf_mass,
            np.zeros(len(seq)),
        )
        return CandidateSpans.concat([prefixes, suffixes]), len(prefixes)


def coalesce_windows(
    lows: np.ndarray, highs: np.ndarray, max_cohort: int
) -> List[Tuple[int, int]]:
    """Partition sorted query windows into runs of overlapping windows.

    ``lows`` must be non-decreasing (queries sorted by window low edge).
    Returns half-open index ranges ``[a, b)``; consecutive windows join a
    run while the next low edge falls inside the running union of the
    run's windows, capped at ``max_cohort`` members so one outlier-wide
    window cannot chain an entire rank's queries into a single block.
    """
    runs: List[Tuple[int, int]] = []
    # plain floats: comparing NumPy scalars costs ~100 ns each, and this
    # loop runs once per query per shard pass
    lows = np.asarray(lows).tolist()
    highs = np.asarray(highs).tolist()
    n = len(lows)
    i = 0
    while i < n:
        hi = highs[i]
        j = i + 1
        while j < n and j - i < max_cohort and lows[j] <= hi:
            if highs[j] > hi:
                hi = highs[j]
            j += 1
        runs.append((i, j))
        i = j
    return runs


@dataclass(frozen=True)
class SweepPlan:
    """How one shard pass groups its mass-ordered queries.

    Two units, because two things are being shared.  A *run* is a set of
    consecutive queries whose windows overlap (:func:`coalesce_windows`):
    the unit of candidate enumeration, its union window materialized once
    with no gap rows.  A *block* is consecutive runs packed up to
    ``max_cohort`` members: the unit of everything that does not care
    whether windows overlap — the candidate batch, the multi-spectrum
    kernels and the top-tau emit — and so the unit that sets how many
    rows one kernel call sees.

    Attributes:
        run_bounds: ``(R + 1,)`` int64; run ``r`` owns the mass-ordered
            members ``[run_bounds[r], run_bounds[r + 1])``.
        block_runs: ``(B + 1,)`` int64; block ``k`` owns the runs
            ``[block_runs[k], block_runs[k + 1])``.
    """

    run_bounds: np.ndarray
    block_runs: np.ndarray

    @classmethod
    def pack(cls, run_bounds: Sequence[int], max_cohort: int) -> "SweepPlan":
        """Greedily pack whole runs, in order, into blocks of at most
        ``max_cohort`` members; a run is never split (one that exceeds
        the cap on its own, which :func:`coalesce_windows` never returns,
        would get a block to itself)."""
        bounds = np.asarray(run_bounds, dtype=np.int64)
        edges = bounds.tolist()
        block_runs = [0]
        first = 0  # first member of the block being filled
        for r in range(1, len(edges) - 1):
            if edges[r + 1] - first > max_cohort:
                block_runs.append(r)
                first = edges[r]
        if len(edges) > 1:
            block_runs.append(len(edges) - 1)
        return cls(bounds, np.asarray(block_runs, dtype=np.int64))

    @property
    def num_blocks(self) -> int:
        return len(self.block_runs) - 1

    def blocks(self) -> Iterator[Tuple[int, int, int, int]]:
        """``(a, b, r0, r1)`` per block: members ``[a, b)``, runs ``[r0, r1)``."""
        runs = self.block_runs.tolist()
        members = self.run_bounds[self.block_runs].tolist()
        return zip(members[:-1], members[1:], runs[:-1], runs[1:])


def plan_sweep(lows: np.ndarray, highs: np.ndarray, max_cohort: int) -> SweepPlan:
    """The :class:`SweepPlan` of sorted query windows ``[lows, highs]``."""
    runs = coalesce_windows(lows, highs, max_cohort)
    return SweepPlan.pack([0] + [b for _a, b in runs], max_cohort)


class PresenceCounter:
    """Counts flagged candidates per mass window without enumeration.

    Built by :meth:`MassIndex.presence_counter`.  Holds, aligned to the
    index's sorted prefix/suffix/parent mass arrays, cumulative counts of
    spans containing >= 1 flagged residue; a window count is then four
    binary searches and three subtractions.  Full-length spans (present
    in both the prefix and suffix arrays) are subtracted once via the
    parent counts, mirroring :meth:`MassIndex.count_many`.
    """

    __slots__ = ("_index", "_prefix_cnt", "_suffix_cnt", "_parent_cnt")

    def __init__(
        self,
        index: MassIndex,
        prefix_cnt: np.ndarray,
        suffix_cnt: np.ndarray,
        parent_cnt: np.ndarray,
    ):
        self._index = index
        self._prefix_cnt = prefix_cnt
        self._suffix_cnt = suffix_cnt
        self._parent_cnt = parent_cnt

    @property
    def nbytes(self) -> int:
        return int(
            self._prefix_cnt.nbytes + self._suffix_cnt.nbytes + self._parent_cnt.nbytes
        )

    def count_in_window(self, lo: float, hi: float) -> int:
        """Flagged candidates with mass in ``[lo, hi]``, exactly."""
        idx = self._index
        p0 = np.searchsorted(idx._prefix_sorted, lo, side="left")
        p1 = np.searchsorted(idx._prefix_sorted, hi, side="right")
        s0 = np.searchsorted(idx._suffix_sorted, lo, side="left")
        s1 = np.searchsorted(idx._suffix_sorted, hi, side="right")
        f0 = np.searchsorted(idx._parent_sorted, lo, side="left")
        f1 = np.searchsorted(idx._parent_sorted, hi, side="right")
        return int(
            (self._prefix_cnt[p1] - self._prefix_cnt[p0])
            + (self._suffix_cnt[s1] - self._suffix_cnt[s0])
            - (self._parent_cnt[f1] - self._parent_cnt[f0])
        )
