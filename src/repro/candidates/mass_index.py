"""The mass-sorted row table: every candidate span of a shard, once.

The paper defines candidates as prefixes or suffixes of database
sequences whose mass lies within ``m(q) +/- delta`` (Section II.A).
Laid out once per shard as *all* its distinct prefixes and suffixes
sorted by mass, a query's candidate set is one contiguous row range:
two binary searches.  A row is two columns, 12 bytes: ``mass``
(float64, ascending; ``csum[stop] - csum[start] + WATER_MASS`` over the
running residue-mass sum of the shard's flat buffer) and ``key``
(int32): flat residue position ``k`` names the prefix of its sequence
ending at ``k`` (inclusive), ``~k`` the suffix starting at ``k``; a
full-length span is listed once, as a prefix.  Keys decode to
``seq_index`` / ``start`` / ``stop`` against the shard's offsets
(:meth:`MassIndex.spans`) for the rows a caller selects and no others.
Every index store holds exactly this table (``row_mass``, ``row_key``).
It is a constant multiple of the shard's size, so it keeps the paper's
O(N/p) per-rank space bound.  A direct search that knows its queries
builds only the table's first rows, those up to its heaviest window
(the table's *reach*): only spans near either end of a sequence are
that light.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.constants import WATER_MASS
from repro.errors import ConfigError
from repro.index.layout import ROW_ID_DTYPE, ROW_KEY_DTYPE, check_row_keys
from repro.spectra.binning import _ragged_arange, stable_sort


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
        """Subset of the spans selected by a boolean mask or index array,
        in order."""
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


def _unsorted_rows(
    shard: ProteinDatabase, reach: float = np.inf
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(mass, key)`` of every row of mass at most ``reach``: the
    prefixes, then the proper suffixes, each in flat position order.

    A prefix's mass rises with its length and a suffix's falls with its
    start, so a sequence's rows in reach are its shortest prefixes and
    suffixes: one ``searchsorted`` on the running residue-mass sum per
    sequence end finds them.  That search may round either way, so each
    end takes one row more than it finds (every residue weighs at least
    57 Da: rounding never misplaces two) and the rows are then kept by
    their exact masses — the expressions of the full table, so the kept
    masses are bitwise its masses.
    """
    first, end = shard.offsets[:-1], shard.offsets[1:]
    csum = np.concatenate(([0.0], np.cumsum(mass_table()[shard.residues])))
    bound = reach - WATER_MASS
    # prefix ending at k (inclusive): residues [first, k], csum[k + 1] -
    # csum[first]; counting from first, not first + 1, is the extra row
    found = np.searchsorted(csum, csum[first] + bound, side="right") - first
    num_prefixes = np.clip(found, 0, end - first)
    # suffix starting at k: residues [k, end), csum[end] - csum[k], from
    # one row before the first found; a suffix from a sequence's first
    # residue is its prefix
    found = np.searchsorted(csum, csum[end] - bound, side="left") - 1
    suffix_first = np.clip(found, first + 1, end)
    num_suffixes = end - suffix_first
    # the outputs are allocated before the position temporaries: built
    # in a service's scorer thread, the table then leaves less of its
    # build resident in that thread's malloc arena
    p = int(num_prefixes.sum())
    mass = np.empty(p + int(num_suffixes.sum()))
    key = np.empty(len(mass), dtype=ROW_KEY_DTYPE)
    pos = _ragged_arange(first, num_prefixes)
    np.subtract(csum[1:][pos], np.repeat(csum[first], num_prefixes), out=mass[:p])
    key[:p] = pos
    pos = _ragged_arange(suffix_first, num_suffixes)
    np.subtract(np.repeat(csum[end], num_suffixes), csum[pos], out=mass[p:])
    key[p:] = np.invert(pos, out=pos)
    del pos, csum
    mass += WATER_MASS
    if reach < np.inf:
        keep = mass <= reach
        mass, key = mass[keep], key[keep]
    return mass, key


#: serialises the first build over a shard (one module lock: nothing to
#: pickle with a database or to carry into the databases derived from it)
_BUILD_LOCK = threading.Lock()


class MassIndex:
    """A shard's mass-sorted row table up to a *reach*: ``mass`` and
    ``key`` columns, decoded against the shard's ``offsets``.

    The table of reach ``R`` holds the rows of mass at most ``R``: it is
    the first rows of the shard's full table (reach ``inf``), bitwise, so
    a row id names the same span in both.  A window above the reach is
    refused, never served truncated.
    """

    @classmethod
    def for_shard(cls, shard: ProteinDatabase, reach: float = np.inf) -> "MassIndex":
        """The shard's row table up to at least ``reach``, built on first
        use and kept on the shard.

        The table depends on the shard and the reach alone, so every
        searcher over one database object shares the widest table built
        on it so far; a wider reach builds a wider one, which replaces
        it.  Databases derived from the shard (``subset``,
        ``slice_range``, unpickled copies) start without one.  The table
        holds the shard's offsets, not the shard, so the cache forms no
        cycle.  Threads racing on a fresh shard get one object from one
        build.
        """
        index = shard._mass_index
        if index is None or index.reach < reach:
            with _BUILD_LOCK:
                index = shard._mass_index
                if index is None or index.reach < reach:
                    index = shard._mass_index = cls(shard, reach)
        return index

    def __init__(self, shard: ProteinDatabase, reach: float = np.inf):
        """Build the table of the rows of mass at most ``reach``: the
        prefixes (in flat position order) then the proper suffixes,
        sorted by mass; equal masses keep that order
        (:func:`~repro.spectra.binning.stable_sort`: one SIMD sort, then
        the ~1% of rows in equal-mass runs put back in place)."""
        check_row_keys(int(shard.offsets[-1]))
        if np.isnan(reach):
            raise ConfigError("a row table's reach must be a mass or +-inf, not NaN")
        mass, key = _unsorted_rows(shard, reach)  # the build's temporaries die with its frame
        self.mass, order = stable_sort(mass)
        del mass
        self.key = key[order]
        self.offsets = shard.offsets
        self.reach = float(reach)

    @classmethod
    def end_to_end(cls, parts: Sequence["MassIndex"], shard: ProteinDatabase) -> "MassIndex":
        """The table of ``shard``, the shards of ``parts`` (their tables,
        in order) laid end to end (:meth:`ProteinDatabase.concat`),
        merged from theirs and kept on it, up to the shortest reach among
        them.

        Its masses are the parts' masses, bitwise: a mass is a difference
        of running sums over the flat buffer, and rebuilding it from
        ``shard``'s longer running sum could round the last bit otherwise
        (and move a row across a window edge).  Keys shift by the residues
        laid before their part.
        """
        residues = [int(part.offsets[-1]) for part in parts]
        if sum(residues) != int(shard.offsets[-1]):
            raise ValueError("the tables' shards do not lay end to end into this shard")
        check_row_keys(sum(residues))
        reach = min((part.reach for part in parts), default=np.inf)
        rows = [int(np.searchsorted(part.mass, reach, side="right")) for part in parts]
        mass, order = stable_sort(np.concatenate([p.mass[:n] for p, n in zip(parts, rows)]))
        key = np.concatenate([p.key[:n] for p, n in zip(parts, rows)])[order].astype(np.int64)
        base = np.repeat(np.cumsum([0] + residues[:-1]), rows)[order]
        key += np.where(key < 0, -base, base)
        index = cls.view(mass, key.astype(ROW_KEY_DTYPE), shard.offsets)
        index.reach = float(reach)
        shard._mass_index = index
        return index

    @classmethod
    def view(cls, mass: np.ndarray, key: np.ndarray, offsets: np.ndarray) -> "MassIndex":
        """A table over existing columns (a store's mapped or streamed
        rows), decoded against ``offsets``; nothing is copied."""
        index = cls.__new__(cls)
        index.mass, index.key, index.offsets = mass, key, offsets
        index.reach = np.inf
        return index

    def __len__(self) -> int:
        return len(self.mass)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the two columns (the shard is not counted)."""
        return int(self.mass.nbytes + self.key.nbytes)

    def spans(self, rows: np.ndarray) -> CandidateSpans:
        """The spans of ``rows`` (row ids), decoded from their keys."""
        key = self.key[rows]
        suffix = key < 0
        pos = np.where(suffix, ~key, key)
        seq = np.searchsorted(self.offsets, pos, side="right") - 1
        first = self.offsets[seq]
        local = pos - first
        return CandidateSpans(
            seq,
            np.where(suffix, local, 0),
            np.where(suffix, self.offsets[seq + 1] - first, local + 1),
            self.mass[rows],
            np.zeros(len(key)),
        )

    def lengths(self, rows, residue_seq: Optional[np.ndarray] = None) -> np.ndarray:
        """The span lengths of ``rows`` (row ids or a slice): what
        :meth:`spans` decodes, without the other four columns.
        ``residue_seq``, each flat residue's sequence index, replaces the
        search of the offsets with a lookup, for a caller decoding
        every row of a table."""
        key = self.key[rows]
        suffix = key < 0
        pos = np.where(suffix, ~key, key)
        if residue_seq is None:
            seq = np.searchsorted(self.offsets, pos, side="right") - 1
        else:
            seq = residue_seq[pos]
        return np.where(suffix, self.offsets[seq + 1] - pos, pos + 1 - self.offsets[seq])

    # -- windows ---------------------------------------------------------

    def _check_reach(self, highs) -> None:
        """Refuse windows reaching above the table's reach."""
        if self.reach < np.inf and np.max(highs, initial=-np.inf) > self.reach:
            raise ConfigError(
                f"a window up to {float(np.max(highs))!r} Da lies above this row "
                f"table's reach ({self.reach!r} Da), whose heavier rows are not "
                f"built: build the searcher for its heaviest query"
            )

    def windows_many(self, lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per query, the row range ``[lo, hi)`` whose masses lie in
        ``[low, high]``: two vectorized binary searches.  A window above
        the reach raises :class:`~repro.errors.ConfigError`."""
        self._check_reach(highs)
        return (
            np.searchsorted(self.mass, lows, side="left"),
            np.searchsorted(self.mass, highs, side="right"),
        )

    def count_many(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Candidates with mass in each ``[low, high]``, exactly."""
        lo, hi = self.windows_many(lows, highs)
        return np.maximum(hi - lo, 0).astype(np.int64)

    def count_in_window(self, lo: float, hi: float) -> int:
        """Distinct prefix/suffix candidates with mass in ``[lo, hi]``."""
        return int(self.count_many(np.array([lo]), np.array([hi]))[0])

    def sweep_spans(self, lo, hi) -> Tuple[CandidateSpans, np.ndarray]:
        """Materialize the rows ``[lo, hi)``: ``(spans, rows)``.

        ``lo`` and ``hi`` may be equal-length arrays, one row range per
        run of a packed scoring block: the block then lists every range,
        run by run, and no row between two runs is decoded.  ``rows`` are
        the row ids of ``spans``, in order.
        """
        if np.ndim(lo) == 0:  # one range (ints or NumPy scalars)
            rows = np.arange(int(lo), max(int(lo), int(hi)), dtype=ROW_ID_DTYPE)
        else:
            rows = _ragged_arange(lo, np.maximum(hi - lo, 0))
        return self.spans(rows), rows

    def candidates_in_window(self, lo: float, hi: float) -> CandidateSpans:
        """All candidates with mass in ``[lo, hi]``, ascending by mass.

        Empty windows return without decoding any row; a window above
        the reach raises :class:`~repro.errors.ConfigError`.
        """
        self._check_reach(hi)
        r0 = int(np.searchsorted(self.mass, lo, side="left"))
        r1 = int(np.searchsorted(self.mass, hi, side="right"))
        if r1 <= r0:
            return CandidateSpans.empty()
        return self.sweep_spans(r0, r1)[0]


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
    the unit of candidate enumeration, its union window one contiguous
    row range decoded once.  A *block* is consecutive runs packed up to
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
