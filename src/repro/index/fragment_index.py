"""Resident fragment-ion index over a database's mass-sorted row table.

The scoring hot path regenerates theoretical fragment arrays for every
(query, candidate) pair, even though a database's candidate spans — and
therefore their fragment m/z values — never change.  Following the
HiCOPS observation that a precomputed fragment-ion index amortized over
all queries is the decisive optimization for large-scale MS search, this
module lays the database's spans out *once* as a row table, generates
every fragment m/z with the existing batched kernels, and stores one
structure: **a CSR-style posting list** — all fragments sorted by
``(m/z bin, candidate row)``, with a direct bin -> offset table, so
"which candidates explain this observed peak" is a vectorized bisection
restricted to the query's candidate-row range.  There is one list: every
b and y ion of a row, each tagged with its series.  Shared-peak counting
ignores the tag; the hyperscore's per-series intensities read it.

That is all the index is.  A scorer is index-served iff it defines
``score_index_block`` (shared_peaks, hyperscore: their scores are
functions of which peaks match which candidates, exactly what a posting
probe returns).  Scorers that need a candidate's whole model spectrum
(xcorr, the likelihood models, hypergeometric) are scored directly from
the database: regenerating a row costs no more than fetching a cached
one, and caching them doubled the index.

Rows are *precursor-major*: the row table is every prefix and suffix
span of the database sorted by mass
(:class:`~repro.candidates.mass_index.MassIndex`, the table every store
holds and a partitioned store's partitions cut), so a query's candidate
set is one contiguous row range and posting probes never touch
candidates outside the query's mass window.  A posting's ``*_row`` is a
row id, a position in that table: one row id means one mass-sorted
span, whose ``row_key`` names it (decoded against the database offsets
like every other row: :meth:`~repro.candidates.mass_index.MassIndex.spans`).

Builder/view split
------------------
Construction and consumption are separate types:

* :class:`IndexBuilder` is pure construction: it turns a database into
  a :class:`BuiltIndex` — an :class:`~repro.index.layout.IndexLayout`
  descriptor plus a dict of named, contiguous flat arrays (the two row
  columns and the postings).  Nothing in the built state is an object
  graph, which is what makes zero-copy persistence possible (see
  :mod:`repro.store`).
* :class:`FragmentIndex` is a *read-only view* wired over such arrays.
  It is agnostic to their backing: the heap arrays a fresh build
  produces (``IndexBuilder(...).build(db).view()``) and the
  ``np.memmap`` arrays ``StoredIndex.load_shard`` maps serve
  bit-for-bit identical scores.

Exactness contract
------------------
Every posting m/z is produced by the same batched kernels the direct
:class:`~repro.candidates.batch.CandidateBatch` path runs per block,
and every probe evaluates the same match predicate
(``p - tol <= f <= p + tol`` on identically-computed floats), so
index-served scores are bitwise identical to ``block_scores`` — the
property tests in ``tests/property/test_prop_index.py`` and
``tests/property/test_prop_persist.py`` enforce it for heap- and
memmap-backed views alike.

Coverage is bounded: only rows with ``2 <= length <= max_length`` (the
*envelope*) post fragments (posting *all* prefixes and suffixes is
O(sum of squared sequence lengths) memory).  Every row is in the table
all the same; :meth:`FragmentIndex.holds` says which rows the postings
cover, and the store searcher scores the others directly and merges the
two score streams in row order, so hits are identical with or without
an index by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.candidates.mass_index import MassIndex
from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.index.layout import (
    POSTING_OFFSET_DTYPE,
    POSTING_ROW_DTYPE,
    ROW_ARRAYS,
    ArraySpec,
    IndexLayout,
    check_row_ids,
)
from repro.spectra.binning import _ragged_arange, group_by_key, row_segment_sums, stable_sort
from repro.spectra.theoretical import by_ion_rows

#: series codes stored in the posting list
_SERIES_CODE = {"b": 0, "y": 1}


def _in_envelope(lengths: np.ndarray, max_length: int) -> np.ndarray:
    """Which spans of these lengths an index of ``max_length`` posts."""
    return (lengths >= 2) & (lengths <= max_length)


def _bisect_segments(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Vectorized left-bisection of ``targets[i]`` within ``values[lo[i]:hi[i]]``.

    Equivalent to ``lo[i] + np.searchsorted(values[lo[i]:hi[i]], targets[i],
    side="left")`` for each ``i``, but all bisections advance in lockstep —
    ``O(log(max segment))`` numpy passes instead of one Python-level
    ``searchsorted`` per segment, and each pass touches a short segment
    rather than the full ``values`` array.
    """
    lo = lo.copy()
    hi = hi.copy()
    if not len(lo):
        return lo
    # branchless lockstep for exactly ceil(log2(max segment + 1)) rounds:
    # finished lanes keep lo == hi (their mid gather is clamped and the
    # update masked out), which benchmarks ~2x faster than compacting
    # the active set each round.
    for _ in range(int(int((hi - lo).max()).bit_length())):
        active = lo < hi
        mid = (lo + hi) >> 1
        less = active & (values.take(mid, mode="clip") < targets)
        lo = np.where(less, mid + 1, lo)
        hi = np.where(active & ~less, mid, hi)
    return lo


@dataclass(frozen=True)
class _PostingList:
    """Fragments sorted by ``(m/z bin, candidate row)``.

    Keeping each bin's postings ordered by candidate row makes
    restricting a probe to the query's row range ``[r0, r1)`` one pair
    of bisections inside the bin's run instead of a post-hoc filter over
    every posting near the peak.
    """

    mz: np.ndarray  # float64 fragment m/z
    row: np.ndarray  # row id (int32) of the candidate, aligned to mz
    series: np.ndarray  # uint8 series code (_SERIES_CODE), aligned to mz
    #: direct bin → posting-offset table: postings of bin ``b`` occupy
    #: ``[bin_start[b], bin_start[b + 1])``, ``row`` ascending within.
    #: Cohort-scale probes bisect only each bin's own row run
    #: (:func:`_bisect_segments`).
    bin_start: np.ndarray


#: fragments a posting build handles at once.  The list's fragments —
#: the envelope rows in ascending row id, each row's b ions then its y
#: ions — are walked in runs of this many, each run generated, counted,
#: then generated again, sorted and placed on its own
#: (:meth:`IndexBuilder._postings`); a run's transients, ~70 B a
#: fragment, are what the build holds beyond the arrays it writes.
BUILD_CHUNK_FRAGMENTS = 1 << 17


@dataclass(frozen=True)
class _Envelope:
    """The rows a build posts: their row ids (ascending), span lengths,
    each span's first flat residue, and ``ends``, the running count of
    their fragments — the list posts ``2 (L - 1)`` a row, row ``i``'s
    at ``[ends[i] - 2 (L_i - 1), ends[i])`` of the list's walk."""

    rows: np.ndarray
    lengths: np.ndarray
    first: np.ndarray
    ends: np.ndarray

    @classmethod
    def of(cls, table: MassIndex, max_length: int) -> "_Envelope":
        """Decode ``table``'s lengths a run of rows at a time, through a
        residue -> sequence lookup, and the spans of the envelope rows
        alone."""
        sizes = np.diff(table.offsets)
        residue_seq = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        held = [np.empty(0, dtype=np.int64)]
        for lo in range(0, len(table), BUILD_CHUNK_FRAGMENTS):
            lengths = table.lengths(slice(lo, lo + BUILD_CHUNK_FRAGMENTS), residue_seq)
            held.append(np.flatnonzero(_in_envelope(lengths, max_length)) + lo)
        del residue_seq
        rows = np.concatenate(held)
        spans = table.spans(rows)
        lengths = spans.lengths
        first = table.offsets[spans.seq_index] + spans.start
        return cls(rows, lengths, first, np.cumsum(2 * (lengths - 1)))

    @property
    def num_fragments(self) -> int:
        """Fragments the list posts."""
        return int(self.ends[-1]) if len(self.ends) else 0


@dataclass
class BuiltIndex:
    """A database's freshly built index state: layout + named flat arrays.

    ``arrays`` are the row table and the postings; the database whose
    spans the rows name rides beside them (a store writes it to its
    ``database/`` section), and ``offsets`` are its offsets, which the
    row keys decode against.  ``view()`` wires a read-only
    :class:`FragmentIndex` over the arrays.
    """

    layout: IndexLayout
    arrays: Dict[str, np.ndarray]
    offsets: np.ndarray

    def view(self) -> "FragmentIndex":
        return FragmentIndex(self.layout, self.arrays, self.offsets)


class IndexBuilder:
    """Pure construction: a database in, flat arrays out.

    Holds only build parameters; :meth:`build` has no side effects on
    the builder, so one builder can be reused across databases.
    """

    def __init__(
        self,
        *,
        fragment_tolerance: float = 0.5,
        max_length: int = 48,
        monoisotopic: bool = True,
    ):
        if not fragment_tolerance > 0:  # NaN included
            raise ValueError(
                f"fragment_tolerance must be > 0, got {fragment_tolerance}"
            )
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        self.fragment_tolerance = float(fragment_tolerance)
        self.max_length = int(max_length)
        self.monoisotopic = bool(monoisotopic)
        # Bin width covers a full tolerance window so a probe at build
        # tolerance spans at most two bins; probes at other tolerances
        # remain exact (they scan however many bins the window covers).
        self.bin_width = max(2.0 * self.fragment_tolerance, 0.25)

    def build(self, db: ProteinDatabase, table: Optional[MassIndex] = None) -> BuiltIndex:
        """Lay ``db`` out as its mass-sorted row table and post the
        fragments of every row inside the envelope.  ``table`` is that
        table when the caller already holds it (a store writes it first)."""
        # Precursor-major row order: a query window maps to one contiguous
        # row range, which the posting-probe row restriction relies on.
        if table is None:
            table = MassIndex(db)
        check_row_ids(len(table))
        arrays = {
            name: np.ascontiguousarray(col, dtype=dtype)
            for (name, dtype), col in zip(ROW_ARRAYS.items(), (table.mass, table.key))
        }
        envelope = _Envelope.of(table, self.max_length)
        arrays["series_mz"], arrays["series_row"], arrays["series_tag"], arrays["series_bin_start"] = (
            self._postings(db, envelope)
        )
        layout = IndexLayout(
            num_rows=len(table),
            max_length=self.max_length,
            bin_width=self.bin_width,
            num_fragments=envelope.num_fragments,
            fragment_tolerance=self.fragment_tolerance,
            monoisotopic=self.monoisotopic,
            arrays={
                name: ArraySpec(str(a.dtype), tuple(a.shape))
                for name, a in arrays.items()
            },
        )
        return BuiltIndex(layout=layout, arrays=arrays, offsets=db.offsets)

    def _run(self, db: ProteinDatabase, envelope: _Envelope, lo: int, hi: int):
        """Fragments ``[lo, hi)`` of the list's walk: ``(i0, i1, groups)``
        with ``[i0, i1)`` the envelope rows they come from and, per length
        group of those rows, ``(local, mz, head, stop)``: ``mz`` the
        ``(rows, 2 (L - 1))`` matrix of the group's b ions then y ions
        (:func:`~repro.spectra.theoretical.by_ion_rows`), ``local`` its
        rows' positions from ``i0`` and ``mz.ravel()[head:stop]`` their
        fragments in the run (a run may cut its first and its last row;
        each is the first or the last of its group)."""
        ends = envelope.ends
        i0 = int(np.searchsorted(ends, lo, side="right"))
        i1 = int(np.searchsorted(ends, hi, side="left")) + 1
        head = lo - int(ends[i0]) + 2 * (int(envelope.lengths[i0]) - 1)
        tail = int(ends[i1 - 1]) - hi
        residue_mass = mass_table(self.monoisotopic)
        order, runs = group_by_key(envelope.lengths[i0:i1], self.max_length + 1)
        groups = []
        for length, a, b in runs:
            local = order[a:b]
            first = envelope.first[i0 + local]
            mz = by_ion_rows(residue_mass[db.residues[first[:, None] + np.arange(length)]])
            mz = mz.reshape(len(local), 2 * (length - 1))
            stop = mz.size - (tail if local[-1] == i1 - i0 - 1 else 0)
            groups.append((local, mz, head if local[0] == 0 else 0, stop))
        return i0, i1, groups

    def _postings(self, db: ProteinDatabase, envelope: _Envelope):
        """The posting list, ``(mz, row, tag, bin_start)``, in the order
        one stable sort of the walk by ``(bin, row)`` gives.

        The list's walk is generated a run at a time and each bin
        counted: that is ``bin_start``.  Then each run is generated
        again — bitwise the run counted — and sorted on its own, by
        ``(bin * stride + row) * 2 + tag`` (a row's b ions precede its y
        ions), and scattered to ``bin_start[b]`` + the bin's postings in
        earlier runs + its rank in the run.  A bin's postings come out
        run by run, rows ascending within each, and every row of a run
        precedes (or, cut, goes on into) the next run's: the global
        order.  No run's m/z outlives its own pass.
        """
        total = envelope.num_fragments
        runs = [
            (lo, min(lo + BUILD_CHUNK_FRAGMENTS, total))
            for lo in range(0, total, BUILD_CHUNK_FRAGMENTS)
        ]
        counts = np.zeros(0, dtype=POSTING_OFFSET_DTYPE)
        for lo, hi in runs:
            for _local, mz, head, stop in self._run(db, envelope, lo, hi)[2]:
                run = np.bincount((mz.ravel()[head:stop] / self.bin_width).astype(np.int64))
                if len(run) > len(counts):
                    counts = np.concatenate((counts, np.zeros(len(run) - len(counts), counts.dtype)))
                counts[: len(run)] += run
        bin_start = np.zeros(len(counts) + 1, dtype=POSTING_OFFSET_DTYPE)
        np.cumsum(counts, out=bin_start[1:])
        out_mz = np.empty(total)
        out_row = np.empty(total, dtype=POSTING_ROW_DTYPE)
        out_tag = np.empty(total, dtype=np.uint8)
        row_ids = envelope.rows.astype(POSTING_ROW_DTYPE)
        placed = bin_start[:-1].copy()  # where each bin's next posting goes
        for lo, hi in runs:
            i0, i1, groups = self._run(db, envelope, lo, hi)
            stride = i1 - i0
            keys, mzs = [], []
            for local, mz, head, stop in groups:
                key = (mz / self.bin_width).astype(np.int64)
                key *= stride
                key += local[:, None]
                key <<= 1  # the series code in the low bit
                key[:, key.shape[1] // 2 :] |= _SERIES_CODE["y"]
                keys.append(key.ravel()[head:stop])
                mzs.append(mz.ravel()[head:stop])
            del groups
            key, order = stable_sort(np.concatenate(keys))
            del keys
            tag = (key & 1).astype(np.uint8)
            key >>= 1
            bins = key // stride
            key -= bins * stride  # what remains of a key is its row's position from i0
            run = np.bincount(bins, minlength=len(placed))
            pos = (placed - (np.cumsum(run) - run))[bins]
            pos += np.arange(len(pos))
            out_mz[pos] = np.concatenate(mzs)[order]
            out_row[pos] = row_ids[key + i0]
            out_tag[pos] = tag
            placed += run
        return out_mz, out_row, out_tag, bin_start


class FragmentIndex:
    """Read-only view over a database's flat index arrays.

    Never builds: the constructor wires a view over existing arrays,
    heap (``IndexBuilder(...).build(db).view()``) or memmap (a
    ``repro.store`` directory).  ``rows`` is the row table, a
    :class:`~repro.candidates.mass_index.MassIndex` over the ``row_mass``
    and ``row_key`` arrays, decoded against ``offsets``: those of the
    database it was built from.
    """

    def __init__(self, layout: IndexLayout, arrays: Dict[str, np.ndarray], offsets: np.ndarray):
        self.layout = layout
        self.arrays = arrays
        self.num_rows = layout.num_rows
        self.max_length = layout.max_length
        self.bin_width = layout.bin_width
        self.num_fragments = layout.num_fragments
        self.rows = MassIndex.view(arrays["row_mass"], arrays["row_key"], offsets)
        self._postings = _PostingList(
            arrays["series_mz"],
            arrays["series_row"],
            arrays["series_tag"],
            arrays["series_bin_start"],
        )

    @property
    def nbytes(self) -> int:
        """Index memory footprint (row table + posting list); the
        database is charged separately by whoever holds it."""
        return int(self.layout.nbytes)

    def holds(self, rows: np.ndarray) -> np.ndarray:
        """Which of the table's ``rows`` the postings cover: those inside
        the ``[2, max_length]`` length envelope.  The others are scored
        directly."""
        return _in_envelope(self.rows.lengths(rows), self.max_length)

    # -- posting probes (shared_peaks / hyperscore) ----------------------

    def _probe_range(
        self,
        peaks_mz: np.ndarray,
        tolerance: float,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact fragment matches, each peak against its own row range.

        The binning/bisection core of the flat cohort probe.  Returns
        ``(row, peak_idx, series)`` with *global* index rows, one entry
        per matching *posting* (a candidate appears once per matching
        fragment); the match predicate is the scalar one:
        ``peak - tol <= fragment <= peak + tol``.

        ``row_lo``/``row_hi`` bound the rows *per peak* (half-open): the
        cohort probe passes each peak's own member row range so a wide
        cohort union does not multiply the raw match volume by the
        cohort size.  Matches outside a member's row *set* but inside
        its range are still produced and are removed by the caller's
        selection tables.
        """
        postings = self._postings
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint8),
        )
        pmin = peaks_mz - tolerance
        pmax = peaks_mz + tolerance
        b0 = np.maximum(np.floor(pmin / self.bin_width).astype(np.int64), 0)
        b1 = np.floor(pmax / self.bin_width).astype(np.int64)
        # Through the direct bin -> offset table: bin b's postings are
        # ``[bin_start[b], bin_start[b + 1])`` with row ascending, so a
        # peak's rows in that bin are a bisection of its
        # row range in that run; bins past the table's end hold no
        # postings and contribute nothing.
        bin_start = postings.bin_start
        num_bins = len(bin_start) - 1
        counts = b1 - b0 + 1  # b1 >= b0 always: pmax > 0 and b0 clipped at 0
        all_bins = _ragged_arange(b0, counts)
        owners = np.repeat(np.arange(len(peaks_mz), dtype=np.int64), counts)
        valid = all_bins < num_bins
        if not valid.all():
            all_bins = all_bins[valid]
            owners = owners[valid]
        if len(all_bins) == 0:
            return empty
        seg_lo = bin_start[all_bins]
        seg_hi = bin_start[all_bins + 1]
        m = len(all_bins)
        pos = _bisect_segments(
            postings.row,
            np.concatenate((seg_lo, seg_lo)),
            np.concatenate((seg_hi, seg_hi)),
            np.concatenate((row_lo[owners], row_hi[owners])),
        )
        lens = pos[m:] - pos[:m]
        flat = _ragged_arange(pos[:m], lens)
        if len(flat) == 0:
            return empty
        owner = np.repeat(owners, lens)
        mz = postings.mz[flat]
        keep = (mz >= pmin[owner]) & (mz <= pmax[owner])
        flat = flat[keep]
        owner = owner[keep]
        return postings.row[flat], owner, postings.series[flat]

    # -- cohort (block) probes -------------------------------------------
    #
    # The candidate-major sweep probes the posting list once per query
    # cohort: all member peaks in one flat pass, results then split per
    # member.  Each member's (row, peak) match set is the one a probe of
    # that member alone produces — the probe predicate is per-(peak,
    # fragment) and each member has its own selection table — so the
    # counts and (via row-wise segment sums over bitwise-equal gathered
    # values) intensity sums do not depend on who shares the cohort.

    def _probe_flat(
        self, batch, tolerance: float, row_sets
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All exact matches of a cohort's peaks against its row sets.

        ``batch`` is a :class:`~repro.spectra.spectrum_batch.SpectrumBatch`
        and ``row_sets[k]`` the index rows member ``k`` may match.
        Returns ``(member, out_pos, peak_flat, series)`` per matching
        posting: ``out_pos`` indexes into ``row_sets[member]`` and
        ``peak_flat`` into the batch's flat peak arrays.
        """
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint8),
        )
        sizes = np.fromiter((len(r) for r in row_sets), dtype=np.int64, count=len(row_sets))
        if sizes.sum() == 0 or batch.num_peaks == 0 or len(self._postings.mz) == 0:
            return empty
        # One selection table per member over its own row range, laid end
        # to end: a block packs members whose windows need not overlap, so
        # a dense (member x union range) table would grow with the gaps
        # between them.  Each member's range is a min/max reduction over
        # its segment of the concatenated row sets, and the table is
        # filled with one scatter, member by member in row-set order.
        all_rows = np.concatenate(row_sets).astype(np.int64, copy=False)
        first = np.cumsum(sizes) - sizes
        held = sizes > 0
        member_lo = np.zeros(len(row_sets), dtype=np.int64)
        member_hi = np.zeros(len(row_sets), dtype=np.int64)
        member_lo[held] = np.minimum.reduceat(all_rows, first[held])
        member_hi[held] = np.maximum.reduceat(all_rows, first[held]) + 1
        sel_base = np.concatenate(([0], np.cumsum(member_hi - member_lo)))
        sel = np.full(int(sel_base[-1]), -1, dtype=np.int64)
        owner = np.repeat(np.arange(len(row_sets), dtype=np.int64), sizes)
        sel[all_rows + (sel_base[:-1] - member_lo)[owner]] = np.arange(
            len(all_rows), dtype=np.int64
        ) - first[owner]

        # each peak probes only its own member's row range: the cohort
        # union would multiply raw matches by the cohort size, all of
        # them discarded by the sel filter below
        npk = np.diff(batch.offsets)
        row_g, peak_flat, series = self._probe_range(
            batch.mz,
            tolerance,
            np.repeat(member_lo, npk),
            np.repeat(member_hi, npk),
        )
        if len(row_g) == 0:
            return empty
        member = np.searchsorted(batch.offsets, peak_flat, side="right") - 1
        # the probe kept each peak inside its member's row range
        out_pos = sel[sel_base[member] + (row_g - member_lo[member])]
        hit = out_pos >= 0
        return member[hit], out_pos[hit], peak_flat[hit], series[hit]

    def _split_pairs(
        self, member, out_pos, peak_flat, batch, sizes
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dedup (member, row, peak) matches into sorted distinct pairs.

        Encodes each match as ``pair_base[member] + out_pos * npk[member]
        + local_peak`` — spectrum-major, then row, then peak — so one
        ``np.unique`` yields, member by member, that member's sorted
        distinct pairs.  Returns
        ``(pair_member, pair_row, pair_peak, pair_base, npk)`` with
        ``pair_peak`` member-local.
        """
        npk = np.diff(batch.offsets)
        pair_base = np.concatenate(([0], np.cumsum(sizes * npk)))
        local_peak = peak_flat - batch.offsets[member]
        key = np.unique(pair_base[member] + out_pos * npk[member] + local_peak)
        pair_member = np.searchsorted(pair_base, key, side="right") - 1
        rem = key - pair_base[pair_member]
        return (
            pair_member,
            rem // npk[pair_member],
            rem % npk[pair_member],
            pair_base,
            npk,
        )

    def shared_peak_counts_block(self, batch, tolerance: float, row_sets) -> np.ndarray:
        """Distinct observed peaks matched by each row's b+y ladder.

        One flat probe for the cohort, series tags ignored; returns one
        member-major count vector (``row_sets[0]``'s rows, then
        ``row_sets[1]``'s, ...).  A row's postings are its ladder's
        fragments bit for bit (the ladder is its sorted b and y ions,
        :func:`~repro.spectra.theoretical.by_ion_ladders`), so this
        equals :func:`~repro.spectra.binning.count_matches_pairs` over
        the same candidates' ladder rows: both count the union of
        per-fragment matched-peak sets under the same predicate.
        """
        sizes = np.fromiter((len(r) for r in row_sets), dtype=np.int64, count=len(row_sets))
        row_base = np.concatenate(([0], np.cumsum(sizes)))
        total_rows = int(row_base[-1])
        member, out_pos, peak_flat, _series = self._probe_flat(batch, tolerance, row_sets)
        if len(member) == 0:
            return np.zeros(total_rows, dtype=np.int64)
        pair_member, pair_row, _pk, _base, _npk = self._split_pairs(
            member, out_pos, peak_flat, batch, sizes
        )
        return np.bincount(row_base[pair_member] + pair_row, minlength=total_rows)

    def matched_intensity_block(self, batch, tolerance: float, row_sets):
        """Per-row matched-peak counts and intensity sums, b and y series.

        Returns member-major ``(nb, b_int, ny, y_int)`` vectors.  Both
        series come out of a single posting probe; each series' intensity
        sums run through one cohort-wide :func:`row_segment_sums` whose
        per-row gathered values equal the member's own peaks bit for bit.
        """
        sizes = np.fromiter((len(r) for r in row_sets), dtype=np.int64, count=len(row_sets))
        row_base = np.concatenate(([0], np.cumsum(sizes)))
        total_rows = int(row_base[-1])
        member, out_pos, peak_flat, tags = self._probe_flat(batch, tolerance, row_sets)
        out = []
        for code in (_SERIES_CODE["b"], _SERIES_CODE["y"]):
            wanted = tags == code if len(member) else np.empty(0, dtype=bool)
            if not np.any(wanted):
                counts = np.zeros(total_rows, dtype=np.int64)
                sums = np.zeros(total_rows, dtype=np.float64)
            else:
                pair_member, pair_row, pair_peak, _base, _npk = self._split_pairs(
                    member[wanted], out_pos[wanted], peak_flat[wanted], batch, sizes
                )
                grow = row_base[pair_member] + pair_row
                counts = np.bincount(grow, minlength=total_rows).astype(np.int64)
                row_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
                flat_peak = (batch.offsets[pair_member] + pair_peak).astype(np.int64)
                sums = row_segment_sums(batch.intensity, flat_peak, row_offsets)
            out += [counts, sums]
        return tuple(out)

    @staticmethod
    def serves(scorer) -> bool:
        """Whether ``scorer`` is index-served: it defines the posting
        kernel :meth:`score_block` calls.  Any other scorer is scored
        directly from the database, with or without an index at hand."""
        return hasattr(scorer, "score_index_block")

    def score_block(self, scorer, spectra, row_sets) -> np.ndarray:
        """Index-served cohort scoring: one flat posting probe per block.

        Returns one member-major score vector, bitwise identical to
        scoring the same candidates directly (``block_scores``).
        """
        return scorer.score_index_block(spectra, self, row_sets)
