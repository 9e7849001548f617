"""Resident fragment-ion index over a database's mass-sorted row table.

The scoring hot path regenerates theoretical fragment arrays for every
(query, candidate) pair, even though a database's candidate spans — and
therefore their fragment m/z values — never change.  Following the
HiCOPS observation that a precomputed fragment-ion index amortized over
all queries is the decisive optimization for large-scale MS search, this
module lays the database's spans out *once* as a row table, generates
every fragment m/z with the existing batched kernels, and stores one
structure: **CSR-style posting lists** — all fragments sorted by
``(m/z bin, candidate row)``, with a direct bin -> offset table, so
"which candidates explain this observed peak" is a vectorized bisection
restricted to the query's candidate-row range.  There are two lists: the
b+y ladder (shared-peak counting) and the series-tagged b / y fragments
(per-series matched intensity).

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

from repro.candidates.mass_index import CandidateSpans, MassIndex
from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.index.layout import (
    POSTING_OFFSET_DTYPE,
    ROW_ARRAYS,
    ROW_ID_DTYPE,
    ArraySpec,
    IndexLayout,
)
from repro.spectra.binning import _ragged_arange, group_by_key, row_segment_sums, stable_sort
from repro.spectra.theoretical import IonSeries, by_ion_ladder_rows, fragment_mz_rows

#: series codes stored in the b/y posting list
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
    row: np.ndarray  # row id (int64) of the candidate, aligned to mz
    series: Optional[np.ndarray]  # uint8 series code, or None (ladder list)
    #: direct bin → posting-offset table: postings of bin ``b`` occupy
    #: ``[bin_start[b], bin_start[b + 1])``, ``row`` ascending within.
    #: Cohort-scale probes bisect only each bin's own row run
    #: (:func:`_bisect_segments`).
    bin_start: np.ndarray


def _build_postings(
    parts, bin_width: float, num_rows: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Flatten (matrix, rows, series) parts into sorted posting arrays.

    Returns ``(mz, row, series, bin_start)``; ``series`` is None for the
    untagged ladder list.  One stable sort of the combined
    ``bin * (num_rows + 1) + row`` key orders them
    (:func:`~repro.spectra.binning.stable_sort`, a SIMD sort of unique
    composite keys, not timsort); bins and rows decode from the sorted
    keys, and ``bin_start`` is the running count of postings per bin.
    """
    parts = [(m, r, s) for m, r, s in parts if m.size]
    if not parts:
        empty = np.empty(0, dtype=ROW_ID_DTYPE)
        return np.empty(0), empty, None, np.zeros(1, dtype=POSTING_OFFSET_DTYPE)
    mz = np.concatenate([m.ravel() for m, _r, _s in parts])
    row = np.concatenate([np.repeat(r, m.shape[1]) for m, r, _s in parts])
    tagged = parts[0][2] is not None
    series = (
        np.concatenate([np.full(m.size, s, dtype=np.uint8) for m, _r, s in parts])
        if tagged
        else None
    )
    stride = num_rows + 1
    key = (mz / bin_width).astype(np.int64)
    key *= stride
    key += row
    del row
    key, order = stable_sort(key)
    bins = key // stride
    key -= bins * stride  # what remains of a key is its row
    row = key
    bin_start = np.zeros(int(bins[-1]) + 2, dtype=POSTING_OFFSET_DTYPE)
    np.cumsum(np.bincount(bins), out=bin_start[1:])
    return (
        mz[order],
        row.astype(ROW_ID_DTYPE, copy=False),
        series[order] if series is not None else None,
        bin_start,
    )


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
        if fragment_tolerance <= 0:
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
        arrays = {
            name: np.ascontiguousarray(col, dtype=dtype)
            for (name, dtype), col in zip(ROW_ARRAYS.items(), (table.mass, table.key))
        }
        spans = table.spans(np.arange(len(table)))
        postings, num_fragments = self._posting_arrays(
            db, spans, np.nonzero(_in_envelope(spans.lengths, self.max_length))[0]
        )
        arrays.update(postings)
        layout = IndexLayout(
            num_rows=len(table),
            max_length=self.max_length,
            bin_width=self.bin_width,
            num_fragments=num_fragments,
            fragment_tolerance=self.fragment_tolerance,
            monoisotopic=self.monoisotopic,
            arrays={
                name: ArraySpec(str(a.dtype), tuple(a.shape))
                for name, a in arrays.items()
            },
        )
        return BuiltIndex(layout=layout, arrays=arrays, offsets=db.offsets)

    def _posting_arrays(
        self, db: ProteinDatabase, spans: CandidateSpans, held: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], int]:
        """Both posting lists for the rows ``held`` of a row table
        (``spans``, decoded whole): per-length fragment matrices generated with the same batched
        kernels the direct scoring path runs per block, sorted into
        posting lists keyed on row ids.  The matrices themselves are not
        kept.
        """
        num_rows = len(spans)
        lengths = spans.lengths[held]
        table = mass_table(self.monoisotopic)
        abs_start = db.offsets[spans.seq_index[held]] + spans.start[held]
        ladder_parts = []
        series_parts = []
        by_length, runs = group_by_key(lengths, self.max_length + 1)
        for length, a, b in runs:
            of_length = by_length[a:b]
            rows = held[of_length]
            mass_rows = table[db.residues[abs_start[of_length][:, None] + np.arange(length)]]
            ladder_parts.append((by_ion_ladder_rows(mass_rows), rows, None))
            for series in (IonSeries.B, IonSeries.Y):
                series_parts.append(
                    (fragment_mz_rows(mass_rows, series), rows, _SERIES_CODE[series.value])
                )
        lad_mz, lad_row, _untagged, lad_bin_start = _build_postings(
            ladder_parts, self.bin_width, num_rows
        )
        ser_mz, ser_row, ser_tag, ser_bin_start = _build_postings(
            series_parts, self.bin_width, num_rows
        )
        if ser_tag is None:  # empty shard: keep the tag column materialized
            ser_tag = np.empty(0, dtype=np.uint8)
        arrays: Dict[str, np.ndarray] = {
            "ladder_mz": lad_mz,
            "ladder_row": lad_row,
            "ladder_bin_start": lad_bin_start,
            "series_mz": ser_mz,
            "series_row": ser_row,
            "series_tag": ser_tag,
            "series_bin_start": ser_bin_start,
        }
        return arrays, len(lad_mz) + len(ser_mz)


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
        self._ladder_postings = _PostingList(
            arrays["ladder_mz"],
            arrays["ladder_row"],
            None,
            arrays["ladder_bin_start"],
        )
        self._series_postings = _PostingList(
            arrays["series_mz"],
            arrays["series_row"],
            arrays["series_tag"],
            arrays["series_bin_start"],
        )

    @property
    def nbytes(self) -> int:
        """Index memory footprint (row table + posting lists); the
        database is charged separately by whoever holds it."""
        return int(self.layout.nbytes)

    def holds(self, rows: np.ndarray) -> np.ndarray:
        """Which of the table's ``rows`` the postings cover: those inside
        the ``[2, max_length]`` length envelope.  The others are scored
        directly."""
        return _in_envelope(self.rows.spans(rows).lengths, self.max_length)

    # -- posting probes (shared_peaks / hyperscore) ----------------------

    def _probe_range(
        self,
        postings: _PostingList,
        peaks_mz: np.ndarray,
        tolerance: float,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
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
        none_series = postings.series is not None
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint8) if none_series else None,
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
        return (
            postings.row[flat],
            owner,
            postings.series[flat] if none_series else None,
        )

    # -- cohort (block) probes -------------------------------------------
    #
    # The candidate-major sweep probes the posting lists once per query
    # cohort: all member peaks in one flat pass, results then split per
    # member.  Each member's (row, peak) match set is the one a probe of
    # that member alone produces — the probe predicate is per-(peak,
    # fragment) and each member has its own selection table — so the
    # counts and (via row-wise segment sums over bitwise-equal gathered
    # values) intensity sums do not depend on who shares the cohort.

    def _probe_flat(
        self,
        postings: _PostingList,
        batch,
        tolerance: float,
        row_sets,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """All exact matches of a cohort's peaks against its row sets.

        ``batch`` is a :class:`~repro.spectra.spectrum_batch.SpectrumBatch`
        and ``row_sets[k]`` the index rows member ``k`` may match.
        Returns ``(member, out_pos, peak_flat, series)`` per matching
        posting: ``out_pos`` indexes into ``row_sets[member]`` and
        ``peak_flat`` into the batch's flat peak arrays.
        """
        none_series = postings.series is not None
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.uint8) if none_series else None,
        )
        sizes = np.fromiter((len(r) for r in row_sets), dtype=np.int64, count=len(row_sets))
        if sizes.sum() == 0 or batch.num_peaks == 0 or len(postings.mz) == 0:
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
            postings,
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
        return (
            member[hit],
            out_pos[hit],
            peak_flat[hit],
            series[hit] if none_series else None,
        )

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

        One flat probe for the cohort; returns one member-major count
        vector (``row_sets[0]``'s rows, then ``row_sets[1]``'s, ...).
        Equals :func:`~repro.spectra.binning.count_matches_pairs` over
        the same candidates' ladder rows: both count the union of
        per-fragment matched-peak sets under the same predicate.
        """
        sizes = np.fromiter((len(r) for r in row_sets), dtype=np.int64, count=len(row_sets))
        row_base = np.concatenate(([0], np.cumsum(sizes)))
        total_rows = int(row_base[-1])
        member, out_pos, peak_flat, _series = self._probe_flat(
            self._ladder_postings, batch, tolerance, row_sets
        )
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
        member, out_pos, peak_flat, tags = self._probe_flat(
            self._series_postings, batch, tolerance, row_sets
        )
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
