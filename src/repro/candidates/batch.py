"""Batch-at-a-time candidate representation for vectorized scoring.

The object-at-a-time hot path — one ``theoretical_spectrum`` call, one
peak-matching call, one heap push per candidate — leaves almost all of
numpy's throughput on the table.  :class:`CandidateBatch` restructures a
query's :class:`~repro.candidates.mass_index.CandidateSpans` so scorers
can process *arrays of candidates*:

* all candidate residues are gathered from the shard into one flat
  buffer with per-candidate offsets (structure-of-arrays, no Python
  objects);
* variable-PTM candidates are expanded into one *evaluation row* per
  admissible modification site (the scalar kernel's "score every site,
  keep the best" rule), so scoring is a flat row problem;
* rows are bucketed into *length bands*: runs of adjacent candidate
  lengths holding at most :data:`BAND_ROWS` rows together, each packed
  into one dense 2-D matrix padded to the band's widest row, so a block
  with many short length groups costs one scoring call per band, not
  one per length.  A length with more rows than that stands alone,
  unpadded.  numpy's row-wise kernels (``cumsum``, ``sort``, ``sum``
  along the last axis) over such matrices are *bitwise identical* to
  the per-candidate 1-D operations — trailing pads leave every prefix
  of a sequential ``cumsum`` unchanged, pad fragments are ``+inf`` and
  sort last, and sums run over each row's own width — the property
  that keeps batched output exactly equal to the scalar oracle, which
  the paper's validation experiment demands.

Scorers consume the batch through :meth:`length_groups` (one
:class:`LengthGroup` per band) and fold per-row scores back to
per-candidate scores with :meth:`reduce_rows` (max over modification
sites, exactly the scalar ``max`` over the same site order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.candidates.mass_index import CandidateSpans
from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.spectra.binning import _ragged_arange, group_by_key


#: Rows a length band may hold when it spans several lengths; a length
#: with more rows stands alone, unpadded.  Block scoring time relative to
#: one length a band (cap 0), summed per-block best of 5-10 on 2 vCPUs,
#: at caps 128 / 256 / 512 / 1024: simmpi_ring's blocks (likelihood,
#: p = 8) 0.78 / 0.73 / 0.71 / 0.73; 4-query hyperscore blocks (the
#: service's) 0.87 / 0.80 / 0.73 / 0.70; 64-query likelihood blocks at
#: 2000 proteins x 1000 queries 1.01 / 1.02 / 1.01 / 1.04 (at 1024 a
#: length of ~600-800 rows joins its stragglers and is padded whole).
BAND_ROWS = 512

#: Residue code of a pad position; it weighs 0.0 in :meth:`LengthGroup.mass_rows`.
_PAD_CODE = 0


@dataclass(frozen=True)
class LengthGroup:
    """All evaluation rows of one length band, as dense matrices.

    Attributes:
        length: the band's widest candidate length L.
        rows: indices into the batch's row arrays, by length, then
            ascending.
        residue_rows: ``(len(rows), L)`` uint8 residue-code matrix; a
            shorter row's residues come first, then pad codes.
        sites: per-row modification site (-1 = unmodified model).
        deltas: per-row modification delta mass (0.0 where site is -1).
        row_lengths: per-row candidate lengths (ascending) when the band
            spans several lengths; ``None`` when every row is ``length``
            long, so no row is padded.
    """

    length: int
    rows: np.ndarray
    residue_rows: np.ndarray
    sites: np.ndarray
    deltas: np.ndarray
    row_lengths: Optional[np.ndarray] = None

    def mass_rows(self, monoisotopic: bool = True) -> np.ndarray:
        """Per-row residue masses with each row's PTM delta applied, pads 0.0.

        Row ``r``'s first ``row_lengths[r]`` values are bitwise identical
        to the scalar ``_residue_masses_with_mod(residues, monoisotopic,
        site, delta)``; trailing zeros leave every prefix of a sequential
        ``cumsum`` over the row unchanged.
        """
        table = mass_table(monoisotopic)
        if self.row_lengths is not None:
            table = table.copy()
            table[_PAD_CODE] = 0.0
        masses = table[self.residue_rows]
        sited = np.nonzero(self.sites >= 0)[0]
        if len(sited):
            masses[sited, self.sites[sited]] += self.deltas[sited]
        return masses


class CandidateBatch:
    """A query's candidate set in batch (structure-of-arrays) form.

    Attributes:
        spans: the source spans (one entry per candidate).
        residues: flat uint8 buffer of all candidate residues.
        offsets: ``(n + 1,)`` candidate ``i`` occupies
            ``residues[offsets[i]:offsets[i + 1]]``.
        row_candidate: owning candidate index of each evaluation row.
        row_site: modification site per row (-1 = score unmodified).
        row_delta: modification delta per row (0.0 where site is -1).
        row_offsets: ``(n + 1,)`` rows of candidate ``i`` are
            ``row_offsets[i]:row_offsets[i + 1]`` (every candidate has
            at least one row).
    """

    __slots__ = (
        "spans",
        "residues",
        "offsets",
        "row_candidate",
        "row_site",
        "row_delta",
        "row_offsets",
        "_expanded",
        "_grouped",
    )

    def __init__(
        self,
        spans: CandidateSpans,
        residues: np.ndarray,
        offsets: np.ndarray,
        row_candidate: np.ndarray,
        row_site: np.ndarray,
        row_delta: np.ndarray,
        row_offsets: np.ndarray,
    ):
        self.spans = spans
        self.residues = residues
        self.offsets = offsets
        self.row_candidate = row_candidate
        self.row_site = row_site
        self.row_delta = row_delta
        self.row_offsets = row_offsets
        self._expanded = len(row_candidate) != len(spans)
        self._grouped: Optional[Tuple[List[LengthGroup], np.ndarray, np.ndarray]] = None

    def __len__(self) -> int:
        """Number of candidates (not evaluation rows)."""
        return len(self.spans)

    @property
    def num_rows(self) -> int:
        return len(self.row_candidate)

    @classmethod
    def from_spans(
        cls,
        shard: ProteinDatabase,
        spans: CandidateSpans,
        mod_targets: Optional[Dict[float, int]] = None,
    ) -> "CandidateBatch":
        """Gather residues and expand PTM sites for a span set.

        ``mod_targets`` maps each variable modification's delta mass to
        its target residue code (as in ``ShardSearcher``).  A modified
        candidate produces one row per occurrence of the target residue;
        candidates whose delta is unknown or whose residues contain no
        target fall back to a single unmodified-model row, exactly like
        the scalar kernel.
        """
        n = len(spans)
        lengths = spans.lengths
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        src = _ragged_arange(shard.offsets[spans.seq_index] + spans.start, lengths)
        residues = shard.residues[src]

        # Which candidates expand into per-site rows?
        target_code = np.full(n, -1, dtype=np.int64)
        if mod_targets:
            for delta, code in mod_targets.items():
                target_code[spans.mod_delta == delta] = code
        modified = (spans.mod_delta != 0.0) & (target_code >= 0)
        if not modified.any():
            row_offsets = np.arange(n + 1, dtype=np.int64)
            return cls(
                spans,
                residues,
                offsets,
                np.arange(n, dtype=np.int64),
                np.full(n, -1, dtype=np.int64),
                np.zeros(n, dtype=np.float64),
                row_offsets,
            )

        # Site positions: flat residue positions equal to the owning
        # candidate's target code.
        cand_of_pos = np.repeat(np.arange(n, dtype=np.int64), lengths)
        is_site = residues == target_code[cand_of_pos]
        is_site &= modified[cand_of_pos]
        site_counts = np.add.reduceat(is_site.astype(np.int64), offsets[:-1]) if n else np.empty(0, np.int64)
        rows_per_cand = np.where(site_counts > 0, site_counts, 1)
        row_offsets = np.concatenate(([0], np.cumsum(rows_per_cand)))
        row_candidate = np.repeat(np.arange(n, dtype=np.int64), rows_per_cand)
        row_site = np.full(int(row_offsets[-1]), -1, dtype=np.int64)
        row_delta = np.zeros(int(row_offsets[-1]), dtype=np.float64)
        expanded = site_counts > 0
        if expanded.any():
            site_pos = np.nonzero(is_site)[0]
            site_cand = cand_of_pos[site_pos]
            # rows of an expanded candidate are exactly its sites, in
            # ascending position order (np.nonzero order — the scalar
            # site order).
            dest = np.nonzero(expanded[row_candidate])[0]
            row_site[dest] = site_pos - offsets[site_cand]
            row_delta[dest] = spans.mod_delta[site_cand]
        return cls(spans, residues, offsets, row_candidate, row_site, row_delta, row_offsets)

    # -- row access ------------------------------------------------------

    def row_residues(self, row: int) -> np.ndarray:
        """Encoded residues of one evaluation row (zero-copy view)."""
        cand = int(self.row_candidate[row])
        return self.residues[int(self.offsets[cand]) : int(self.offsets[cand + 1])]

    def length_groups(self) -> List[LengthGroup]:
        """Evaluation rows bucketed into length bands (cached).

        Walking the lengths in ascending order, the next length joins the
        current band while the band then holds at most :data:`BAND_ROWS`
        rows; otherwise it opens a new one.  Each band's matrices are
        freshly-gathered C-contiguous arrays, so row-wise numpy
        reductions over them match the scalar per-candidate operations
        bit for bit.
        """
        return self._group_rows()[0]

    def _group_rows(self) -> Tuple[List[LengthGroup], np.ndarray, np.ndarray]:
        """``(groups, row_group, row_local)``, cached: the rows bucketed by
        length with one stable sort, then cut into bands."""
        if self._grouped is not None:
            return self._grouped
        n = self.num_rows
        row_length = self.spans.lengths[self.row_candidate]
        order, runs = group_by_key(row_length, int(row_length.max()) + 1 if n else 0)
        bands: List[Tuple[int, int, int, int]] = []  # (first, widest, a, b)
        for length, a, b in runs:
            if bands and b - bands[-1][2] <= BAND_ROWS:
                bands[-1] = (bands[-1][0], length, bands[-1][2], b)
            else:
                bands.append((length, length, a, b))
        row_first = self.offsets[self.row_candidate]
        groups: List[LengthGroup] = []
        for first, widest, a, b in bands:
            rows = order[a:b]
            if first == widest:
                lengths = None
                mat = self.residues[row_first[rows][:, None] + np.arange(widest)]
            else:
                lengths = row_length[rows]
                mat = np.full((b - a, widest), _PAD_CODE, dtype=self.residues.dtype)
                mat[np.arange(widest) < lengths[:, None]] = self.residues[
                    _ragged_arange(row_first[rows], lengths)
                ]
            groups.append(
                LengthGroup(widest, rows, mat, self.row_site[rows], self.row_delta[rows], lengths)
            )
        bounds = np.array([a for _, _, a, _ in bands] + [n], dtype=np.int64)
        sizes = np.diff(bounds)
        row_group = np.empty(n, dtype=np.int64)
        row_group[order] = np.repeat(np.arange(len(bands), dtype=np.int64), sizes)
        row_local = np.empty(n, dtype=np.int64)
        row_local[order] = np.arange(n, dtype=np.int64) - np.repeat(bounds[:-1], sizes)
        self._grouped = (groups, row_group, row_local)
        return self._grouped

    def reduce_rows(self, row_scores: np.ndarray) -> np.ndarray:
        """Fold per-row scores into per-candidate scores.

        The best modification-site interpretation wins, exactly as the
        scalar kernel's ``max`` over the same (ascending) site order.
        """
        if not self._expanded:
            return row_scores
        if len(self.spans) == 0:
            return np.empty(0, dtype=np.float64)
        return np.maximum.reduceat(row_scores, self.row_offsets[:-1])

    # -- per-query selections (cohort / block scoring) -------------------

    def rows_of(self, candidates: np.ndarray) -> np.ndarray:
        """Evaluation rows of the selected candidates, in candidate order.

        Within a candidate its rows stay in batch (ascending site) order,
        so the selected row stream is exactly the row stream a batch
        built from ``spans.take(candidates)`` would produce.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        if not self._expanded:
            return candidates
        starts = self.row_offsets[candidates]
        return _ragged_arange(starts, self.row_offsets[candidates + 1] - starts)

    def selected_row_counts(self, candidates: np.ndarray) -> np.ndarray:
        """Evaluation rows each selected candidate owns (all 1 without PTMs)."""
        candidates = np.asarray(candidates, dtype=np.int64)
        return self.row_offsets[candidates + 1] - self.row_offsets[candidates]

    def selected_row_count(self, candidates: np.ndarray) -> int:
        """Number of evaluation rows the selected candidates own."""
        if not self._expanded:
            return len(candidates)
        return int(self.selected_row_counts(candidates).sum())

    def reduce_selected(self, row_scores: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """:meth:`reduce_rows` over the ``rows_of(candidates)`` stream.

        ``row_scores`` is aligned to :meth:`rows_of` output; the fold is
        the same ``max`` over the same ascending site order, so the
        result is bitwise equal to ``reduce_rows`` on a per-query batch.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        if not self._expanded:
            return row_scores
        if len(candidates) == 0:
            return np.empty(0, dtype=np.float64)
        counts = self.row_offsets[candidates + 1] - self.row_offsets[candidates]
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.maximum.reduceat(row_scores, starts)

    def group_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row (band index, position within band), cached.

        Lets block scorers route an arbitrary row selection to the cached
        per-band matrices: row ``r`` lives at
        ``length_groups()[row_group[r]]`` row ``row_local[r]``.
        """
        return self._group_rows()[1:]

    def take(self, candidates: np.ndarray) -> "CandidateBatch":
        """Sub-batch of the selected candidates (per-query extraction).

        Every per-candidate array is gathered in selection order, so the
        result is structurally identical to ``from_spans`` on
        ``spans.take(candidates)`` — the basis for the block fallback
        path scoring per-query slices of a cohort batch.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        spans = self.spans.take(candidates)
        res_starts = self.offsets[candidates]
        res_lengths = self.offsets[candidates + 1] - res_starts
        residues = self.residues[_ragged_arange(res_starts, res_lengths)]
        offsets = np.concatenate(([0], np.cumsum(res_lengths)))
        first_rows = self.row_offsets[candidates]
        row_counts = self.row_offsets[candidates + 1] - first_rows
        rows = _ragged_arange(first_rows, row_counts)
        row_offsets = np.concatenate(([0], np.cumsum(row_counts)))
        return CandidateBatch(
            spans,
            residues,
            offsets,
            np.repeat(np.arange(len(candidates), dtype=np.int64), row_counts),
            self.row_site[rows],
            self.row_delta[rows],
            row_offsets,
        )
