"""Search reports: the uniform output of every engine and algorithm."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.scoring.hits import (
    Hit,
    HitColumns,
    HitTable,
    as_hit_columns,
    best_first_order,
    pack_hit_columns,
)
from repro.simmpi.trace import TraceSummary
from repro.spectra.binning import _ragged_arange
from repro.utils.text_columns import fixed_column, int_column, join_rows, slice_column


@dataclass
class SearchReport:
    """Everything one search run produced.

    Attributes:
        algorithm: which engine ran ("serial", "master_worker",
            "algorithm_a", "algorithm_a_nomask", "algorithm_b", "xbang").
        num_ranks: processor count p.
        hits: per-query top-tau hits, best first (no hits in MODELED
            execution).  Engines hand in a :class:`~repro.scoring.hits.HitTable`
            — a read-only mapping over flat columns that builds a query's
            ``Hit`` tuples when it is first indexed; a plain dict of lists
            works everywhere a table does.
        candidates_evaluated: total candidate evaluations across ranks.
        virtual_time: simulated parallel run-time (the makespan) — the
            number Table II reports.
        trace: per-rank timing breakdown (None for non-simmpi engines).
        peak_memory: per-rank peak bytes, for the space-claims tests.
        extras: algorithm-specific measurements (e.g. Algorithm B's
            ``sorting_time``).
    """

    algorithm: str
    num_ranks: int
    hits: Mapping[int, List[Hit]]
    candidates_evaluated: int
    virtual_time: float
    trace: Optional[TraceSummary] = None
    peak_memory: Dict[int, int] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def candidates_per_second(self) -> float:
        """Table III's metric: candidate evaluations per virtual second."""
        return self.candidates_evaluated / self.virtual_time if self.virtual_time > 0 else 0.0

    @property
    def max_peak_memory(self) -> int:
        return max(self.peak_memory.values()) if self.peak_memory else 0

    def top_hit(self, query_id: int) -> Optional[Hit]:
        hits = self.hits.get(query_id)
        return hits[0] if hits else None


#: transient bytes one chunk of ``write_tsv`` may allocate: its slice of
#: the index arrays, the text blocks of its columns, the joined rows and
#: their bytes
_TSV_CHUNK_BYTES = 4 << 20
#: what a row of a chunk allocates while it is formatted: ~400 B measured
#: with tracemalloc for search reports (rows of ~60 characters and a
#: peptide of ~12 residues), rounded up
_TSV_ROW_BYTES = 512
#: rows formatted per write (8192)
_TSV_CHUNK_ROWS = _TSV_CHUNK_BYTES // _TSV_ROW_BYTES


_Spans = Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _peptide_spans(database) -> Tuple[np.ndarray, _Spans]:
    """``(text, spans)``: ``spans(protein ids, starts, stops)`` gives each
    hit's peptide as a ``(start, length)`` slice of ``text``.

    A peptide is found by offset arithmetic, bounds clamped to the
    protein as ``str`` slicing clamps them; ``?`` for an id the database
    lacks; the last of a repeated id wins, as a dict of proteins would
    have it.  ``text`` is the residue buffer copied once, with the ``?``
    and a protein's length of padding after it, so every slice can be
    read as a row of one sliding-window view.  Ids ``0..n-1`` in order
    (generated and FASTA databases) index the proteins directly; other
    ids are looked up in their sorted order.
    """
    residues = np.asarray(database.residues, dtype=np.uint8)
    offsets = np.asarray(database.offsets, dtype=np.int64)
    unknown = len(residues)
    longest = int(np.diff(offsets).max(initial=0))
    text = np.concatenate((residues, np.frombuffer(b"?", np.uint8), np.zeros(longest, np.uint8)))
    ids = np.asarray(database.ids)
    num_proteins = len(ids)
    if np.array_equal(ids, np.arange(num_proteins)):

        def locate(pid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            known = (pid >= 0) & (pid < num_proteins)
            return np.where(known, pid, 0), known

    else:
        by_id = np.argsort(ids, kind="stable")
        known_ids = ids[by_id]

        def locate(pid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            at = np.maximum(np.searchsorted(known_ids, pid, side="right") - 1, 0)
            return by_id[at], known_ids[at] == pid

    def clamp(position: np.ndarray, length: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(position + (position < 0) * length, 0), length)

    def spans(pid: np.ndarray, start: np.ndarray, stop: np.ndarray):
        if num_proteins == 0:
            return np.full(len(pid), unknown), np.ones(len(pid), dtype=np.int64)
        seq, known = locate(pid)
        base = offsets[seq]
        length = offsets[seq + 1] - base
        lo = clamp(start, length)
        hi = np.maximum(clamp(stop, length), lo)
        return np.where(known, base + lo, unknown), np.where(known, hi - lo, 1)

    return text, spans


def write_tsv(report: SearchReport, path, database=None) -> None:
    """Write per-query identifications as tab-separated values.

    Columns: query_id, rank, score, protein, start, stop, mass,
    mod_delta, and — when the searched ``database`` is supplied —
    the matched peptide sequence.  This is the flat interchange format
    peptide-identification pipelines consume downstream.

    Rows are formatted straight from the report's hit columns, queries
    in ascending id order, by array work (:mod:`repro.utils.text_columns`):
    every byte is what ``%d`` / ``%.6f`` / ``%.4f`` write, and no ``Hit``
    is built.  A chunk of ``_TSV_CHUNK_ROWS`` rows is formatted at a
    time, within ``_TSV_CHUNK_BYTES`` of transient arrays; a chunk whose
    peptide block (rows x longest peptide) would take more than a
    quarter of that is written in halves.  Beside a chunk, nothing
    transient grows with the hit count but three index arrays, and the
    residue buffer is copied once.  A file object target is written
    ``str``, a path bytes.
    """
    columns = as_hit_columns(report.hits)
    by_query = np.argsort(columns.query_ids, kind="stable")
    counts = columns.counts[by_query]
    first_row = (np.cumsum(columns.counts) - columns.counts)[by_query]
    rows = _ragged_arange(first_row, counts)  # hit rows in output order
    query_id = np.repeat(columns.query_ids[by_query], counts)
    rank = _ragged_arange(np.ones(len(counts), dtype=np.int64), counts)
    header = "query_id\trank\tscore\tprotein\tstart\tstop\tmass\tmod_delta"
    if database is not None:
        header += "\tpeptide"
        text, peptide_spans = _peptide_spans(database)

    to_file = not hasattr(path, "write")
    with open(path, "wb") if to_file else nullcontext(path) as fh:
        fh.write(header.encode("ascii") + b"\n" if to_file else header + "\n")
        # row ranges still to write, the next one last
        pending = [
            (c, min(c + _TSV_CHUNK_ROWS, len(rows)))
            for c in reversed(range(0, len(rows), _TSV_CHUNK_ROWS))
        ]
        while pending:
            a, b = pending.pop()
            r = rows[a:b]
            pid, start, stop = columns.protein_ids[r], columns.starts[r], columns.stops[r]
            fields = []
            if database is not None:
                starts, lengths = peptide_spans(pid, start, stop)
                if b - a > 1 and (b - a) * int(lengths.max()) > _TSV_CHUNK_BYTES // 4:
                    pending += [((a + b) // 2, b), (a, (a + b) // 2)]
                    continue
                fields.append(slice_column(text, starts, lengths))
            chunk = join_rows(
                [
                    int_column(query_id[a:b]),
                    int_column(rank[a:b]),
                    fixed_column(columns.scores[r], 6),
                    int_column(pid),
                    int_column(start),
                    int_column(stop),
                    fixed_column(columns.masses[r], 4),
                    fixed_column(columns.mod_deltas[r], 4),
                    *fields,
                ]
            )
            fh.write(chunk if to_file else chunk.decode("ascii"))


def merge_rank_hits(
    per_rank_hits: Sequence[Union[HitColumns, Mapping[int, Sequence[Hit]]]], tau: int
) -> HitTable:
    """Merge per-rank hits — columns, tables or dicts — into one table.

    Query sets are disjoint across ranks in Algorithms A/B (queries stay
    put) and across the tasks of a multiproc run, so the merge is one
    concatenation per column, queries in arrival order.  The
    master-worker baseline can reassign a query after a worker failure,
    and a checkpoint folds each finished task into what it holds, so
    merging tolerates overlap: when some query id arrives more than once,
    or with more than ``tau`` hits, lists are folded through a fresh
    top-tau filter, a (protein, span, mod_delta) that arrives twice
    counting once.
    """
    parts = [as_hit_columns(hits) for hits in per_rank_hits]
    parts.append(pack_hit_columns({}, ()))  # concatenate needs one part; pins the dtypes
    merged = HitColumns(*(np.concatenate(column) for column in zip(*parts)))
    if len(np.unique(merged.query_ids)) < len(merged.query_ids) or np.any(merged.counts > tau):
        merged = _fold_repeated_queries(merged, tau)
    return HitTable(merged)


def _fold_repeated_queries(merged: HitColumns, tau: int) -> HitColumns:
    """One top-tau list per query id of ``merged``, first-seen query order."""
    query_ids, first, segment_group = np.unique(
        merged.query_ids, return_index=True, return_inverse=True
    )
    arrival = np.argsort(first)  # groups in the order their query first arrived
    group_rank = np.empty(len(arrival), dtype=np.int64)
    group_rank[arrival] = np.arange(len(arrival))
    group = np.repeat(group_rank[segment_group], merged.counts)
    protein_ids, starts, stops, _masses, mod_deltas = merged[3:]
    # the first arrival of every (query, protein, span, mod_delta): lexsort
    # is stable and rows are in arrival order
    structure = (mod_deltas, stops, starts, protein_ids, group)
    by_structure = np.lexsort(structure)
    repeat = np.zeros(len(by_structure), dtype=bool)
    repeat[1:] = True
    for key in structure:
        key = key[by_structure]
        repeat[1:] &= key[1:] == key[:-1]
    keep = by_structure[~repeat]
    # best first within a query, cut at tau
    keep = keep[best_first_order([column[keep] for column in merged[2:]], group[keep])]
    counts = np.bincount(group[keep], minlength=len(arrival))
    take = np.minimum(counts, tau)
    rows = keep[_ragged_arange(np.cumsum(counts) - counts, take)]
    return HitColumns(query_ids[arrival], take, *(column[rows] for column in merged[2:]))


def select_queries(hits: HitTable, query_ids: Iterable[int]) -> HitTable:
    """``hits`` re-laid in ``query_ids`` order; an id it lacks reports ``[]``."""
    columns = hits.columns
    wanted = list(dict.fromkeys(query_ids))
    segment_of = {qid: i for i, qid in enumerate(columns.query_ids.tolist())}
    # -1, a query the table lacks, indexes the empty segment appended below
    segment = np.array([segment_of.get(qid, -1) for qid in wanted], dtype=np.int64)
    counts = np.append(columns.counts, 0)
    first_row = np.cumsum(counts) - counts
    rows = _ragged_arange(first_row[segment], counts[segment])
    return HitTable(
        HitColumns(
            np.array(wanted, dtype=np.int64),
            counts[segment],
            *(column[rows] for column in columns[2:]),
        )
    )


def reports_equal(a: SearchReport, b: SearchReport, score_rtol: float = 0.0) -> bool:
    """The paper's validation predicate: identical hits per query.

    With ``score_rtol == 0`` this demands bitwise-equal scores, which our
    deterministic kernel achieves across serial and parallel runs.
    """
    if set(a.hits) != set(b.hits):
        return False
    for qid in a.hits:
        ha, hb = a.hits[qid], b.hits[qid]
        if len(ha) != len(hb):
            return False
        for x, y in zip(ha, hb):
            if (x.protein_id, x.start, x.stop, x.mod_delta) != (
                y.protein_id,
                y.start,
                y.stop,
                y.mod_delta,
            ):
                return False
            if score_rtol == 0.0:
                if x.score != y.score:
                    return False
            elif abs(x.score - y.score) > score_rtol * max(abs(x.score), abs(y.score), 1e-12):
                return False
    return True
