"""Hit records and the bounded top-tau hit list.

"Each worker ... report[s] at most tau hits per query" and every
algorithm "keeps a separate running list of the tau topmost hits for
every query" (paper Sections II.A and II.B).  :class:`TopHitList` is that
running list: a bounded selection under a *deterministic total order*, so
that the same candidate set always yields the same tau hits regardless of
evaluation order — the property the paper's validation experiment
(parallel output == serial output) rests on.

Retained hits have one stored form, NumPy columns: a running list parks
sorted row ranges of the tables its blocks emitted, a report holds one
:class:`HitColumns` for all its queries behind a :class:`HitTable`, a
checkpoint holds one too, and the writers format from those arrays.
:class:`Hit` objects are built only where someone asks for them by name:
``sorted_hits()``, indexing ``report.hits``.  The order every one of
these keeps is :meth:`Hit.sort_key`, applied to columns by
:func:`best_first_order`.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.spectra.binning import _ragged_arange


class Hit(NamedTuple):
    """One candidate match reported for a query.

    Candidates are prefixes or suffixes of database sequences (paper
    Section II.A), so a hit is identified by the parent sequence's global
    id plus the residue span ``[start, stop)`` within it.  ``mod_delta``
    carries the total variable-PTM mass applied, 0.0 for unmodified.

    ``mass`` is informational and excluded from equality (custom
    ``__eq__``/``__hash__`` below): span masses are computed from
    per-shard cumulative sums, so the same span reached via different
    database partitionings can differ in the last float bits.  Scores do
    not share this caveat — they are recomputed from the raw residues
    and are bitwise partition-independent.

    A tuple subclass (not a dataclass) because hot search loops create
    one instance per retained hit: ``tuple.__new__`` is several times
    cheaper than a frozen dataclass ``__init__``.
    """

    query_id: int
    score: float
    protein_id: int
    start: int
    stop: int
    mass: float
    mod_delta: float = 0.0

    def sort_key(self) -> Tuple[float, int, int, int, float]:
        """Total order: higher score first, then stable structural tie-break."""
        return (-self.score, self.protein_id, self.start, self.stop, self.mod_delta)

    @property
    def length(self) -> int:
        return self.stop - self.start

    def __eq__(self, other) -> bool:
        if other.__class__ is Hit:
            return (
                self.query_id == other.query_id
                and self.score == other.score
                and self.protein_id == other.protein_id
                and self.start == other.start
                and self.stop == other.stop
                and self.mod_delta == other.mod_delta
            )
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(
            (
                self.query_id,
                self.score,
                self.protein_id,
                self.start,
                self.stop,
                self.mod_delta,
            )
        )


#: a hit's six stored columns, in the order every columnar form keeps them
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY_COLUMNS: _Columns = (
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.float64),
)


def _columns_of(hits: Sequence[Hit]) -> _Columns:
    """The six columns of ``hits``, in their order."""
    if not hits:
        return _EMPTY_COLUMNS
    _query_ids, *fields = zip(*hits)
    return tuple(
        np.array(field, dtype=empty.dtype) for field, empty in zip(fields, _EMPTY_COLUMNS)
    )


def best_first_order(
    columns: Sequence[np.ndarray], group: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row order of six hit columns under :meth:`Hit.sort_key` (stable).

    The key is ``Hit.sort_key`` itself, evaluated on a ``Hit`` whose
    fields are whole columns, so the order is written in one place.
    With ``group`` the rows sort by group first, best first within each.
    """
    key = Hit.sort_key(tuple.__new__(Hit, (None, *columns)))[::-1]
    return np.lexsort(key if group is None else (*key, group))


def _build_hits(query_id: int, columns: Sequence[np.ndarray], lo: int, hi: int) -> List[Hit]:
    """``Hit`` tuples for rows ``[lo, hi)`` of six hit columns, in row order."""
    new = tuple.__new__
    sc, pr, st, sp, ms, md = columns
    return [
        new(Hit, (query_id, a, b, c, d, f, e))
        for a, b, c, d, f, e in zip(
            sc[lo:hi].tolist(),
            pr[lo:hi].tolist(),
            st[lo:hi].tolist(),
            sp[lo:hi].tolist(),
            ms[lo:hi].tolist(),
            md[lo:hi].tolist(),
        )
    ]


class TopHitList:
    """Bounded container keeping the tau best hits for one query.

    Its stored form is *parked slices*: row ranges ``[lo, hi)`` of six
    NumPy columns, each best first, held by reference — no ``Hit``
    exists until :meth:`sorted_hits` is asked for one.  The first is the
    folded head; a block emit parks each later block's top tau behind it
    as one more segment, unsorted against the rest.  The segments are
    folded — one :func:`best_first_order` over all of them, cut to tau —
    only when they would hold more than ``2 * tau`` rows, or when the
    list is read (:meth:`sorted_hits`, the cut of :meth:`add_batch`);
    :func:`pack_hit_columns` reads them as they are.  Whatever batches are offered, in whatever order,
    a read sees the top tau of all of them under :meth:`Hit.sort_key` —
    ``sorted(offered, key=Hit.sort_key)[:tau]`` — so ties at the cutoff
    are resolved by the structural tie-break, never by offer order.
    """

    __slots__ = ("tau", "_pending", "_parked", "_rows", "evaluated")

    def __init__(self, tau: int):
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.tau = tau
        # the folded head (query_id, columns, lo, hi), rows best first;
        # None while empty
        self._pending: Optional[Tuple[int, _Columns, int, int]] = None
        # segments (columns, lo, hi) parked behind the head since its fold
        self._parked: List[Tuple[_Columns, int, int]] = []
        self._rows = 0  # rows of the head and the parked segments
        self.evaluated = 0  #: total candidates offered (for candidates/sec metrics)

    def add_batch(
        self,
        query_id: int,
        scores: np.ndarray,
        protein_ids: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
        masses: np.ndarray,
        mod_deltas: np.ndarray,
    ) -> int:
        """Offer a whole array of scored candidates; returns the number retained.

        Only the at-most-tau candidates that can still matter are kept
        at all, and the list still ends as the top tau of everything
        offered to it:

        * candidates scoring strictly below the currently-worst retained
          hit (with a full list) can never enter — ties are kept, because
          the structural tie-break may still admit them;
        * of the survivors, only the batch's top tau under the *full*
          total order (:func:`best_first_order`, one vectorized lexsort) are
          offered: any other survivor is outranked by tau batch-mates,
          so it can never end in the top tau whatever the list held.

        The survivors are folded in at once (the count needs the fold).
        The per-query route of the scalar reference (``tests/reference.py``).
        """
        n = len(scores)
        if n == 0:
            return 0
        idx = np.arange(n)
        if len(self) >= self.tau:
            idx = idx[scores >= self._worst_score()]
        columns = tuple(
            col[idx] for col in (scores, protein_ids, starts, stops, masses, mod_deltas)
        )
        self.evaluated += n
        if len(idx) > self.tau:
            top = best_first_order(columns)[: self.tau]
            columns = tuple(col[top] for col in columns)
            if self._pending is None:  # sorted to be cut: parked as it is
                self._park(query_id, columns, 0, self.tau)
                return self.tau
        return self._fold(query_id, (columns, 0, len(columns[0])))

    def add_top_sorted(
        self,
        query_id: int,
        columns: _Columns,
        lo: int,
        hi: int,
        offered: int,
    ) -> int:
        """Offer a batch represented by its pre-selected top tau.

        Rows ``[lo, hi)`` of ``columns`` — ``(scores, protein_ids,
        starts, stops, masses, mod_deltas)`` arrays — hold the batch's
        top ``min(tau, n)`` candidates best first under the full total
        order (:meth:`Hit.sort_key`) — exactly the selection
        :meth:`add_batch` computes internally, so the outcome is
        identical to offering the whole batch (see the eviction argument
        there).  ``offered`` is the full batch size, counted into
        ``evaluated``.  Returns how many rows were parked.

        The range is parked by reference, no copy and no ``Hit``: as the
        head of an empty list, else as one more segment behind it —
        folded with the rest first if the list would then hold more than
        ``2 * tau`` rows.  The candidate-major sweep offers every member
        of a scoring block this way, the block's top tau selected in one
        vectorized pass.
        """
        self.evaluated += offered
        if self._pending is None:
            self._park(query_id, columns, lo, hi)
        elif hi > lo:
            if self._rows + hi - lo > 2 * self.tau:
                self._fold(query_id, (columns, lo, hi))
            else:
                self._parked.append((columns, lo, hi))
                self._rows += hi - lo
        return hi - lo

    def _park(self, query_id: int, columns: _Columns, lo: int, hi: int) -> None:
        self._pending = (query_id, columns, lo, hi)
        self._rows = hi - lo

    def _fold(self, query_id: int, extra: Optional[Tuple[_Columns, int, int]] = None) -> int:
        """Fold the head, the parked segments and ``extra`` into one head,
        best first and cut to tau; returns how many of ``extra``'s rows
        it kept.  A head alone is already folded."""
        head = [] if self._pending is None else [self._pending[1:]]
        segments = head + self._parked + ([] if extra is None else [extra])
        if extra is None and len(segments) < 2:
            return 0
        joined = tuple(
            np.concatenate([columns[i][lo:hi] for columns, lo, hi in segments]) for i in range(6)
        )
        order = best_first_order(joined)[: self.tau]
        self._parked = []
        self._park(query_id, tuple(col[order] for col in joined), 0, len(order))
        if extra is None:
            return 0
        _columns, lo, hi = extra
        return int(np.count_nonzero(order >= len(joined[0]) - (hi - lo)))

    def _folded(self) -> Optional[Tuple[int, _Columns, int, int]]:
        """The head, once every parked segment is folded into it."""
        if self._parked:
            self._fold(self._pending[0])
        return self._pending

    def _worst_score(self) -> float:
        """Score of the worst retained hit (the list must not be empty)."""
        _qid, columns, _lo, hi = self._folded()
        return columns[0][hi - 1]

    def __len__(self) -> int:
        # no fold needed: a fold keeps min(rows, tau) of the rows
        return min(self._rows, self.tau)

    def sorted_hits(self) -> List[Hit]:
        """Retained hits, best first, deterministic order."""
        head = self._folded()
        return [] if head is None else _build_hits(*head)


class HitColumns(NamedTuple):
    """The top-tau lists of many queries as flat NumPy columns.

    The one stored form of reported hits: what a worker process returns
    for its query block (eight arrays pickle as eight buffers, where the
    same hits as ``Hit`` tuples cost one object each to dump, load and
    fold), what every engine's report holds (:class:`HitTable`) and what
    the writers format from.  Query ``query_ids[i]`` owns the next
    ``counts[i]`` rows of the six hit columns, best first.
    """

    query_ids: np.ndarray
    counts: np.ndarray
    scores: np.ndarray
    protein_ids: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    masses: np.ndarray
    mod_deltas: np.ndarray


def pack_hit_columns(
    hitlists: Mapping[int, TopHitList], query_ids: Iterable[int]
) -> HitColumns:
    """The retained hits of ``hitlists[qid]`` for ``query_ids``, in that
    order, as one :class:`HitColumns`.

    One grouped step, however many lists: every list's head and parked
    segments are gathered, grouped by the table they view, with one take
    from those tables joined; the lists holding more than one segment are
    then folded together — one :func:`best_first_order` over their rows,
    grouped by list, each list cut to its tau.  A list's segments are
    taken head first, then parked in order, which is the order
    ``TopHitList._fold`` concatenates them in, so every list packs as
    its :meth:`~TopHitList.sorted_hits` reads.  The lists are not changed.
    """
    query_ids = list(query_ids)
    tables: Dict[int, int] = {}  # id(table) -> its position in `joined`
    joined: List[_Columns] = [_EMPTY_COLUMNS]  # pins the dtypes
    owner, table, lo, hi, taus = [], [], [], [], []
    for i, qid in enumerate(query_ids):
        hitlist = hitlists[qid]
        taus.append(hitlist.tau)
        head = hitlist._pending
        if head is None:
            continue
        for columns, a, b in (head[1:], *hitlist._parked):
            t = tables.setdefault(id(columns), len(joined))
            if t == len(joined):
                joined.append(columns)
            owner.append(i)
            table.append(t)
            lo.append(a)
            hi.append(b)
    owner, table, lo, hi = (np.array(v, dtype=np.int64) for v in (owner, table, lo, hi))
    length = hi - lo
    table_start = np.cumsum([0] + [len(columns[0]) for columns in joined])
    rows = _ragged_arange(table_start[table] + lo, length)
    flat = [np.concatenate([columns[c] for columns in joined]) for c in range(6)]
    segments = np.bincount(owner, minlength=len(query_ids))
    counts = np.bincount(owner, weights=length, minlength=len(query_ids)).astype(np.int64)
    folded = segments > 1
    if folded.any():
        row_owner = np.repeat(owner, length)
        loose = folded[row_owner]  # rows of the lists to fold, by list
        fold_rows = rows[loose]
        order = best_first_order([column[fold_rows] for column in flat], row_owner[loose])
        tau = np.array(taus, dtype=np.int64)[folded]
        fold_counts = counts[folded]
        counts[folded] = np.minimum(fold_counts, tau)
        kept = fold_rows[order[_ragged_arange(np.cumsum(fold_counts) - fold_counts, counts[folded])]]
        first = np.cumsum(counts) - counts
        packed = np.empty(int(counts.sum()), dtype=np.int64)
        packed[_ragged_arange(first[~folded], counts[~folded])] = rows[~loose]
        packed[_ragged_arange(first[folded], counts[folded])] = kept
        rows = packed
    return HitColumns(
        np.array(query_ids, dtype=np.int64),
        counts,
        *(column[rows] for column in flat),
    )


class HitTable(Mapping):
    """Read-only ``Mapping[int, List[Hit]]`` view over one :class:`HitColumns`.

    What ``SearchReport.hits`` is for every engine's report.  Length,
    iteration order (the columns' query order), ``in``, ``.get``,
    ``.items()`` and ``==`` with a dict behave as the dict of lists it
    replaces.  A query's ``Hit`` tuples are built the first time it is
    *indexed* and kept, so a caller pays for the queries it reads, once,
    and gets the same list each time.  ``.items()`` and ``.values()``
    stream instead: a query not indexed before is built as it is
    yielded and not kept, so walking a large report holds one query's
    tuples at a time.  One that only writes or counts (``write_tsv``,
    ``RunReport``) builds none: the columns are the record, and what the
    writers read.  Query ids are unique.  Pickles as its columns.
    """

    __slots__ = ("columns", "_rows", "_indexed")

    def __init__(self, columns: HitColumns):
        self.columns = columns
        self._rows: Optional[Dict[int, Tuple[int, int]]] = None  # qid -> [lo, hi)
        self._indexed: Dict[int, List[Hit]] = {}

    def _row_bounds(self) -> Dict[int, Tuple[int, int]]:
        if self._rows is None:
            bounds = np.concatenate(([0], np.cumsum(self.columns.counts))).tolist()
            self._rows = dict(zip(self.columns.query_ids.tolist(), zip(bounds, bounds[1:])))
        return self._rows

    def _hits(self, query_id: int, keep: bool) -> List[Hit]:
        hits = self._indexed.get(query_id)
        if hits is None:
            lo, hi = self._row_bounds()[query_id]
            hits = _build_hits(query_id, self.columns[2:], lo, hi)
            if keep:
                self._indexed[query_id] = hits
        return hits

    def __getitem__(self, query_id: int) -> List[Hit]:
        return self._hits(query_id, keep=True)

    def __contains__(self, query_id) -> bool:
        return query_id in self._row_bounds()

    def __iter__(self) -> Iterator[int]:
        return iter(self.columns.query_ids.tolist())

    def __len__(self) -> int:
        return len(self.columns.query_ids)

    def items(self) -> ItemsView:
        return _StreamedItems(self)

    def values(self) -> ValuesView:
        return _StreamedValues(self)

    def __reduce__(self):
        return HitTable, (self.columns,)

    def __repr__(self) -> str:
        return f"HitTable({len(self)} queries, {len(self.columns.scores)} hits)"


class _StreamedItems(ItemsView):
    def __iter__(self):
        table = self._mapping
        return ((query_id, table._hits(query_id, keep=False)) for query_id in table)


class _StreamedValues(ValuesView):
    def __iter__(self):
        table = self._mapping
        return (table._hits(query_id, keep=False) for query_id in table)


def as_hit_columns(hits: Union[HitColumns, Mapping[int, Sequence[Hit]]]) -> HitColumns:
    """The columns behind a report's ``hits``: a table's own, a dict's packed."""
    if isinstance(hits, HitColumns):
        return hits
    if isinstance(hits, HitTable):
        return hits.columns
    return HitColumns(
        np.array(list(hits), dtype=np.int64),
        np.array([len(hs) for hs in hits.values()], dtype=np.int64),
        *_columns_of([hit for hs in hits.values() for hit in hs]),
    )

