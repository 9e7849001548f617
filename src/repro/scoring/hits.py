"""Hit records and the bounded top-tau hit list.

"Each worker ... report[s] at most tau hits per query" and every
algorithm "keeps a separate running list of the tau topmost hits for
every query" (paper Sections II.A and II.B).  :class:`TopHitList` is that
running list: a bounded selection under a *deterministic total order*, so
that the same candidate set always yields the same tau hits regardless of
evaluation order — the property the paper's validation experiment
(parallel output == serial output) rests on.

Retained hits have one stored form, NumPy columns: a running list parks
a sorted row range of the table its block emitted, a report holds one
:class:`HitColumns` for all its queries behind a :class:`HitTable`, and
the writers format from those arrays.  :class:`Hit` objects are built
where someone asks for them by name — ``sorted_hits()``, indexing
``report.hits`` — and by the scalar ``add()`` route (merging, checkpoint
resume, recovery), which keeps a heap of them.
"""

from __future__ import annotations

import heapq
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


def _best_first(columns: _Columns) -> np.ndarray:
    """Row order of ``columns`` under :meth:`Hit.sort_key` (stable)."""
    scores, protein_ids, starts, stops, _masses, mod_deltas = columns
    return np.lexsort((mod_deltas, stops, starts, protein_ids, -scores))


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

    The list has one of two stored forms.  What the sweep and
    :meth:`add_batch` leave behind is a *parked slice*: rows ``[lo, hi)``
    of six NumPy columns, best first, held by reference — no ``Hit``
    exists until :meth:`sorted_hits` is asked for one.  A scalar
    :meth:`add` (and so :meth:`merge`) turns the slice into a bounded
    min-heap, O(log tau) per offer; the next columnar offer folds the
    heap back into a slice.  Ties at the cutoff are resolved by
    :meth:`Hit.sort_key` in either form, never by insertion order.
    """

    __slots__ = ("tau", "_heap", "_pending", "evaluated")

    def __init__(self, tau: int):
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.tau = tau
        # scalar form: (inverted sort key, Hit) entries of a *min*-heap
        # whose root is the currently-worst retained hit
        self._heap: List[Tuple[Tuple, Hit]] = []
        # columnar form: (query_id, columns, lo, hi), rows best first.
        # Invariant: _pending implies empty _heap.
        self._pending: Optional[Tuple[int, _Columns, int, int]] = None
        self.evaluated = 0  #: total candidates offered (for candidates/sec metrics)

    @staticmethod
    def _heap_key(hit: Hit) -> Tuple:
        # Min-heap must evict the *worst* hit, so the root must be the
        # worst => key orders "worse" < "better".  Worse = lower score,
        # then *larger* structural tie-break fields (sort_key ascending
        # means better, so negate its ordering elementwise).
        k = hit.sort_key()
        return (-k[0], -k[1], -k[2], -k[3], -k[4])

    def _materialize(self) -> None:
        """Turn the parked slice into heap entries (scalar offers only)."""
        if self._pending is None:
            return
        hits = _build_hits(*self._pending)
        self._pending = None
        self._heap = [(self._heap_key(hit), hit) for hit in hits]
        heapq.heapify(self._heap)

    def add(self, hit: Hit) -> bool:
        """Offer a hit; returns True if retained in the top tau."""
        self.evaluated += 1
        self._materialize()
        key = self._heap_key(hit)
        if len(self._heap) < self.tau:
            heapq.heappush(self._heap, (key, hit))
            return True
        if key > self._heap[0][0]:
            heapq.heapreplace(self._heap, (key, hit))
            return True
        return False

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

        The retained set is *provably identical* to offering the
        candidates one at a time through :meth:`add`, but only the
        at-most-tau that can still matter are kept at all:

        * candidates scoring strictly below the currently-worst retained
          hit (with a full list) can never enter — ties are kept, because
          the structural tie-break may still admit them;
        * of the survivors, only the batch's top tau under the *full*
          total order (:meth:`Hit.sort_key`, computed by one vectorized
          lexsort) are offered: any other survivor is outranked by tau
          batch-mates, each of which either stays retained or is evicted
          by something better still — so it can never end in the top tau
          no matter the offer order or prior contents.

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
        truncated = len(idx) > self.tau
        if truncated:
            order = _best_first(columns)[: self.tau]
            columns = tuple(col[order] for col in columns)
        return self.add_top_sorted(
            query_id, columns, 0, len(columns[0]), n, best_first=truncated
        )

    def add_top_sorted(
        self,
        query_id: int,
        columns: _Columns,
        lo: int,
        hi: int,
        offered: int,
        best_first: bool = True,
    ) -> int:
        """Offer a batch represented by its pre-selected top tau.

        Rows ``[lo, hi)`` of ``columns`` — ``(scores, protein_ids,
        starts, stops, masses, mod_deltas)`` arrays — hold the batch's
        top ``min(tau, n)`` candidates under the full total order
        (:meth:`Hit.sort_key`) — exactly the selection :meth:`add_batch`
        computes internally, so the outcome is identical to offering the
        whole batch (see the eviction argument there).  ``offered`` is
        the full batch size, counted into ``evaluated``; ``best_first``
        says the rows are already sorted best-first (they are whenever a
        top-tau truncation actually happened).  Returns how many of the
        rows were retained.

        On an empty list the range is parked by reference: no copy, no
        ``Hit``.  The candidate-major sweep always offers to an empty
        list — it selects a whole block's top tau in one vectorized pass
        and folds a member's earlier rows (:meth:`take_columns`) into
        that same sort.  Any other caller's rows are folded here, one
        small sort per call, and the result parked again.
        """
        self.evaluated += offered
        retained = hi - lo
        if len(self) or not best_first:
            prior = self.take_columns()
            columns = tuple(np.concatenate((p, col[lo:hi])) for p, col in zip(prior, columns))
            order = _best_first(columns)[: self.tau]
            columns = tuple(col[order] for col in columns)
            lo, hi = 0, len(order)
            retained = int(np.count_nonzero(order >= len(prior[0])))
        self._pending = (query_id, columns, lo, hi)
        return retained

    def _worst_score(self) -> float:
        """Score of the worst retained hit (the list must not be empty)."""
        if self._pending is not None:
            _qid, columns, _lo, hi = self._pending
            return columns[0][hi - 1]
        return self._heap[0][1].score

    def would_retain(self, score: float) -> bool:
        """Cheap pre-check: could any hit with this score enter the list?

        Used to skip building Hit objects for hopeless candidates; ties
        must still go through :meth:`add` for deterministic resolution,
        so this returns True on equality.
        """
        return len(self) < self.tau or bool(score >= self._worst_score())

    def __len__(self) -> int:
        if self._pending is not None:
            return self._pending[3] - self._pending[2]
        return len(self._heap)

    def sorted_hits(self) -> List[Hit]:
        """Retained hits, best first, deterministic order."""
        if self._pending is not None:
            # a parked slice is already in output order (same total order
            # as sort_key)
            return _build_hits(*self._pending)
        return sorted((h for _k, h in self._heap), key=Hit.sort_key)

    def columns(self) -> _Columns:
        """:meth:`sorted_hits` as parallel arrays, without the Hit objects.

        Returns ``(scores, protein_ids, starts, stops, masses,
        mod_deltas)``, best first.  A parked slice — what the sweep
        leaves behind for every query — is handed out as six views;
        only a heap goes through its sorted hits.
        """
        if self._pending is not None:
            _qid, columns, lo, hi = self._pending
            return tuple(col[lo:hi] for col in columns)
        return _columns_of(self.sorted_hits())

    def take_columns(self) -> _Columns:
        """:meth:`columns`, and forget the rows (``evaluated`` stays).

        For a caller that folds the retained rows into a sort of its own
        and offers the outcome back through :meth:`add_top_sorted`.
        """
        columns = self.columns()
        self._pending = None
        self._heap = []
        return columns

    def merge(self, other: "TopHitList") -> None:
        """Fold another list's hits into this one (keeps max of tau)."""
        if other.tau != self.tau:
            raise ValueError(f"tau mismatch: {self.tau} vs {other.tau}")
        evaluated = self.evaluated + other.evaluated
        for hit in other.sorted_hits():
            self.add(hit)
        self.evaluated = evaluated  # merging is not re-evaluating


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
    """Flatten ``hitlists[qid].columns()`` for ``query_ids``, in that order."""
    query_ids = list(query_ids)
    per_query = [hitlists[qid].columns() for qid in query_ids]
    counts = [len(cols[0]) for cols in per_query]
    # one more, empty, part: concatenate needs one, and it pins the dtypes
    per_query.append(_EMPTY_COLUMNS)
    return HitColumns(
        np.array(query_ids, dtype=np.int64),
        np.array(counts, dtype=np.int64),
        *(np.concatenate(column) for column in zip(*per_query)),
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


def unpack_hit_columns(columns: HitColumns) -> Dict[int, List[Hit]]:
    """Inverse of :func:`pack_hit_columns`: per-query hits, best first."""
    return dict(HitTable(columns))


def hit_to_payload(hit: Hit) -> dict:
    """JSON-representable form of one hit (query id carried by the caller).

    The flat schema is shared by :meth:`repro.core.results.SearchReport.to_json`
    and the checkpoint format (docs/fault_tolerance.md), so checkpointed
    hits round-trip bit-for-bit: floats pass through ``json`` unchanged
    (``repr``-based, exact for binary64).
    """
    return {
        "score": hit.score,
        "protein_id": hit.protein_id,
        "start": hit.start,
        "stop": hit.stop,
        "mass": hit.mass,
        "mod_delta": hit.mod_delta,
    }


def hit_from_payload(query_id: int, payload: dict) -> Hit:
    """Inverse of :func:`hit_to_payload`."""
    return Hit(
        query_id=query_id,
        score=payload["score"],
        protein_id=payload["protein_id"],
        start=payload["start"],
        stop=payload["stop"],
        mass=payload["mass"],
        mod_delta=payload.get("mod_delta", 0.0),
    )


def hits_to_payload(hits: "dict[int, List[Hit]]") -> dict:
    """Serialize a per-query hit mapping (keys become strings for JSON)."""
    return {str(qid): [hit_to_payload(h) for h in hs] for qid, hs in hits.items()}


def hits_from_payload(payload: dict) -> "dict[int, List[Hit]]":
    """Inverse of :func:`hits_to_payload`."""
    return {
        int(qid): [hit_from_payload(int(qid), h) for h in hs]
        for qid, hs in payload.items()
    }


def merge_hit_lists(lists: Iterable[Sequence[Hit]], tau: int) -> List[Hit]:
    """Merge per-shard hit lists for one query into the global top tau.

    Deterministic regardless of input order; used when the same query was
    scored against different database shards (every parallel algorithm)
    and by the query-transport design alternative the paper discusses.
    """
    merged = TopHitList(tau)
    for hits in lists:
        for hit in hits:
            merged.add(hit)
    return merged.sorted_hits()
