"""Hit records and the bounded top-tau hit list.

"Each worker ... report[s] at most tau hits per query" and every
algorithm "keeps a separate running list of the tau topmost hits for
every query" (paper Sections II.A and II.B).  :class:`TopHitList` is that
running list: a bounded min-heap with a *deterministic total order*, so
that the same candidate set always yields the same tau hits regardless of
evaluation order — the property the paper's validation experiment
(parallel output == serial output) rests on.
"""

from __future__ import annotations

import heapq
from itertools import chain, islice
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

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


class TopHitList:
    """Bounded container keeping the tau best hits for one query.

    ``add`` is O(log tau); ``sorted_hits`` is O(tau log tau).  Ties at the
    cutoff are resolved by :meth:`Hit.sort_key`, never by insertion
    order.
    """

    __slots__ = ("tau", "_heap", "_pending", "_counter", "evaluated")

    def __init__(self, tau: int):
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        self.tau = tau
        # heap entries are (neg_sort_key_inverted,) — we need a *min*-heap
        # whose root is the currently-worst retained hit, so we store
        # inverted keys: tuples that compare smaller for worse hits.
        self._heap: List[Tuple[Tuple, Hit]] = []
        # columnar fast path: the first batch's retained top-tau parks
        # here as plain lists (query_id, scores, proteins, starts, stops,
        # masses, mod_deltas, best_first) and only becomes Hit objects
        # when something actually needs them — a later batch, a scalar
        # add, or sorted_hits.  Invariant: _pending implies empty _heap.
        self._pending = None
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
        """Turn a parked columnar batch into real heap entries."""
        parked = self._pending
        if parked is None:
            return
        self._pending = None
        qid, sc, pr, st, sp, ms, md, _best_first = parked
        new = tuple.__new__
        self._heap = [
            ((a, -b, -c, -d, -e), new(Hit, (qid, a, b, c, d, f, e)))
            for a, b, c, d, f, e in zip(sc, pr, st, sp, ms, md)
        ]
        heapq.heapify(self._heap)

    def add(self, hit: Hit) -> bool:
        """Offer a hit; returns True if retained in the top tau."""
        self.evaluated += 1
        self._materialize()
        return self._push(hit)

    def _push(self, hit: Hit) -> bool:
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
        candidates one at a time through :meth:`add`, but Hit objects are
        only materialised for the at-most-tau that can still matter:

        * candidates scoring strictly below the currently-worst retained
          hit (with a full list) can never enter — ties are kept, because
          the structural tie-break may still admit them;
        * of the survivors, only the batch's top tau under the *full*
          total order (:meth:`Hit.sort_key`, computed by one vectorized
          lexsort) are pushed: any other survivor is outranked by tau
          batch-mates, each of which either stays retained or is evicted
          by something better still — so it can never end in the top tau
          no matter the offer order or prior heap contents.

        Survivors go through the same deterministic heap as the scalar
        path; the heap's outcome is order-independent (total order, no
        duplicate keys within a batch), so tie resolution is unchanged.
        """
        n = len(scores)
        if n == 0:
            self.evaluated += n
            return 0
        idx = np.arange(n)
        if len(self._heap) >= self.tau:
            idx = idx[scores >= self._heap[0][1].score]
        if len(idx) > self.tau:
            order = np.lexsort(
                (
                    mod_deltas[idx],
                    stops[idx],
                    starts[idx],
                    protein_ids[idx],
                    -scores[idx],
                )
            )
            idx = idx[order[: self.tau]]
        return self.add_top_sorted(
            query_id,
            scores[idx].tolist(),
            protein_ids[idx].tolist(),
            starts[idx].tolist(),
            stops[idx].tolist(),
            masses[idx].tolist(),
            mod_deltas[idx].tolist(),
            n,
            best_first=len(idx) > self.tau,
        )

    def add_top_sorted(
        self,
        query_id: int,
        scores: list,
        protein_ids: list,
        starts: list,
        stops: list,
        masses: list,
        mod_deltas: list,
        offered: int,
        best_first: bool = True,
    ) -> int:
        """Offer a batch represented by its pre-selected top tau.

        The column lists hold the batch's top ``min(tau, n)`` candidates
        under the full total order (:meth:`Hit.sort_key`) — exactly the
        selection :meth:`add_batch` computes internally, so the outcome
        is identical to offering the whole batch (see the eviction
        argument there).  ``offered`` is the full batch size, counted
        into ``evaluated``; ``best_first`` records whether the columns
        are sorted best-first (they are whenever a top-tau truncation
        actually happened), which lets :meth:`sorted_hits` skip its
        final sort.  Used by the candidate-major sweep, which performs
        the top-tau selection for a whole cohort in one vectorized pass.

        On the first batch for a query the columns are parked as-is and
        Hit objects are not built at all until something needs them —
        the common serial case materializes exactly once, in
        :meth:`sorted_hits`, already in output order.
        """
        self.evaluated += offered
        if not self._heap:
            if self._pending is None:
                self._pending = (
                    query_id,
                    scores,
                    protein_ids,
                    starts,
                    stops,
                    masses,
                    mod_deltas,
                    best_first,
                )
                return len(scores)
            self._materialize()
        retained = 0
        new = tuple.__new__
        for row in zip(scores, protein_ids, starts, stops, masses, mod_deltas):
            sc, pr, st, sp, ms, md = row
            if self._push(new(Hit, (query_id, sc, pr, st, sp, ms, md))):
                retained += 1
        return retained

    def would_retain(self, score: float) -> bool:
        """Cheap pre-check: could any hit with this score enter the list?

        Used to skip building Hit objects for hopeless candidates; ties
        must still go through :meth:`add` for deterministic resolution,
        so this returns True on equality.
        """
        self._materialize()
        if len(self._heap) < self.tau:
            return True
        return score >= self._heap[0][1].score

    def __len__(self) -> int:
        if self._pending is not None:
            return len(self._pending[1])
        return len(self._heap)

    def sorted_hits(self) -> List[Hit]:
        """Retained hits, best first, deterministic order."""
        if self._pending is not None:
            qid, sc, pr, st, sp, ms, md, best_first = self._pending
            new = tuple.__new__
            hits = [
                new(Hit, (qid, a, b, c, d, f, e))
                for a, b, c, d, f, e in zip(sc, pr, st, sp, ms, md)
            ]
            # a parked batch sorted best-first is already in output
            # order (same total order as sort_key, no duplicate keys)
            return hits if best_first else sorted(hits, key=Hit.sort_key)
        return sorted((h for _k, h in self._heap), key=Hit.sort_key)

    def columns(self) -> Tuple[list, list, list, list, list, list]:
        """:meth:`sorted_hits` as parallel lists, without the Hit objects.

        Returns ``(scores, protein_ids, starts, stops, masses,
        mod_deltas)``, best first.  A parked best-first batch — what the
        sweep leaves behind for every query that saw one shard — is
        handed out as-is; anything else goes through the sorted hits.
        """
        if self._pending is not None and self._pending[7]:
            return self._pending[1:7]
        hits = self.sorted_hits()
        if not hits:
            return ([], [], [], [], [], [])
        _qid, sc, pr, st, sp, ms, md = zip(*hits)
        return (list(sc), list(pr), list(st), list(sp), list(ms), list(md))

    def merge(self, other: "TopHitList") -> None:
        """Fold another list's hits into this one (keeps max of tau)."""
        if other.tau != self.tau:
            raise ValueError(f"tau mismatch: {self.tau} vs {other.tau}")
        evaluated = self.evaluated + other.evaluated
        other._materialize()
        for _k, hit in other._heap:
            self.add(hit)
        self.evaluated = evaluated  # merging is not re-evaluating


class HitColumns(NamedTuple):
    """The top-tau lists of many queries as flat NumPy columns.

    What a worker process returns for its query block: eight arrays
    pickle as eight buffers, where the same hits as ``Hit`` tuples cost
    one object each to dump, load and fold.  Query ``query_ids[i]`` owns
    the next ``counts[i]`` rows of the six hit columns, best first.
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
    hitlists: Dict[int, TopHitList], query_ids: Iterable[int]
) -> HitColumns:
    """Flatten ``hitlists[qid].columns()`` for ``query_ids``, in that order."""
    query_ids = list(query_ids)
    per_query = [hitlists[qid].columns() for qid in query_ids]
    counts = [len(cols[0]) for cols in per_query]
    total = sum(counts)

    def column(k: int, dtype) -> np.ndarray:
        flat = chain.from_iterable(cols[k] for cols in per_query)
        return np.fromiter(flat, dtype=dtype, count=total)

    return HitColumns(
        np.array(query_ids, dtype=np.int64),
        np.array(counts, dtype=np.int64),
        column(0, np.float64),
        column(1, np.int64),
        column(2, np.int64),
        column(3, np.int64),
        column(4, np.float64),
        column(5, np.float64),
    )


def unpack_hit_columns(columns: HitColumns) -> Dict[int, List[Hit]]:
    """Inverse of :func:`pack_hit_columns`: per-query hits, best first."""
    qids = columns.query_ids.tolist()
    new = tuple.__new__
    rows = zip(*(col.tolist() for col in columns[2:]))
    hits: Dict[int, List[Hit]] = {}
    for qid, count in zip(qids, columns.counts.tolist()):
        hits[qid] = [
            new(Hit, (qid, sc, pr, st, sp, ms, md))
            for sc, pr, st, sp, ms, md in islice(rows, count)
        ]
    return hits


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
