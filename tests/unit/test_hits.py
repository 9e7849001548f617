"""Unit tests for Hit and TopHitList (the running top-tau list)."""

import pickle

import numpy as np
import pytest

from repro.core.results import merge_rank_hits
from repro.scoring import hits as hits_module
from repro.scoring.hits import (
    Hit,
    HitTable,
    TopHitList,
    as_hit_columns,
    pack_hit_columns,
)
from tests.reference import offer_hits, top_tau


def make_hit(score, pid=0, start=0, stop=10, qid=0):
    return Hit(query_id=qid, score=score, protein_id=pid, start=start, stop=stop, mass=1000.0)


class TestHit:
    def test_sort_key_orders_by_score_desc(self):
        hits = sorted([make_hit(1.0), make_hit(3.0), make_hit(2.0)], key=Hit.sort_key)
        assert [h.score for h in hits] == [3.0, 2.0, 1.0]

    def test_ties_broken_structurally(self):
        a = make_hit(1.0, pid=2)
        b = make_hit(1.0, pid=1)
        assert sorted([a, b], key=Hit.sort_key) == [b, a]

    def test_length(self):
        assert make_hit(1.0, start=3, stop=9).length == 6


def offer_each(hl, hits):
    """Offer ``hits`` one at a time, one ``add_batch`` each."""
    return [offer_hits(hl, hit.query_id, [hit]) for hit in hits]


def packed(hl):
    """The list's six hit columns, as a report packs them."""
    return pack_hit_columns({0: hl}, [0])[2:]


class TestTopHitList:
    def test_keeps_best_tau(self):
        hl = TopHitList(3)
        offer_each(hl, [make_hit(s, pid=int(s)) for s in [5.0, 1.0, 3.0, 4.0, 2.0]])
        assert [h.score for h in hl.sorted_hits()] == [5.0, 4.0, 3.0]

    def test_add_returns_retained_flag(self):
        hl = TopHitList(1)
        hits = [make_hit(1.0, pid=1), make_hit(2.0, pid=2), make_hit(0.5, pid=3)]
        assert offer_each(hl, hits) == [1, 1, 0]

    def test_evaluated_counts_all_offers(self):
        hl = TopHitList(1)
        offer_each(hl, [make_hit(float(s), pid=s) for s in range(3)])
        offer_hits(hl, 0, [make_hit(float(s), pid=s) for s in range(3, 5)])
        assert hl.evaluated == 5
        assert len(hl) == 1

    def test_order_independence(self):
        """The paper's validation property: same hits in, same tau out,
        however they are cut into batches."""
        hits = [make_hit(float(s % 7), pid=s) for s in range(50)]
        a, b, c = TopHitList(10), TopHitList(10), TopHitList(10)
        offer_each(a, hits)
        offer_each(b, reversed(hits))
        for k in range(0, 50, 7):
            offer_hits(c, 0, hits[k : k + 7])
        assert a.sorted_hits() == b.sorted_hits() == c.sorted_hits() == top_tau(hits, 10)

    def test_tie_at_cutoff_resolved_deterministically(self):
        # four same-score hits fighting for three slots
        hits = [make_hit(1.0, pid=p) for p in (3, 1, 2, 0)]
        a, b = TopHitList(3), TopHitList(3)
        offer_each(a, hits)
        offer_each(b, sorted(hits, key=Hit.sort_key))
        assert a.sorted_hits() == b.sorted_hits()
        assert [h.protein_id for h in a.sorted_hits()] == [0, 1, 2]

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            TopHitList(0)


class TestMergeHitLists:
    """Per-shard lists of one query fold to the global top tau
    (``merge_rank_hits``)."""

    def test_global_top_from_shards(self):
        shard1 = {0: [make_hit(5.0, pid=1), make_hit(1.0, pid=2)]}
        shard2 = {0: [make_hit(4.0, pid=3), make_hit(3.0, pid=4)]}
        merged = merge_rank_hits([shard1, shard2], tau=3)
        assert [h.score for h in merged[0]] == [5.0, 4.0, 3.0]

    def test_input_order_irrelevant(self):
        shard1 = {0: [make_hit(float(i), pid=i) for i in range(5)]}
        shard2 = {0: [make_hit(float(i) + 0.5, pid=10 + i) for i in range(5)]}
        assert merge_rank_hits([shard1, shard2], 4) == merge_rank_hits([shard2, shard1], 4)


def _offer(hl, qid, scores, pids):
    """One add_batch of candidates (scores[i], protein pids[i]) for ``qid``."""
    n = len(scores)
    return hl.add_batch(
        qid,
        np.asarray(scores, dtype=np.float64),
        np.asarray(pids, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        np.arange(n, dtype=np.int64) + 7,
        np.full(n, 900.5),
        np.zeros(n),
    )


class TestHitColumns:
    """The packed form is ``sorted_hits()`` minus the objects."""

    def _lists(self):
        tied = [2.0, 1.0, 1.0, 1.0, 1.0, 0.5]  # four-way tie across the cutoff
        parked_sorted = TopHitList(3)  # truncated: parked best-first
        _offer(parked_sorted, 1, tied, [9, 4, 2, 8, 6, 1])
        parked_unsorted = TopHitList(10)  # fits whole: offered unsorted, sorted as it parks
        _offer(parked_unsorted, 2, tied, [9, 4, 2, 8, 6, 1])
        one_by_one = TopHitList(3)
        offer_each(one_by_one, [make_hit(s, p, qid=3) for s, p in zip(tied, [9, 4, 2, 8, 6, 1])])
        multi = TopHitList(3)  # second batch is folded into the parked slice
        _offer(multi, 4, tied, [9, 4, 2, 8, 6, 1])
        _offer(multi, 4, [1.0, 3.0], [0, 5])
        return {1: parked_sorted, 2: parked_unsorted, 3: one_by_one, 4: multi, 5: TopHitList(3)}

    def test_columns_match_sorted_hits(self):
        for qid, hl in self._lists().items():
            hits = hl.sorted_hits()
            columns = packed(hl)
            assert [c.dtype.kind for c in columns] == list("fiiiff")
            sc, pr, st, sp, ms, md = (c.tolist() for c in columns)
            rebuilt = [Hit(qid, *row[:4], row[4], row[5]) for row in zip(sc, pr, st, sp, ms, md)]
            assert rebuilt == hits
            assert [h.mass for h in rebuilt] == [h.mass for h in hits]
            assert hl.sorted_hits() == hits  # the accessor consumed nothing

    def test_lists_park_array_ranges_never_lists(self):
        for qid, hl in self._lists().items():
            if qid == 5:  # nothing offered: no slice
                assert hl._pending is None
                continue
            parked_qid, columns, lo, hi = hl._pending
            assert parked_qid == qid and hi - lo == len(hl)
            assert all(isinstance(c, np.ndarray) for c in columns) and len(columns) == 6

    def test_truncated_batch_is_parked_as_sorted(self, monkeypatch):
        """``add_batch`` takes the sorted-or-not flag *before* it cuts the
        batch to tau: a truncated batch was lexsorted to be cut, and is
        parked as it is — not sorted a second time, no ``Hit`` on the way."""
        sorts = []
        best_first = hits_module.best_first_order
        monkeypatch.setattr(
            hits_module,
            "best_first_order",
            lambda cols: sorts.append(len(cols[0])) or best_first(cols),
        )
        monkeypatch.setattr(hits_module, "_build_hits", lambda *a: pytest.fail("built a Hit"))
        tau = 4
        hl = TopHitList(tau)
        pids = [5, 3, 8, 1, 7, 2, 6, 4, 0]  # tau + 5 rows, one score: all tie-break
        assert _offer(hl, 1, [1.0] * len(pids), pids) == tau
        assert sorts == [len(pids)]  # the one sort that selected the top tau
        assert packed(hl)[1].tolist() == [0, 1, 2, 3] and hl.evaluated == len(pids)
        monkeypatch.undo()
        assert [h[1:] for h in hl.sorted_hits()] == list(zip(*(c.tolist() for c in packed(hl))))

    def test_parked_slice_is_a_view_of_the_offered_table(self):
        """``add_top_sorted`` on an empty list parks ``[lo, hi)`` by reference."""
        table = (
            np.array([9.0, 3.0, 2.0, 1.0]),
            np.array([1, 2, 3, 4]),
            np.zeros(4, dtype=np.int64),
            np.full(4, 7),
            np.full(4, 800.0),
            np.zeros(4),
        )
        hl = TopHitList(5)
        assert hl.add_top_sorted(6, table, 1, 3, offered=10) == 2
        assert hl.evaluated == 10 and len(hl) == 2
        assert all(np.shares_memory(got, col) for got, col in zip(hl._pending[1], table))
        assert [h.protein_id for h in hl.sorted_hits()] == [2, 3]

    def test_offers_fold_into_the_slice(self):
        """Every ``add_batch`` folds into the parked slice at once; a full
        list drops a batch row below its worst before sorting."""
        hl = TopHitList(3)
        _offer(hl, 1, [5.0, 4.0, 3.0, 2.0], [1, 2, 3, 4])
        assert _offer(hl, 1, [4.5, 1.0], [9, 8]) == 1
        assert _offer(hl, 1, [4.0, 6.0], [0, 7]) == 1  # 6.0 enters, the 4.0s fall off
        assert hl._pending is not None and hl._parked == []
        assert [(h.score, h.protein_id) for h in hl.sorted_hits()] == [(6.0, 7), (5.0, 1), (4.5, 9)]
        assert hl.evaluated == 8

    def test_block_offers_park_segments_until_two_tau(self):
        """``add_top_sorted`` parks each later block's rows as a segment by
        reference; the offer that would take the list past ``2 * tau``
        rows folds it, and a read folds what is parked."""
        tau = 2

        def block(scores, pids):
            n = len(scores)
            return (
                np.asarray(scores, dtype=np.float64),
                np.asarray(pids, dtype=np.int64),
                np.zeros(n, dtype=np.int64),
                np.full(n, 5, dtype=np.int64),
                np.full(n, 600.0),
                np.zeros(n),
            )

        hl = TopHitList(tau)
        first, second = block([3.0, 1.0], [1, 2]), block([2.0, 0.5], [3, 4])
        hl.add_top_sorted(1, first, 0, 2, offered=4)
        hl.add_top_sorted(1, second, 0, 2, offered=2)
        assert len(hl._parked) == 1 and len(hl) == tau and hl._rows == 2 * tau
        assert all(np.shares_memory(a, b) for a, b in zip(hl._pending[1], first))
        hl.add_top_sorted(1, block([2.5], [5]), 0, 1, offered=1)  # 5 rows > 2 * tau: fold
        assert hl._parked == [] and hl._rows == tau
        assert packed(hl)[1].tolist() == [1, 5] and hl.evaluated == 7
        hl.add_top_sorted(1, block([9.0], [6]), 0, 1, offered=1)  # parked
        assert len(hl._parked) == 1
        assert [h.protein_id for h in hl.sorted_hits()] == [6, 1] and hl._parked == []

    def test_tie_at_cutoff_survives_the_columns(self):
        lists = self._lists()
        for qid in (1, 3):
            assert [h.protein_id for h in HitTable(
                pack_hit_columns(lists, [qid])
            )[qid]] == [9, 2, 4]
        assert [h.protein_id for h in lists[4].sorted_hits()] == [5, 9, 0]

    def test_pack_unpack_round_trip_through_pickle(self):
        lists = self._lists()
        order = [4, 5, 1, 3, 2]
        columns = pickle.loads(pickle.dumps(pack_hit_columns(lists, order)))
        assert columns.query_ids.tolist() == order
        assert columns.counts.tolist() == [3, 0, 3, 3, 6]
        hits = dict(HitTable(columns))
        assert list(hits) == order
        for qid, hl in lists.items():
            assert hits[qid] == hl.sorted_hits()
            assert all(type(h) is Hit and h.query_id == qid for h in hits[qid])
            for got, want in zip(hits[qid], hl.sorted_hits()):
                assert (got.mass, type(got.protein_id), type(got.score)) == (
                    want.mass, int, float,
                )

    def test_pack_nothing(self):
        columns = pack_hit_columns({}, [])
        assert len(columns.scores) == 0
        assert [c.dtype.kind for c in columns] == list("iifiiiff")
        assert dict(HitTable(columns)) == {}

    def test_table_over_the_columns_is_the_unpacked_dict(self):
        lists = self._lists()
        columns = pack_hit_columns(lists, [4, 5, 1, 3, 2])
        table = HitTable(columns)
        assert dict(table) == dict(HitTable(columns)) == table
        assert table[5] == [] and 5 in table and len(table) == 5
        assert as_hit_columns(table) is columns and as_hit_columns(columns) is columns
        repacked = as_hit_columns(dict(table))  # a plain dict is packed on demand
        for got, want in zip(repacked, columns):
            assert got.dtype == want.dtype and np.array_equal(got, want)
