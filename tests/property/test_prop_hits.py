"""The columnar hit path against the definition of a top-tau list.

``score_and_offer_block`` selects a whole block's top tau in one sort and
parks each member a slice of the result beside the segments earlier
blocks gave it; a list folds its segments only past ``2 * tau`` rows or
when read.  The oracle is the definition, per query: ``sorted(every hit
offered, key=Hit.sort_key)[:tau]`` and ``evaluated`` = every candidate
offered — whatever the order of blocks, with ties, repeated candidates,
filtered rows, ``add_batch`` offers and reads in between.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import ShardStats, score_and_offer_block
from repro.scoring.hits import (
    Hit,
    HitTable,
    TopHitList,
    as_hit_columns,
    best_first_order,
    pack_hit_columns,
)
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from tests.reference import offer_hits, top_tau

# few distinct values per field: ties at the cutoff and candidates that
# arrive twice (same protein, span and mod_delta) are the common case
_ROW = st.tuples(
    st.sampled_from([0.0, 1.0, 1.5, 2.0]),  # score
    st.integers(0, 3),  # protein id
    st.integers(0, 2),  # start
    st.integers(1, 6),  # length
    st.sampled_from([0.0, 15.994915]),  # mod_delta
)
_BATCH = st.lists(_ROW, min_size=0, max_size=12)


def _spectrum(qid):
    return Spectrum(np.array([100.0]), np.array([1.0]), 500.0, 1, qid)


def _hit(qid, row):
    score, pid, start, length, mod = row
    return Hit(qid, score, pid, start, start + length, 1000.0 + pid, mod)


def _offer_block(cfg, hitlists, batches):
    """One ``score_and_offer_block`` call: ``batches`` maps qid -> rows."""
    qids = list(batches)
    rows = [row for qid in qids for row in batches[qid]]
    score, pid, start, length, mod = (np.array(col) for col in zip(*rows)) if rows else ([],) * 5
    table_scores = np.asarray(score, dtype=np.float64)
    pid, start, length = (np.asarray(a, dtype=np.int64) for a in (pid, start, length))
    mod = np.asarray(mod, dtype=np.float64)
    stats = ShardStats()
    score_and_offer_block(
        cfg,
        stats,
        hitlists,
        SpectrumBatch([_spectrum(qid) for qid in qids]),
        np.arange(len(rows), dtype=np.int64),
        np.repeat(np.arange(len(qids), dtype=np.int64), [len(batches[q]) for q in qids]),
        length,
        lambda spectra, kept: (table_scores[np.concatenate(kept)], sum(map(len, kept)), 0),
        lambda sel: (pid[sel], start[sel], start[sel] + length[sel], 1000.0 + pid[sel], mod[sel]),
    )
    assert stats.candidates_evaluated == len(rows)


def _kept(cfg, qid, rows):
    """The hits of ``rows`` the block emit may retain: long enough, not cut."""
    return [
        _hit(qid, row)
        for row in rows
        if row[3] >= cfg.min_candidate_length
        and (cfg.score_cutoff is None or row[0] >= cfg.score_cutoff)
    ]


@settings(max_examples=150, deadline=None)
@given(
    tau=st.integers(1, 8),
    per_query=st.lists(st.lists(_BATCH, min_size=1, max_size=4), min_size=1, max_size=4),
    one_hit_offers=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _ROW), max_size=3),
    cutoff=st.sampled_from([None, 1.0]),
    min_length=st.sampled_from([1, 3]),
    data=st.data(),
)
def test_block_emit_with_fold_equals_sequential_add(
    tau, per_query, one_hit_offers, cutoff, min_length, data
):
    cfg = SimpleNamespace(tau=tau, score_cutoff=cutoff, min_candidate_length=min_length)
    emitted = {qid: TopHitList(tau) for qid in range(len(per_query))}
    offered = {qid: [] for qid in emitted}  # what each list may keep
    evaluated = dict.fromkeys(emitted, 0)
    # round r offers every query's r-th batch as one block, members in a
    # drawn order; a query's batches themselves come in a drawn order
    per_query = [data.draw(st.permutations(batches)) for batches in per_query]
    for r in range(max(map(len, per_query))):
        members = [qid for qid, batches in enumerate(per_query) if r < len(batches)]
        members = data.draw(st.permutations(members))
        _offer_block(cfg, emitted, {qid: per_query[qid][r] for qid in members})
        for qid in members:
            offered[qid] += _kept(cfg, qid, per_query[qid][r])
            evaluated[qid] += len(per_query[qid][r])  # skipped rows were offered too
        # a one-hit add_batch between two block offers folds the segments
        for after, qid, row in one_hit_offers:
            if after == r and qid in emitted:
                offer_hits(emitted[qid], qid, [_hit(qid, row)])
                offered[qid].append(_hit(qid, row))
                evaluated[qid] += 1
    oracle = {qid: top_tau(hits, tau) for qid, hits in offered.items()}
    for qid in oracle:
        assert emitted[qid].sorted_hits() == oracle[qid]
        assert emitted[qid].evaluated == evaluated[qid]
        assert len(emitted[qid]) == len(oracle[qid]) <= tau
    # ... and the packed table says the same, field for field
    assert HitTable(pack_hit_columns(emitted, emitted)) == oracle


@settings(max_examples=100, deadline=None)
@given(
    tau=st.integers(1, 8),
    batches=st.lists(_BATCH, min_size=1, max_size=4),
)
def test_add_batch_equals_sequential_add(tau, batches):
    """The reference route (``tests/reference.py``): per query, any number of batches."""
    batched, offered = TopHitList(tau), []
    for rows in batches:
        hits = [_hit(7, row) for row in rows]
        offered += hits
        cols = list(zip(*(h[1:] for h in hits))) if hits else [()] * 6
        batched.add_batch(
            7,
            np.array(cols[0], dtype=np.float64),
            np.array(cols[1], dtype=np.int64),
            np.array(cols[2], dtype=np.int64),
            np.array(cols[3], dtype=np.int64),
            np.array(cols[4], dtype=np.float64),
            np.array(cols[5], dtype=np.float64),
        )
    assert batched.sorted_hits() == top_tau(offered, tau)
    assert batched.evaluated == len(offered)


@settings(max_examples=100, deadline=None)
@given(
    tau=st.integers(1, 6),
    lists=st.dictionaries(st.integers(0, 50), _BATCH, max_size=6),
)
def test_table_is_the_dict_it_replaces(tau, lists):
    hitlists = {}
    for qid, rows in lists.items():
        hitlists[qid] = TopHitList(tau)
        offer_hits(hitlists[qid], qid, [_hit(qid, row) for row in rows])
    columns = pack_hit_columns(hitlists, hitlists)
    table = HitTable(columns)
    plain = {qid: hl.sorted_hits() for qid, hl in hitlists.items()}
    assert dict(table) == plain
    assert table == plain and plain == table
    assert list(table) == list(plain) and len(table) == len(plain)
    assert [(q, h) for q, h in table.items()] == list(plain.items())
    assert all(qid in table for qid in plain) and -1 not in table
    assert table.get(-1) is None and table.get(-1, []) == []


def _columns(hits):
    """The six hit columns of ``hits``, in their order."""
    cols = list(zip(*(h[1:] for h in hits))) if hits else [()] * 6
    return tuple(
        np.array(col, dtype=dtype)
        for col, dtype in zip(cols, (np.float64, np.int64, np.int64, np.int64, np.float64, np.float64))
    )


def _parked_rows(hl):
    """Rows a list holds in its head and parked segments, counted from them."""
    head = 0 if hl._pending is None else hl._pending[3] - hl._pending[2]
    return head + sum(hi - lo for _cols, lo, hi in hl._parked)


_READS = {
    "len": len,
    "sorted_hits": TopHitList.sorted_hits,
    "pack": lambda hl: pack_hit_columns({0: hl}, [0]),
}


@settings(max_examples=150, deadline=None)
@given(
    tau=st.integers(1, 6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add_top_sorted", "add_batch"]),
            _BATCH,
            st.integers(0, 3),  # junk rows before the parked range
            st.lists(st.sampled_from(sorted(_READS)), max_size=2),  # reads after
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_lazy_fold_equals_sequential_add(tau, ops):
    """Block offers park segments, ``add_batch`` folds at once, reads fold
    on demand — in any interleaving the list is the top tau of all it was
    offered, ``evaluated`` counts every offer, and no list ever holds more
    than ``2 * tau`` rows of its own."""
    hl, offered, evaluated = TopHitList(tau), [], 0
    for how, rows, junk, reads in ops:
        hits = [_hit(9, row) for row in rows]
        if how == "add_batch":
            hl.add_batch(9, *_columns(hits))
        else:
            # the batch's top tau, best first, inside a larger table
            top = [hits[i] for i in best_first_order(_columns(hits))[:tau]] if hits else []
            table = _columns([_hit(9, (9.0, 0, 0, 1, 0.0))] * junk + top + hits)
            hl.add_top_sorted(9, table, junk, junk + len(top), offered=len(hits))
        offered += hits
        evaluated += len(hits)
        assert _parked_rows(hl) == hl._rows <= 2 * tau
        want = top_tau(offered, tau)
        for read in reads:
            _READS[read](hl)
            assert _parked_rows(hl) <= 2 * tau
        assert len(hl) == len(want)
    assert hl.sorted_hits() == top_tau(offered, tau)
    assert hl.evaluated == evaluated
    packed = HitTable(pack_hit_columns({9: hl}, [9]))
    assert packed[9] == top_tau(offered, tau)


@settings(max_examples=150, deadline=None)
@given(
    tau=st.integers(1, 6),
    rounds=st.lists(st.dictionaries(st.integers(0, 5), _BATCH, max_size=4), min_size=1, max_size=5),
    batch_offers=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5), _BATCH), max_size=4),
    order=st.permutations(range(7)),
)
def test_grouped_pack_equals_per_list_columns(tau, rounds, batch_offers, order):
    """``pack_hit_columns`` gathers every list's segments from the tables
    they view and folds the lists holding several in one grouped step:
    after block offers (segments of shared block tables, parked by
    reference) interleaved with ``add_batch`` folds, it packs what each
    list's ``sorted_hits()`` reads, masses included, in the order asked
    (query 6 is offered nothing), and leaves every list as it found it."""
    cfg = SimpleNamespace(tau=tau, score_cutoff=None, min_candidate_length=1)
    hitlists = {qid: TopHitList(tau) for qid in range(7)}
    for r, batches in enumerate(rounds):
        _offer_block(cfg, hitlists, batches)
        for after, qid, rows in batch_offers:
            if after == r:
                hits = [_hit(qid, row)._replace(mass=2000.0) for row in rows]
                hitlists[qid].add_batch(qid, *_columns(hits))
                # the same candidates again, parked behind the fold: keys
                # tie, masses differ, so the order of equal keys shows
                _offer_block(cfg, hitlists, {qid: rows})
    before = {qid: (hl._pending, list(hl._parked), hl._rows) for qid, hl in hitlists.items()}
    packed = pack_hit_columns(hitlists, order)
    for qid, hl in hitlists.items():
        pending, parked, rows = before[qid]
        assert hl._pending is pending and hl._rows == rows
        assert [id(s) for s in hl._parked] == [id(s) for s in parked]
    want = as_hit_columns({qid: hitlists[qid].sorted_hits() for qid in order})
    assert packed.query_ids.tolist() == list(order)
    for got, column in zip(packed[1:], want[1:]):
        assert got.dtype == column.dtype and np.array_equal(got, column)
