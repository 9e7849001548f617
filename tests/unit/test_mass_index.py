"""Unit tests for the mass-sorted row table (``MassIndex``)."""

import numpy as np
import pytest

from repro.candidates.mass_index import (
    CandidateSpans,
    MassIndex,
    SweepPlan,
    coalesce_windows,
    plan_sweep,
)
from repro.chem.peptide import peptide_mass
from repro.chem.protein import ProteinDatabase


@pytest.fixture()
def db():
    return ProteinDatabase.from_sequences(["MKTAYIAK", "PEPTIDE", "GG"])


@pytest.fixture()
def index(db):
    return MassIndex(db)


def brute_force_candidates(db, lo, hi):
    """Reference enumeration: every prefix and suffix, deduplicated."""
    found = set()
    for i in range(len(db)):
        seq = db.sequence(i)
        for length in range(1, len(seq) + 1):
            if lo <= peptide_mass(seq[:length]) <= hi:
                found.add((i, 0, length))
            if length < len(seq):  # full-length counted once, as prefix
                if lo <= peptide_mass(seq[-length:]) <= hi:
                    found.add((i, len(seq) - length, len(seq)))
    return found


class TestWindows:
    @pytest.mark.parametrize(
        "window",
        [(0.0, 1e9), (300.0, 500.0), (700.0, 900.0), (100.0, 100.0), (1e6, 2e6)],
    )
    def test_enumeration_matches_brute_force(self, db, index, window):
        lo, hi = window
        spans = index.candidates_in_window(lo, hi)
        got = {
            (int(spans.seq_index[k]), int(spans.start[k]), int(spans.stop[k]))
            for k in range(len(spans))
        }
        assert got == brute_force_candidates(db, lo, hi)

    @pytest.mark.parametrize("window", [(0.0, 1e9), (300.0, 500.0), (800.0, 950.0)])
    def test_count_matches_enumeration(self, index, window):
        lo, hi = window
        assert index.count_in_window(lo, hi) == len(index.candidates_in_window(lo, hi))

    def test_masses_reported_correctly(self, db, index):
        spans = index.candidates_in_window(0.0, 1e9)
        for k in range(len(spans)):
            seq = db.sequence(int(spans.seq_index[k]))
            sub = seq[int(spans.start[k]) : int(spans.stop[k])]
            assert spans.mass[k] == pytest.approx(peptide_mass(sub))

    def test_no_duplicate_spans(self, index):
        spans = index.candidates_in_window(0.0, 1e9)
        keys = {
            (int(spans.seq_index[k]), int(spans.start[k]), int(spans.stop[k]))
            for k in range(len(spans))
        }
        assert len(keys) == len(spans)

    def test_total_span_count(self, db, index):
        # distinct spans = 2N - n (every position is a prefix end and a
        # suffix start; full-length spans counted once)
        expected = 2 * db.total_residues - len(db)
        assert index.count_in_window(0.0, 1e9) == expected

    def test_empty_window(self, index):
        assert index.count_in_window(5.0, 6.0) == 0
        assert len(index.candidates_in_window(5.0, 6.0)) == 0

    def test_count_many_vectorized(self, index):
        lows = np.array([0.0, 300.0, 1e6])
        highs = np.array([1e9, 500.0, 2e6])
        counts = index.count_many(lows, highs)
        for k in range(3):
            assert counts[k] == index.count_in_window(lows[k], highs[k])

    def test_nbytes_positive(self, index):
        assert index.nbytes > 0


class TestSweepEnumeration:
    WINDOWS = [(0.0, 1e9), (300.0, 500.0), (700.0, 900.0), (100.0, 100.0), (1e6, 2e6)]

    def test_windows_many_matches_scalar_enumeration(self, index):
        lows = np.array([w[0] for w in self.WINDOWS])
        highs = np.array([w[1] for w in self.WINDOWS])
        r0, r1 = index.windows_many(lows, highs)
        for k, (lo, hi) in enumerate(self.WINDOWS):
            spans, rows = index.sweep_spans(r0[k], r1[k])
            assert np.array_equal(rows, np.arange(r0[k], max(r0[k], r1[k])))
            ref = index.candidates_in_window(lo, hi)
            assert len(spans) == len(ref)
            assert np.array_equal(spans.seq_index, ref.seq_index)
            assert np.array_equal(spans.start, ref.start)
            assert np.array_equal(spans.stop, ref.stop)
            assert np.array_equal(spans.mass, ref.mass)

    def test_sweep_spans_dedups_suffixes(self, db, index):
        # union block over the whole mass range must carry no duplicates
        r0, r1 = index.windows_many(np.array([0.0]), np.array([1e9]))
        spans, rows = index.sweep_spans(r0[0], r1[0])
        keys = {
            (int(spans.seq_index[k]), int(spans.start[k]), int(spans.stop[k]))
            for k in range(len(spans))
        }
        assert len(keys) == len(spans) == 2 * db.total_residues - len(db)
        # a prefix key (k >= 0) starts its sequence; no suffix key does
        assert np.array_equal(spans.start == 0, index.key[rows] >= 0)

    def test_empty_window_fast_path(self, index):
        assert len(index.candidates_in_window(5.0, 6.0)) == 0
        r0, r1 = index.windows_many(np.array([5.0]), np.array([6.0]))
        spans, rows = index.sweep_spans(r0[0], r1[0])
        assert len(spans) == 0 and len(rows) == 0

    def test_inverted_window_yields_empty(self, index):
        assert len(index.candidates_in_window(500.0, 300.0)) == 0


class TestCoalesceWindows:
    def test_disjoint_windows_stay_separate(self):
        lows = np.array([0.0, 10.0, 20.0])
        highs = np.array([1.0, 11.0, 21.0])
        assert coalesce_windows(lows, highs, 32) == [(0, 1), (1, 2), (2, 3)]

    def test_overlapping_windows_merge_transitively(self):
        lows = np.array([0.0, 0.5, 1.2, 50.0])
        highs = np.array([1.0, 1.5, 2.0, 51.0])
        # window 2 overlaps the running [0, 1.5] union via window 1
        assert coalesce_windows(lows, highs, 32) == [(0, 3), (3, 4)]

    def test_max_cohort_caps_merging(self):
        lows = np.zeros(5)
        highs = np.ones(5)
        assert coalesce_windows(lows, highs, 2) == [(0, 2), (2, 4), (4, 5)]
        assert coalesce_windows(lows, highs, 1) == [(k, k + 1) for k in range(5)]

    def test_empty_input(self):
        assert coalesce_windows(np.array([]), np.array([]), 32) == []

    def test_cohorts_cover_all_queries_once(self):
        rng = np.random.default_rng(3)
        lows = np.sort(rng.uniform(0.0, 100.0, 40))
        highs = lows + rng.uniform(0.0, 10.0, 40)
        cohorts = coalesce_windows(lows, highs, 8)
        assert cohorts[0][0] == 0 and cohorts[-1][1] == 40
        for (a, b), (c, _d) in zip(cohorts, cohorts[1:]):
            assert a < b == c
        assert all(b - a <= 8 for a, b in cohorts)


class TestSweepPlan:
    @pytest.mark.parametrize("cap", [1, 2, 5, 64])
    def test_blocks_partition_members_in_order_under_the_cap(self, cap):
        rng = np.random.default_rng(11)
        lows = np.sort(rng.uniform(0.0, 400.0, 120))
        highs = lows + rng.uniform(0.0, 6.0, 120)
        plan = plan_sweep(lows, highs, cap)
        blocks = list(plan.blocks())
        assert plan.num_blocks == len(blocks)
        assert blocks[0][0] == 0 and blocks[-1][1] == 120
        assert blocks[0][2] == 0 and blocks[-1][3] == len(plan.run_bounds) - 1
        for (a, b, r0, r1), (c, _d, r2, _r3) in zip(blocks, blocks[1:]):
            assert a < b == c and r0 < r1 == r2
        assert all(b - a <= cap for a, b, _r0, _r1 in blocks)

    @pytest.mark.parametrize("cap", [1, 2, 5, 64])
    def test_no_block_splits_a_run(self, cap):
        rng = np.random.default_rng(12)
        lows = np.sort(rng.uniform(0.0, 300.0, 90))
        highs = lows + rng.uniform(0.0, 5.0, 90)
        runs = coalesce_windows(lows, highs, cap)
        plan = plan_sweep(lows, highs, cap)
        assert plan.run_bounds.tolist() == [0] + [b for _a, b in runs]
        edges = {a for a, _b, _r0, _r1 in plan.blocks()} | {90}
        for a, b in runs:  # a block edge never falls strictly inside a run
            assert not any(a < e < b for e in edges)

    def test_disjoint_windows_pack_up_to_the_cap(self):
        lows = np.arange(5) * 10.0
        plan = plan_sweep(lows, lows + 1.0, 2)
        assert [(a, b) for a, b, _r0, _r1 in plan.blocks()] == [(0, 2), (2, 4), (4, 5)]
        assert plan_sweep(lows, lows + 1.0, 64).num_blocks == 1

    def test_run_cut_at_the_cap_fills_blocks_alone(self):
        # five stacked windows at cap 2 are runs (0,2) (2,4) (4,5); the
        # remainder then shares a block with the disjoint run after it
        lows = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 50.0])
        plan = plan_sweep(lows, lows + 1.0, 2)
        assert list(plan.blocks()) == [(0, 2, 0, 1), (2, 4, 1, 2), (4, 6, 2, 4)]

    def test_whole_runs_stay_together_below_the_cap(self):
        # runs of 2, 1, 2 at cap 4: the third run does not fit the first block
        lows = np.array([0.0, 0.5, 10.0, 20.0, 20.5])
        plan = plan_sweep(lows, lows + 1.0, 4)
        assert list(plan.blocks()) == [(0, 3, 0, 2), (3, 5, 2, 3)]

    def test_pack_without_overlap_is_fixed_size_chunks(self):
        plan = SweepPlan.pack(np.arange(11), 4)
        assert [(a, b) for a, b, _r0, _r1 in plan.blocks()] == [(0, 4), (4, 8), (8, 10)]

    def test_empty_input(self):
        plan = plan_sweep(np.array([]), np.array([]), 32)
        assert plan.num_blocks == 0 and list(plan.blocks()) == []

    def test_sweep_spans_over_run_arrays_skips_the_gaps(self, index):
        lows = np.array([250.0, 500.0, 900.0])
        r0, r1 = index.windows_many(lows, lows + 40.0)
        block, rows = index.sweep_spans(r0, r1)
        runs = [index.sweep_spans(*bounds) for bounds in zip(r0, r1)]
        assert len(block) == sum(len(spans) for spans, _rows in runs) > 0
        assert np.array_equal(rows, np.concatenate([r for _spans, r in runs]))
        assert len(rows) < r1[-1] - r0[0]  # the rows between two runs are skipped
        expected = CandidateSpans.concat([spans for spans, _rows in runs])
        for field in ("seq_index", "start", "stop", "mass", "mod_delta"):
            assert np.array_equal(getattr(block, field), getattr(expected, field))


class TestCandidateSpans:
    def test_empty(self):
        assert len(CandidateSpans.empty()) == 0

    def test_concat(self):
        a = CandidateSpans(
            np.array([0]), np.array([0]), np.array([3]), np.array([1.0]), np.array([0.0])
        )
        b = CandidateSpans.empty()
        c = CandidateSpans.concat([a, b, a])
        assert len(c) == 2
        assert list(c.seq_index) == [0, 0]

    def test_concat_empty_list(self):
        assert len(CandidateSpans.concat([])) == 0


class TestSharedPerDatabase:
    def test_searchers_over_one_database_share_the_index(self, db):
        from repro.core.config import SearchConfig
        from repro.core.search import ShardSearcher

        a = ShardSearcher(db, SearchConfig(scorer="shared_peaks"))
        b = ShardSearcher(db, SearchConfig(scorer="xcorr", delta=1.0))
        assert a.generator.index is b.generator.index is MassIndex.for_shard(db)
        # each searcher is still charged the index it uses
        assert a.nbytes == b.nbytes == db.nbytes + a.generator.index.nbytes

    def test_derived_databases_build_their_own(self, db):
        whole = MassIndex.for_shard(db)
        for derived in (db.subset(np.array([0, 2])), db.slice_range(1, 3)):
            assert derived._mass_index is None
            own = MassIndex.for_shard(derived)
            assert own is not whole
            assert own.count_in_window(0.0, 1e9) < whole.count_in_window(0.0, 1e9)

    def test_index_is_not_pickled_with_the_database(self, db):
        import pickle

        db.parent_masses()  # cached and shipped as before; the index build fills it
        plain = len(pickle.dumps(db))
        MassIndex.for_shard(db)
        assert len(pickle.dumps(db)) == plain
        clone = pickle.loads(pickle.dumps(db))
        assert clone == db and clone._mass_index is None
        assert np.array_equal(clone.parent_masses(), db.parent_masses())

    @pytest.mark.usefixtures("short_switch_interval")
    def test_threads_racing_for_a_fresh_shard_share_one_build(self, monkeypatch):
        """``for_shard`` is check-then-set on the shard's cache slot: the
        build is locked, so racing callers get one object from one build."""
        import threading

        from repro.workloads.synthetic import generate_database

        builds, build = [], MassIndex.__init__

        def counted_build(self, shard, reach=np.inf):
            builds.append(shard)  # list.append is atomic
            build(self, shard, reach)

        monkeypatch.setattr(MassIndex, "__init__", counted_build)
        racers = 8
        for seed in range(5):
            database = generate_database(120, seed=seed)  # fresh: nothing cached
            del builds[:]
            lined_up, got = threading.Barrier(racers), []

            def race():
                lined_up.wait(30.0)
                got.append(MassIndex.for_shard(database))

            threads = [threading.Thread(target=race) for _ in range(racers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert len(got) == racers and len({id(index) for index in got}) == 1
            assert len(builds) == 1
            assert got[0] is database._mass_index


class TestRowKeys:
    """A row key is an int32 flat position: one dtype per addressing
    concept, and a database that would overflow it is refused, typed,
    before anything is allocated."""

    def test_a_database_of_2_31_residues_is_refused_before_allocating(self):
        from types import SimpleNamespace

        from repro.errors import RowKeyOverflowError

        # offsets that claim 2^31 residues over buffers that do not exist:
        # anything the build touched before the check would fail untyped
        stub = SimpleNamespace(offsets=np.array([0, 2**31], dtype=np.int64))
        with pytest.raises(RowKeyOverflowError, match=r"2\^31-residue limit"):
            MassIndex(stub)

    def test_the_last_addressable_residue_is_accepted(self):
        from repro.index.layout import check_row_keys

        check_row_keys(2**31 - 1)

    def test_a_row_table_of_2_31_rows_is_refused(self):
        from repro.errors import RowKeyOverflowError
        from repro.index.layout import check_row_ids

        with pytest.raises(RowKeyOverflowError, match=r"2\^31-row limit"):
            check_row_ids(2**31)
        check_row_ids(2**31 - 1)  # the last row an int32 posting row addresses

    def test_the_posting_build_checks_the_row_count_before_allocating(self, db):
        from repro.errors import RowKeyOverflowError
        from repro.index import IndexBuilder

        class HugeTable:  # a length and nothing else: any other use fails untyped
            def __len__(self):
                return 2**31

        with pytest.raises(RowKeyOverflowError, match="int32 row ids"):
            IndexBuilder().build(db, HugeTable())

    def test_keys_decode_to_their_spans(self, db, index):
        rows = np.arange(len(index))
        spans = index.spans(rows)
        for row in rows.tolist():
            key = int(index.key[row])
            pos = key if key >= 0 else ~key
            seq = int(np.searchsorted(db.offsets, pos, side="right") - 1)
            local = pos - int(db.offsets[seq])
            want = (seq, 0, local + 1) if key >= 0 else (seq, local, len(db.sequence(seq)))
            assert (spans.seq_index[row], spans.start[row], spans.stop[row]) == want

    def test_every_array_a_pass_touches_keeps_its_dtype(self, monkeypatch, tmp_path):
        """Direct, resident and streamed passes, with PTM tiers: the table
        columns stay float64 / int32, the posting rows int32, and every
        row id, span column and posting offset a block touches stays
        int64 — a silent ``intp``, int32 or int64 cast anywhere fails
        here."""
        from repro.chem.amino_acids import STANDARD_MODIFICATIONS
        from repro.core.config import SearchConfig
        from repro.core.search import search_serial
        from repro.index import FragmentIndex
        from repro.store import save_index, save_partitioned_index
        from repro.workloads import generate_database, generate_queries

        database = generate_database(30, seed=4)
        queries = generate_queries(12, seed=4)
        cfg = SearchConfig(
            tau=5, scorer="hyperscore", modifications=(STANDARD_MODIFICATIONS["oxidation"],)
        )
        seen = []
        sweep_spans, score_block = MassIndex.sweep_spans, FragmentIndex.score_block

        def checked_sweep(table, lo, hi):
            spans, rows = sweep_spans(table, lo, hi)
            assert (table.mass.dtype, table.key.dtype) == (np.float64, np.int32)
            assert np.asarray(table.offsets).dtype == np.int64
            assert rows.dtype == np.int64 and np.asarray(lo).dtype == np.int64
            for column in (spans.seq_index, spans.start, spans.stop):
                assert column.dtype == np.int64
            assert spans.mass.dtype == spans.mod_delta.dtype == np.float64
            seen.append(len(rows))
            return spans, rows

        def checked_probe(index, scorer, spectra, row_sets):
            assert all(rows.dtype == np.int64 for rows in row_sets)
            assert np.asarray(index.arrays["series_row"]).dtype == np.int32
            assert np.asarray(index.arrays["series_bin_start"]).dtype == np.int64
            return score_block(index, scorer, spectra, row_sets)

        monkeypatch.setattr(MassIndex, "sweep_spans", checked_sweep)
        monkeypatch.setattr(FragmentIndex, "score_block", checked_probe)
        direct = search_serial(database, queries, cfg)
        for store in (
            save_index(database, tmp_path / "r"),
            save_partitioned_index(database, tmp_path / "p", partition_mb=0.05),
        ):
            report = search_serial(database, queries, cfg, index_store=store)
            assert report.hits == direct.hits
        assert len(seen) > 3 and sum(seen) > 0
