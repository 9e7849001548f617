"""Unit tests for SearchReport and result merging/equality."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.results import (
    SearchReport,
    merge_rank_hits,
    reports_equal,
    select_queries,
)
from repro.scoring.hits import Hit, HitColumns, HitTable, as_hit_columns
from tests.reference import reference_tsv


def make_hit(score, pid=0, start=0, stop=10, qid=0):
    return Hit(query_id=qid, score=score, protein_id=pid, start=start, stop=stop, mass=1.0)


def make_report(hits, algorithm="serial", vt=10.0, cand=100):
    return SearchReport(
        algorithm=algorithm, num_ranks=1, hits=hits, candidates_evaluated=cand, virtual_time=vt
    )


def as_table(report):
    """The same report with its hits behind a ``HitTable``, as engines build it."""
    return replace(report, hits=HitTable(as_hit_columns(report.hits)))


class TestSearchReport:
    def test_candidates_per_second(self):
        rep = make_report({}, vt=4.0, cand=400)
        assert rep.candidates_per_second == 100.0

    def test_candidates_per_second_zero_time(self):
        assert make_report({}, vt=0.0).candidates_per_second == 0.0

    def test_top_hit(self):
        hits = {0: [make_hit(5.0), make_hit(3.0)], 1: []}
        rep = make_report(hits)
        assert rep.top_hit(0).score == 5.0
        assert rep.top_hit(1) is None
        assert rep.top_hit(99) is None

    def test_max_peak_memory(self):
        rep = make_report({})
        rep.peak_memory = {0: 100, 1: 300, 2: 200}
        assert rep.max_peak_memory == 300
        assert make_report({}).max_peak_memory == 0


class TestMergeRankHits:
    def test_disjoint_queries_union(self):
        a = {0: [make_hit(1.0, qid=0)]}
        b = {1: [make_hit(2.0, qid=1)]}
        merged = merge_rank_hits([a, b], tau=5)
        assert set(merged) == {0, 1}

    def test_overlapping_query_folds_through_tau(self):
        a = {0: [make_hit(5.0, pid=1), make_hit(1.0, pid=2)]}
        b = {0: [make_hit(4.0, pid=3), make_hit(3.0, pid=4)]}
        merged = merge_rank_hits([a, b], tau=3)
        assert [h.score for h in merged[0]] == [5.0, 4.0, 3.0]

    def test_duplicate_hits_not_double_counted(self):
        h = make_hit(5.0, pid=1)
        merged = merge_rank_hits([{0: [h]}, {0: [h]}], tau=3)
        assert len(merged[0]) == 1

    def test_columns_tables_and_dicts_merge_alike(self):
        """Rank outputs arrive as ``HitColumns`` (engines), tables or dicts
        (tests, checkpoints): one merged table, queries in arrival order,
        a repeated query folded, everything else concatenated untouched."""
        a = {4: [make_hit(5.0, pid=1, qid=4), make_hit(1.0, pid=2, qid=4)], 9: []}
        b = {4: [make_hit(4.0, pid=3, qid=4), make_hit(1.0, pid=2, qid=4)], 2: [make_hit(7.0, qid=2)]}
        want = {
            4: [make_hit(5.0, pid=1, qid=4), make_hit(4.0, pid=3, qid=4), make_hit(1.0, pid=2, qid=4)],
            9: [],
            2: [make_hit(7.0, qid=2)],
        }
        for wrap in (dict, as_hit_columns, lambda h: HitTable(as_hit_columns(h))):
            merged = merge_rank_hits([wrap(a), wrap(b)], tau=3)
            assert isinstance(merged, HitTable)
            assert merged == want and list(merged) == [4, 9, 2]
        assert merge_rank_hits([a, b], tau=2)[4] == want[4][:2]
        assert merge_rank_hits([], tau=3) == {}

    def test_disjoint_merge_is_a_concatenation(self, monkeypatch):
        from repro.core import results

        monkeypatch.setattr(
            results, "_fold_repeated_queries", lambda *a: pytest.fail("nothing to fold")
        )
        merged = merge_rank_hits([{0: [make_hit(1.0)]}, {1: [make_hit(2.0, qid=1)], 5: []}], tau=5)
        assert merged.columns.query_ids.tolist() == [0, 1, 5]
        assert merged.columns.counts.tolist() == [1, 1, 0]

    def test_select_queries_lays_out_the_callers_order(self):
        table = merge_rank_hits(
            [{3: [make_hit(1.0, qid=3)], 8: [make_hit(2.0, qid=8), make_hit(1.0, pid=4, qid=8)]}], 5
        )
        picked = select_queries(table, [8, 5, 3, 8])
        assert list(picked) == [8, 5, 3]  # a repeated id once, a missing one empty
        assert picked == {8: table[8], 5: [], 3: table[3]}
        assert select_queries(merge_rank_hits([], 5), [1]) == {1: []}


class TestReportsEqual:
    def test_identical(self):
        hits = {0: [make_hit(5.0, pid=1)]}
        assert reports_equal(make_report(hits), make_report(dict(hits)))

    def test_different_query_sets(self):
        assert not reports_equal(
            make_report({0: []}), make_report({0: [], 1: []})
        )

    def test_different_span(self):
        a = make_report({0: [make_hit(5.0, pid=1, start=0)]})
        b = make_report({0: [make_hit(5.0, pid=1, start=1)]})
        assert not reports_equal(a, b)

    def test_different_score_strict(self):
        a = make_report({0: [make_hit(5.0)]})
        b = make_report({0: [make_hit(5.0 + 1e-12)]})
        assert not reports_equal(a, b)

    def test_score_tolerance(self):
        a = make_report({0: [make_hit(5.0)]})
        b = make_report({0: [make_hit(5.0 + 1e-12)]})
        assert reports_equal(a, b, score_rtol=1e-9)

    def test_different_lengths(self):
        a = make_report({0: [make_hit(5.0), make_hit(4.0, pid=2)]})
        b = make_report({0: [make_hit(5.0)]})
        assert not reports_equal(a, b)

    def test_mass_not_compared(self):
        ha = Hit(0, 5.0, 1, 0, 10, mass=100.0)
        hb = Hit(0, 5.0, 1, 0, 10, mass=100.0 + 1e-10)
        assert reports_equal(make_report({0: [ha]}), make_report({0: [hb]}))


class TestTableBackedReport:
    """A report over a ``HitTable`` is the report over the dict it replaces."""

    HITS = {
        5: [make_hit(5.0, pid=3, start=2, stop=12, qid=5), make_hit(5.0, pid=4, qid=5)],
        1: [],
        9: [Hit(9, -2.5, 7, 1, 8, 812.25, 15.994915)],
    }

    def test_mapping_behaviour(self):
        table = as_table(make_report(self.HITS)).hits
        assert len(table) == 3 and list(table) == [5, 1, 9]
        assert table[1] == [] and 1 in table and 2 not in table
        assert table.get(2) is None and table.get(9) == self.HITS[9]
        assert dict(table.items()) == self.HITS
        assert table == self.HITS and self.HITS == table
        assert table != {**self.HITS, 1: [make_hit(1.0, qid=1)]}
        assert [type(h) for h in table[9]] == [Hit]
        assert table[9][0].mass == 812.25 and table[9][0].query_id == 9
        with pytest.raises(KeyError):
            table[2]
        with pytest.raises(TypeError):
            table[1] = []  # read-only

    def test_indexing_keeps_a_query_and_iterating_streams(self):
        table = as_table(make_report(self.HITS)).hits
        assert dict(table.items()) == self.HITS and list(table.values()) == list(self.HITS.values())
        assert table == self.HITS and len(table.items()) == 3
        assert table._indexed == {}  # .items() / .values() / == built lists and kept none
        first = table[5]
        assert table[5] is first and table.get(5) is first and list(table._indexed) == [5]
        # the kept list is the mapping's value from now on, as a dict's would be
        first[0] = first[0]._replace(score=6.0)
        assert table[5][0].score == 6.0 and dict(table.items())[5] is first
        assert (5, first) in table.items() and table != self.HITS
        # ... but the columns are the record: writers and counters read them
        assert table.columns.scores.tolist() == [5.0, 5.0, -2.5]

    def test_writing_and_counting_build_no_hit(self, tmp_path, tiny_db, tiny_queries, config):
        from repro.core.results import write_tsv
        from repro.core.search import search_serial
        from repro.obs.report import RunReport

        report = search_serial(tiny_db, tiny_queries, config)
        write_tsv(report, tmp_path / "x.tsv", database=tiny_db)
        run_report = RunReport.from_search_report(report)
        assert report.hits._indexed == {}
        assert run_report.results["hits_reported"] == len(report.hits.columns.scores) > 0
        assert run_report.results["queries_with_hits"] == sum(1 for h in report.hits.values() if h)
        assert (tmp_path / "x.tsv").read_text().count("\n") == 1 + run_report.results["hits_reported"]

    def test_reports_equal_in_both_argument_orders(self):
        plain = make_report(self.HITS)
        tabled = as_table(plain)
        assert reports_equal(plain, tabled) and reports_equal(tabled, plain)
        assert reports_equal(tabled, as_table(plain))
        assert tabled.hits == plain.hits and plain.hits == tabled.hits
        other = make_report({**self.HITS, 9: [Hit(9, -2.5, 7, 1, 9, 812.25, 15.994915)]})
        assert not reports_equal(tabled, other) and not reports_equal(other, tabled)
        assert not reports_equal(tabled, as_table(other))

    def test_top_hit(self):
        tabled = as_table(make_report(self.HITS))
        assert tabled.top_hit(5) == self.HITS[5][0]
        assert tabled.top_hit(1) is None and tabled.top_hit(77) is None

    def test_pickles_as_its_columns(self):
        tabled = as_table(make_report(self.HITS))
        back = pickle.loads(pickle.dumps(tabled))
        assert isinstance(back.hits, HitTable) and back.hits == self.HITS
        assert isinstance(back.hits.columns, HitColumns)
        for got, want in zip(back.hits.columns, tabled.hits.columns):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_json_round_trip_equals_the_dict_backed_one(self):
        plain = make_report(self.HITS)
        tabled = as_table(plain)
        assert tabled.hits == plain.hits == self.HITS
        assert [h.mass for h in tabled.hits[9]] == [812.25]

    def test_every_engine_reports_a_table(self, tiny_db, tiny_queries, config):
        from repro.core.driver import ALGORITHMS, run_search

        serial = run_search(tiny_db, tiny_queries, "serial", 1, config)
        assert isinstance(serial.hits, HitTable)
        for algorithm in sorted(set(ALGORITHMS) - {"serial", "xbang"}):
            report = run_search(tiny_db, tiny_queries, algorithm, 3, config)
            assert isinstance(report.hits, HitTable), algorithm
            assert reports_equal(serial, report), algorithm
        assert isinstance(run_search(tiny_db, tiny_queries, "xbang", 3, config).hits, HitTable)
        assert isinstance(run_search(tiny_db, tiny_queries, "multiproc", 1, config).hits, HitTable)


class TestTsvOutput:
    def test_tsv_structure(self, tmp_path, tiny_db, tiny_queries, config):
        import csv

        from repro.core.results import write_tsv
        from repro.core.search import search_serial

        rep = search_serial(tiny_db, tiny_queries, config)
        path = tmp_path / "hits.tsv"
        write_tsv(rep, path, database=tiny_db)
        with open(path) as fh:
            rows = list(csv.DictReader(fh, delimiter="\t"))
        assert rows, "expected at least one identification row"
        first = rows[0]
        assert set(first) == {
            "query_id", "rank", "score", "protein", "start", "stop",
            "mass", "mod_delta", "peptide",
        }
        # the peptide column must contain the actual database span
        idx = {int(pid): i for i, pid in enumerate(tiny_db.ids)}
        seq = tiny_db.sequence(idx[int(first["protein"])])
        span = seq[int(first["start"]) : int(first["stop"])].tobytes().decode()
        assert first["peptide"] == span

    def test_tsv_without_database_omits_peptide(self, tmp_path):
        from repro.core.results import write_tsv

        rep = make_report({0: [make_hit(1.5)]})
        path = tmp_path / "x.tsv"
        write_tsv(rep, path)
        header = path.read_text().splitlines()[0]
        assert "peptide" not in header

    def test_ranks_are_one_based_and_ordered(self, tmp_path):
        from repro.core.results import write_tsv

        rep = make_report({0: [make_hit(9.0, pid=1), make_hit(5.0, pid=2)]})
        path = tmp_path / "r.tsv"
        write_tsv(rep, path)
        lines = path.read_text().splitlines()[1:]
        assert lines[0].split("\t")[1] == "1"
        assert lines[1].split("\t")[1] == "2"


def golden_fixture():
    """Database with non-contiguous ids and a report that exercises every
    column: PTM hits, an id the database lacks, a ``-inf`` score, query
    ids out of order, and a stop past its sequence's end (clipped)."""
    from repro.chem.protein import ProteinDatabase

    db = ProteinDatabase.from_sequences(
        ["MKTAYIAKQRQISFVK", "PEPTIDESMK", "GGAVLMSTC", "ACDEFGHIK"]
    ).subset([3, 0, 2])
    hits = {
        7: [
            Hit(7, 12.3456789, 0, 0, 10, 1165.6489, 0.0),
            Hit(7, 3.25, 2, 2, 9, 650.3001, 15.994915),
            Hit(7, float("-inf"), 3, 1, 40, 879.38, 79.966331),
        ],
        2: [
            Hit(2, 0.0000004, 1, 0, 4, 425.2, 0.0),  # protein 1 is not in db
            Hit(2, -7.5, 3, 0, 9, 1019.45, 0.0),
        ],
        11: [],
    }
    return db, make_report(hits)


class TestTsvGolden:
    """``data/write_tsv_golden*.tsv`` were written by the per-hit
    ``database.sequence()`` writer, two writers ago; bytes must not move —
    from a dict of ``Hit`` lists or from a table, in one chunk or many."""

    @staticmethod
    def check(tmp_path, with_db, rep):
        from pathlib import Path

        from repro.core.results import write_tsv

        db, _rep = golden_fixture()
        name = "write_tsv_golden.tsv" if with_db else "write_tsv_golden_nodb.tsv"
        out = tmp_path / name
        write_tsv(rep, out, database=db if with_db else None)
        golden = Path(__file__).parent / "data" / name
        assert out.read_bytes() == golden.read_bytes()
        assert reference_tsv(rep, db if with_db else None).encode() == golden.read_bytes()

    @pytest.mark.parametrize("with_db", [True, False])
    def test_bytes_match_the_golden_file(self, tmp_path, with_db):
        self.check(tmp_path, with_db, golden_fixture()[1])

    @pytest.mark.parametrize("chunk_rows", [None, 1, 2])
    @pytest.mark.parametrize("tabled", [False, True])
    @pytest.mark.parametrize("with_db", [True, False])
    def test_golden_bytes_from_a_table_and_in_chunks(
        self, tmp_path, monkeypatch, with_db, tabled, chunk_rows
    ):
        from repro.core import results

        if chunk_rows is not None:  # a chunk boundary inside a query, and after every row
            monkeypatch.setattr(results, "_TSV_CHUNK_ROWS", chunk_rows)
        rep = golden_fixture()[1]
        self.check(tmp_path, with_db, as_table(rep) if tabled else rep)

    def test_file_object_target(self):
        import io

        from repro.core.results import write_tsv

        db, rep = golden_fixture()
        buf = io.StringIO()
        write_tsv(rep, buf, database=db)
        assert not buf.closed and buf.getvalue().count("\n") == 6

    @pytest.mark.parametrize("tabled", [False, True])
    def test_a_report_larger_than_one_chunk(self, tabled, tiny_db):
        """More rows than ``_TSV_CHUNK_ROWS``, spans that start or stop past
        the protein's end (clamped as ``str`` slicing clamps them), ids the
        database lacks, repeated ids in it (the last one's text wins)."""
        import io

        from repro.chem.protein import ProteinDatabase
        from repro.core.results import _TSV_CHUNK_ROWS, write_tsv

        db = ProteinDatabase.from_sequences(["MKTAYIAK", "PEPTIDESMK", "GGAVLMSTC", "ACDEFGHIK"])
        db = db.subset([3, 1, 0, 1])
        rng = np.random.default_rng(5)
        hits, rows = {}, 0
        for qid in rng.permutation(700).tolist():
            n = int(rng.integers(0, 30))
            rows += n
            hits[qid] = [
                Hit(
                    qid,
                    float(rng.normal()),
                    int(rng.integers(0, 6)),  # 2, 4 and 5 are not in db
                    int(rng.integers(0, 14)),
                    int(rng.integers(0, 14)),
                    float(rng.uniform(500, 3000)),
                    float(rng.choice([0.0, 15.994915, 79.966331])),
                )
                for _ in range(n)
            ]
        assert rows > _TSV_CHUNK_ROWS
        rep = make_report(hits)
        want = reference_tsv(rep, db)
        assert want.count("\t?\n") > 100 and want.count("\t\n") > 100  # unknown ids, empty slices
        buf = io.StringIO()
        write_tsv(as_table(rep) if tabled else rep, buf, database=db)
        assert buf.getvalue() == want
        buf = io.StringIO()
        write_tsv(as_table(rep) if tabled else rep, buf)
        assert buf.getvalue() == reference_tsv(rep)

    def test_empty_report_and_empty_database(self):
        import io

        from repro.chem.protein import ProteinDatabase
        from repro.core.results import write_tsv

        _db, rep = golden_fixture()
        for report in (make_report({}), as_table(make_report({})), make_report({3: []})):
            buf = io.StringIO()
            write_tsv(report, buf, database=_db)
            assert buf.getvalue() == reference_tsv(report, _db)
        empty = ProteinDatabase.from_sequences([])
        buf = io.StringIO()
        write_tsv(rep, buf, database=empty)
        assert buf.getvalue() == reference_tsv(rep, empty)


class TestTsvChunkBudget:
    def test_a_chunk_allocates_within_the_budget(self, tmp_path):
        """``write_tsv`` on a 100 K-row report: the traced peak stays within
        one chunk's ``_TSV_CHUNK_BYTES`` plus what it holds report-wide —
        three int64 index arrays over the rows, three over the queries and
        the padded residue buffer."""
        import tracemalloc

        from repro.chem.protein import ProteinDatabase
        from repro.core import results
        from repro.core.results import write_tsv

        rng = np.random.default_rng(3)
        alphabet = np.frombuffer(b"ACDEFGHIKLMNPQRSTVWY", dtype=np.uint8)
        db = ProteinDatabase.from_sequences(
            [alphabet[rng.integers(0, 20, 300)].tobytes().decode() for _ in range(200)]
        )
        queries, per_query = 2000, 50
        rows = queries * per_query
        starts = rng.integers(0, 280, rows)
        columns = HitColumns(
            np.arange(queries, dtype=np.int64),
            np.full(queries, per_query, dtype=np.int64),
            np.sort(rng.normal(20.0, 8.0, rows))[::-1].copy(),
            rng.integers(0, 210, rows),  # ids past the database's: "?"
            starts,
            starts + rng.integers(5, 20, rows),
            rng.uniform(500.0, 3500.0, rows),
            rng.choice([0.0, 15.994915], rows),
        )
        report = make_report(HitTable(columns))
        report_wide = 3 * 8 * rows + 3 * 8 * queries + len(db.residues) + 301
        for database in (db, None):
            write_tsv(report, tmp_path / "warm.tsv", database)
            tracemalloc.start()
            try:
                write_tsv(report, tmp_path / "hits.tsv", database)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rows >= 100_000 > results._TSV_CHUNK_ROWS
            assert peak <= results._TSV_CHUNK_BYTES + report_wide, (peak, report_wide)
