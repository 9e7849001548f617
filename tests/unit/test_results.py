"""Unit tests for SearchReport and result merging/equality."""

import pytest

from repro.core.results import SearchReport, merge_rank_hits, reports_equal
from repro.scoring.hits import Hit


def make_hit(score, pid=0, start=0, stop=10, qid=0):
    return Hit(query_id=qid, score=score, protein_id=pid, start=start, stop=stop, mass=1.0)


def make_report(hits, algorithm="serial", vt=10.0, cand=100):
    return SearchReport(
        algorithm=algorithm, num_ranks=1, hits=hits, candidates_evaluated=cand, virtual_time=vt
    )


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


class TestSerialization:
    def test_roundtrip_preserves_hits_and_metrics(self):
        hits = {0: [make_hit(5.0, pid=3, start=2, stop=12)], 1: []}
        rep = make_report(hits, algorithm="algorithm_a", vt=12.5, cand=777)
        rep.peak_memory = {0: 1000, 1: 2000}
        rep.extras = {"residual_to_compute": 0.2}
        back = SearchReport.from_json(rep.to_json())
        assert back.algorithm == "algorithm_a"
        assert back.virtual_time == 12.5
        assert back.candidates_evaluated == 777
        assert back.peak_memory == {0: 1000, 1: 2000}
        assert back.extras["residual_to_compute"] == 0.2
        assert reports_equal(rep, back)

    def test_trace_totals_preserved_in_extras(self):
        from repro.simmpi.trace import RankTrace, TraceSummary

        t = RankTrace(0)
        t.add("compute", 0.0, 3.0)
        rep = make_report({})
        rep.trace = TraceSummary.from_traces({0: t}, makespan=3.0)
        back = SearchReport.from_json(rep.to_json())
        assert back.extras["trace_totals"]["total_compute"] == 3.0

    def test_real_report_roundtrip(self, tiny_db, tiny_queries, config):
        from repro.core.search import search_serial

        rep = search_serial(tiny_db, tiny_queries, config)
        back = SearchReport.from_json(rep.to_json())
        assert reports_equal(rep, back)


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
    ``database.sequence()`` writer this one replaced; bytes must not move."""

    @pytest.mark.parametrize("with_db", [True, False])
    def test_bytes_match_the_golden_file(self, tmp_path, with_db):
        from pathlib import Path

        from repro.core.results import write_tsv

        db, rep = golden_fixture()
        name = "write_tsv_golden.tsv" if with_db else "write_tsv_golden_nodb.tsv"
        out = tmp_path / name
        write_tsv(rep, out, database=db if with_db else None)
        golden = Path(__file__).parent / "data" / name
        assert out.read_bytes() == golden.read_bytes()

    def test_file_object_target(self):
        import io

        from repro.core.results import write_tsv

        db, rep = golden_fixture()
        buf = io.StringIO()
        write_tsv(rep, buf, database=db)
        assert not buf.closed and buf.getvalue().count("\n") == 6
