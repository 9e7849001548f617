"""Unit tests for the tryptic candidate index (xbang's prefilter)."""

import numpy as np
import pytest

from repro.candidates.tryptic import TrypticIndex
from repro.chem.peptide import peptide_mass
from repro.chem.protein import ProteinDatabase
from repro.core.config import SearchConfig
from repro.core.xbang import run_xbang
from repro.scoring.hits import Hit
from repro.scoring.hyperscore import HyperScorer
from tests.reference import score, top_tau


@pytest.fixture()
def db():
    return ProteinDatabase.from_sequences(
        ["AAAGGGKCCCDDDRWWWYYY", "MMMMKNNNNR", "GGGGGGGG"]
    )


class TestTrypticIndex:
    def test_only_tryptic_peptides_indexed(self, db):
        index = TrypticIndex(db, missed_cleavages=0, min_length=3, max_length=50)
        for k in range(len(index)):
            start, stop = int(index.start[k]), int(index.stop[k])
            seq = db.sequence(int(index.seq_index[k]))
            # peptide must end at K/R or at the sequence end
            assert stop == len(seq) or chr(seq[stop - 1]) in "KR"
            # and start at position 0 or after a K/R
            assert start == 0 or chr(seq[start - 1]) in "KR"

    def test_masses_sorted_and_correct(self, db):
        index = TrypticIndex(db, min_length=3)
        assert np.all(np.diff(index.masses) >= 0)
        for k in range(len(index)):
            seq = db.sequence(int(index.seq_index[k]))
            sub = seq[int(index.start[k]) : int(index.stop[k])]
            assert index.masses[k] == pytest.approx(peptide_mass(sub))

    def test_window_query(self, db):
        index = TrypticIndex(db, min_length=3)
        target = peptide_mass(db.sequence(0)[:7])  # AAAGGGK
        spans = index.candidates_in_window(target - 0.01, target + 0.01)
        assert len(spans) >= 1
        assert index.count_in_window(target - 0.01, target + 0.01) == len(spans)

    def test_far_smaller_than_exhaustive_enumeration(self, db):
        from repro.candidates.mass_index import MassIndex

        tryptic = TrypticIndex(db, missed_cleavages=1, min_length=1, max_length=10**9)
        exhaustive = MassIndex(db)
        assert len(tryptic) < exhaustive.count_in_window(0.0, 1e9)

    def test_misses_nontryptic_target(self, db):
        """The paper's point: the aggressive prefilter can miss truths."""
        index = TrypticIndex(db, missed_cleavages=1, min_length=3)
        # a non-tryptic span (stops mid-fragment)
        target = peptide_mass(db.sequence(0)[2:6])
        spans = index.candidates_in_window(target - 0.001, target + 0.001)
        got = {
            (int(spans.seq_index[k]), int(spans.start[k]), int(spans.stop[k]))
            for k in range(len(spans))
        }
        assert (0, 2, 6) not in got

    def test_length_filters(self, db):
        index = TrypticIndex(db, min_length=8, max_length=9)
        for k in range(len(index)):
            assert 8 <= index.stop[k] - index.start[k] <= 9

    def test_nbytes(self, db):
        assert TrypticIndex(db).nbytes > 0


class TestProteaseParameter:
    def test_alternate_protease_changes_peptides(self, db):
        from repro.chem.enzymes import get_protease

        trypsin = TrypticIndex(db, min_length=3)
        gluc = TrypticIndex(db, min_length=3, protease=get_protease("glu-c"))
        tr_spans = set(zip(trypsin.seq_index.tolist(), trypsin.start.tolist(), trypsin.stop.tolist()))
        gc_spans = set(zip(gluc.seq_index.tolist(), gluc.start.tolist(), gluc.stop.tolist()))
        assert tr_spans != gc_spans

    def test_gluc_peptides_end_at_e_or_terminus(self, db):
        from repro.chem.enzymes import get_protease

        index = TrypticIndex(db, min_length=3, protease=get_protease("glu-c"))
        for k in range(len(index)):
            seq = db.sequence(int(index.seq_index[k]))
            stop = int(index.stop[k])
            assert stop == len(seq) or chr(seq[stop - 1]) == "E"

    def test_default_is_trypsin(self, db):
        assert TrypticIndex(db).protease.name == "trypsin"


class TestXbangHits:
    def test_real_run_is_the_top_tau_of_every_tryptic_candidate(
        self, tiny_db, tiny_queries
    ):
        """Two ranks, REAL scoring: each query holds the best tau of every
        tryptic candidate in its window, each scored by the scalar
        hyperscore (``tests/reference.py``), and every candidate is counted."""
        config = SearchConfig(tau=4)
        report = run_xbang(tiny_db, tiny_queries, 2, config)
        index = TrypticIndex(
            tiny_db, missed_cleavages=1, min_length=config.min_candidate_length
        )
        scorer = HyperScorer(config.fragment_tolerance)
        total = 0
        for spectrum in tiny_queries:
            mass = spectrum.parent_mass
            spans = index.candidates_in_window(mass - 0.5, mass + 0.5)
            total += len(spans)
            hits = [
                Hit(
                    spectrum.query_id,
                    score(scorer, spectrum, tiny_db.sequence(int(s))[int(a) : int(b)]),
                    int(tiny_db.ids[s]),
                    int(a),
                    int(b),
                    float(m),
                )
                for s, a, b, m in zip(spans.seq_index, spans.start, spans.stop, spans.mass)
            ]
            got = report.hits[spectrum.query_id]
            assert [tuple(h) for h in got] == [tuple(h) for h in top_tau(hits, config.tau)]
        assert report.candidates_evaluated == total > 0
        assert any(len(report.hits[q.query_id]) == config.tau for q in tiny_queries)
