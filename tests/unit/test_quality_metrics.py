"""Unit tests for analysis.quality (target-recovery metrics)."""

import numpy as np
import pytest

from repro.analysis.quality import recovery
from repro.chem.amino_acids import encode_sequence
from repro.chem.protein import ProteinDatabase
from repro.core.results import SearchReport
from repro.scoring.hits import Hit
from repro.spectra.spectrum import Spectrum


@pytest.fixture()
def db():
    return ProteinDatabase.from_sequences(["MKTAYIAK", "PEPTIDER"])


def spectrum(qid):
    return Spectrum(np.array([100.0]), np.array([1.0]), 900.0, 1, qid)


def report_with(hits):
    return SearchReport("test", 1, hits, 0, 1.0)


class TestRecovery:
    def test_exact_span_recovered_at_rank1(self, db):
        target = encode_sequence("MKTAY")  # prefix of protein 0
        hits = {0: [Hit(0, 9.0, 0, 0, 5, 1.0)]}
        result = recovery(db, report_with(hits), [spectrum(0)], [target])
        assert result.recovered_at_1 == 1
        assert result.recall_at_1 == 1.0
        assert result.mean_rank == 1.0

    def test_recovered_deeper_in_list(self, db):
        target = encode_sequence("MKTAY")
        hits = {
            0: [
                Hit(0, 9.0, 1, 0, 5, 1.0),  # wrong protein
                Hit(0, 8.0, 0, 0, 5, 1.0),  # the target at rank 2
            ]
        }
        result = recovery(db, report_with(hits), [spectrum(0)], [target], k=10)
        assert result.recovered_at_1 == 0
        assert result.recovered_at_k == 1
        assert result.mean_rank == 2.0

    def test_beyond_k_not_counted(self, db):
        target = encode_sequence("MKTAY")
        hits = {0: [Hit(0, 9.0, 1, 0, 5, 1.0), Hit(0, 8.0, 0, 0, 5, 1.0)]}
        result = recovery(db, report_with(hits), [spectrum(0)], [target], k=1)
        assert result.recovered_at_k == 0

    def test_wrong_span_not_recovered(self, db):
        target = encode_sequence("MKTAY")
        hits = {0: [Hit(0, 9.0, 0, 0, 4, 1.0)]}  # MKTA, not MKTAY
        result = recovery(db, report_with(hits), [spectrum(0)], [target])
        assert result.recovered_at_k == 0
        assert np.isnan(result.mean_rank)

    def test_unknown_protein_id_skipped(self, db):
        target = encode_sequence("MKTAY")
        hits = {0: [Hit(0, 9.0, 999, 0, 5, 1.0)]}
        result = recovery(db, report_with(hits), [spectrum(0)], [target])
        assert result.recovered_at_k == 0

    def test_misaligned_inputs_rejected(self, db):
        with pytest.raises(ValueError):
            recovery(db, report_with({}), [spectrum(0)], [])

    def test_empty_workload(self, db):
        result = recovery(db, report_with({}), [], [])
        assert result.total == 0
        assert result.recall_at_1 == 0.0
