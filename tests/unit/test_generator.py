"""Unit tests for the candidate generator (windows + PTM expansion)."""

import numpy as np
import pytest

from repro.candidates.generator import CandidateGenerator, mass_window
from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.peptide import peptide_mass, peptide_mz
from repro.chem.protein import ProteinDatabase
from repro.spectra.spectrum import Spectrum


def spectrum_for_mass(mass, qid=0):
    """A minimal spectrum whose parent mass is exactly `mass`."""
    return Spectrum(np.array([100.0]), np.array([1.0]), peptide_mz(mass, 1), 1, qid)


@pytest.fixture()
def db():
    return ProteinDatabase.from_sequences(["MKTAYIAK", "PEPTIDEMS", "GGGGGGGG"])


class TestMassWindow:
    def test_window_centered_on_parent_mass(self):
        spec = spectrum_for_mass(1000.0)
        lo, hi = mass_window(spec, 3.0)
        assert lo == pytest.approx(997.0)
        assert hi == pytest.approx(1003.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            mass_window(spectrum_for_mass(1000.0), -1.0)


class TestUnmodified:
    def test_finds_exact_prefix(self, db):
        target_mass = peptide_mass(db.sequence(0)[:5])
        gen = CandidateGenerator(db, delta=0.01)
        spans = gen.candidates(spectrum_for_mass(target_mass))
        keys = {
            (int(spans.seq_index[k]), int(spans.start[k]), int(spans.stop[k]))
            for k in range(len(spans))
        }
        assert (0, 0, 5) in keys

    def test_finds_exact_suffix(self, db):
        target_mass = peptide_mass(db.sequence(1)[-4:])
        gen = CandidateGenerator(db, delta=0.01)
        spans = gen.candidates(spectrum_for_mass(target_mass))
        keys = {
            (int(spans.seq_index[k]), int(spans.start[k]), int(spans.stop[k]))
            for k in range(len(spans))
        }
        assert (1, 9 - 4, 9) in keys

    def test_count_equals_enumeration(self, db):
        gen = CandidateGenerator(db, delta=50.0)
        for mass in (300.0, 500.0, 800.0):
            spec = spectrum_for_mass(mass)
            assert gen.count_many([spec.parent_mass])[0] == len(gen.candidates(spec))

    def test_count_unmodified_many(self, db):
        gen = CandidateGenerator(db, delta=25.0)
        masses = np.array([300.0, 500.0, 800.0])
        counts = gen.count_many(masses)
        for k, mass in enumerate(masses):
            assert counts[k] == len(gen.candidates(spectrum_for_mass(mass)))

    def test_wider_delta_never_fewer_candidates(self, db):
        narrow = CandidateGenerator(db, delta=1.0)
        wide = CandidateGenerator(db, delta=10.0)
        for mass in (400.0, 700.0, 1000.0):
            spec = spectrum_for_mass(mass)
            assert wide.count_many([spec.parent_mass]) >= narrow.count_many([spec.parent_mass])

    def test_extract_returns_span_residues(self, db):
        """A candidate's residues, as the scoring batch gathers them from
        its decoded span, are its sequence's slice."""
        from repro.candidates.batch import CandidateBatch

        gen = CandidateGenerator(db, delta=1e9)
        spans = gen.candidates(spectrum_for_mass(500.0))
        batch = CandidateBatch.from_spans(db, spans)
        for k in range(len(spans)):
            seq = db.sequence(int(spans.seq_index[k]))
            expected = seq[int(spans.start[k]) : int(spans.stop[k])]
            assert np.array_equal(batch.row_residues(k), expected)


class TestModified:
    def test_oxidation_adds_shifted_candidates(self, db):
        mod = STANDARD_MODIFICATIONS["oxidation"]  # targets M
        # query at mass of (prefix with M) + delta: only reachable as modified
        base = peptide_mass(db.sequence(0)[:3])  # MKT — contains M
        gen = CandidateGenerator(db, delta=0.01, modifications=[mod])
        spans = gen.candidates(spectrum_for_mass(base + mod.delta_mass))
        modified = [k for k in range(len(spans)) if spans.mod_delta[k] > 0]
        assert modified, "expected a modified candidate"
        k = modified[0]
        assert spans.mod_delta[k] == pytest.approx(mod.delta_mass)

    def test_mod_requires_target_residue(self, db):
        mod = STANDARD_MODIFICATIONS["oxidation"]  # targets M
        # GGGGG... contains no M: shifted window must yield nothing from it
        base = peptide_mass(db.sequence(2)[:4])
        gen = CandidateGenerator(db, delta=0.01, modifications=[mod])
        spans = gen.candidates(spectrum_for_mass(base + mod.delta_mass))
        for k in range(len(spans)):
            if spans.mod_delta[k] > 0:
                seq_idx = int(spans.seq_index[k])
                assert b"M" in db.sequence(seq_idx).tobytes()

    def test_modifications_increase_counts(self, db):
        plain = CandidateGenerator(db, delta=5.0)
        with_mods = CandidateGenerator(
            db,
            delta=5.0,
            modifications=[
                STANDARD_MODIFICATIONS["oxidation"],
                STANDARD_MODIFICATIONS["phosphorylation_s"],
            ],
        )
        total_plain = plain.count_many([400.0, 600.0, 900.0]).sum()
        total_mod = with_mods.count_many([400.0, 600.0, 900.0]).sum()
        assert total_mod >= total_plain

    def test_fixed_modifications_ignored_by_generator(self, db):
        fixed = STANDARD_MODIFICATIONS["carbamidomethyl"]
        gen = CandidateGenerator(db, delta=5.0, modifications=[fixed])
        assert gen.modifications == ()
