"""Integration: PTM-aware search end to end.

The paper motivates PTM support twice: modified peptides escape plain
database search ("the experimental spectrum must not be due to a
database peptide that has been modified"), and considering PTMs
multiplies candidates.  These tests verify the whole path: a spectrum
generated from a *modified* target peptide is only identified when the
search enables the modification, and the PTM-aware fragment model is
what makes the identification score competitive.
"""

import numpy as np
import pytest

from repro.chem.amino_acids import STANDARD_MODIFICATIONS, encode_sequence, mass_table
from repro.constants import PROTON_MASS, WATER_MASS
from repro.core.config import SearchConfig
from repro.core.driver import run_search
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.spectra.spectrum import Spectrum
from repro.workloads.synthetic import generate_database
from tests.reference import by_ion_ladder, modified_by_ion_ladder, score, score_modified

OXIDATION = STANDARD_MODIFICATIONS["oxidation"]  # M +15.995


def modified_spectrum(encoded, site, delta, qid=0):
    """Ideal spectrum of a peptide carrying one modification."""
    ladder = modified_by_ion_ladder(encoded, site, delta)
    neutral = float(mass_table()[encoded].sum()) + WATER_MASS + delta
    return Spectrum(ladder, np.ones(len(ladder)), neutral + PROTON_MASS, 1, qid)


class TestModifiedLadder:
    def test_fragments_containing_site_shift(self):
        enc = encode_sequence("AMGGGK")
        plain = by_ion_ladder(enc)
        modified = modified_by_ion_ladder(enc, 1, OXIDATION.delta_mass)
        # same fragment count; total shift distributed over ions with M
        assert len(plain) == len(modified)
        assert not np.allclose(plain, modified)
        # b1 = A alone does not contain the site: it must be unchanged
        assert min(modified) == pytest.approx(min(plain))

    def test_site_zero_shifts_all_b_ions(self):
        enc = encode_sequence("MAGGGK")
        plain = by_ion_ladder(enc)
        modified = modified_by_ion_ladder(enc, 0, OXIDATION.delta_mass)
        # every b ion contains residue 0; y ions except the full... the
        # largest y (y5 = AGGGK) does not contain it
        shifted = np.sum(~np.isclose(np.sort(plain), np.sort(modified)))
        assert shifted >= len(plain) // 2

    def test_invalid_site(self):
        with pytest.raises(IndexError):
            modified_by_ion_ladder(encode_sequence("AAK"), 7, 10.0)
        with pytest.raises(IndexError):
            modified_by_ion_ladder(encode_sequence("AAK"), -1, 10.0)


class TestScorersPtmAware:
    @pytest.mark.parametrize("scorer_name", ["shared_peaks", "hyperscore", "xcorr", "likelihood"])
    def test_correct_site_beats_unmodified_model(self, scorer_name):
        from repro.scoring.registry import make_scorer

        enc = encode_sequence("AAMGGGIKPEK")
        site = 2
        spectrum = modified_spectrum(enc, site, OXIDATION.delta_mass)
        scorer = make_scorer(scorer_name)
        modified_score = score_modified(scorer, spectrum, enc, site, OXIDATION.delta_mass)
        plain_score = score(scorer, spectrum, enc)
        assert modified_score > plain_score


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def db(self):
        return generate_database(150, seed=85)

    @pytest.fixture(scope="class")
    def mod_query(self, db):
        """A spectrum from an oxidized prefix of a database protein."""
        for i in range(len(db)):
            seq = db.sequence(i)
            prefix = seq[:14]
            sites = np.nonzero(prefix == ord("M"))[0]
            if len(sites):
                return (
                    modified_spectrum(prefix, int(sites[0]), OXIDATION.delta_mass, qid=0),
                    i,
                    prefix,
                )
        pytest.skip("no M-containing prefix in the test database")

    def test_missed_without_ptm_support(self, db, mod_query):
        spectrum, protein_idx, prefix = mod_query
        report = search_serial(db, [spectrum], SearchConfig(tau=5, delta=1.0))
        top = report.top_hit(0)
        # the modified peptide's mass is outside the unmodified window of
        # its own sequence: the true span cannot be found
        if top is not None:
            span_ok = (
                top.protein_id == int(db.ids[protein_idx])
                and top.stop - top.start == len(prefix)
                and top.start == 0
            )
            assert not span_ok

    def test_found_with_ptm_support(self, db, mod_query):
        spectrum, protein_idx, prefix = mod_query
        cfg = SearchConfig(tau=5, delta=1.0, modifications=(OXIDATION,))
        report = search_serial(db, [spectrum], cfg)
        top = report.top_hit(0)
        assert top is not None
        assert top.protein_id == int(db.ids[protein_idx])
        assert top.start == 0 and top.stop == len(prefix)
        assert top.mod_delta == pytest.approx(OXIDATION.delta_mass)

    def test_parallel_ptm_search_matches_serial(self, db, mod_query):
        spectrum, _idx, _prefix = mod_query
        cfg = SearchConfig(tau=5, delta=1.0, modifications=(OXIDATION,))
        ref = search_serial(db, [spectrum], cfg)
        for algorithm in ("algorithm_a", "algorithm_b", "master_worker"):
            rep = run_search(db, [spectrum], algorithm, 4, cfg)
            assert reports_equal(ref, rep), algorithm


class TestSenderGroupReach:
    """Algorithm B's sender groups and per-shard cutoffs reach as far as
    a variable modification shifts a span: a shard's heaviest parent,
    oxidised, can match a query above that parent's own mass."""

    @pytest.fixture(scope="class")
    def db(self):
        return generate_database(40, seed=85)

    @pytest.fixture(scope="class")
    def heaviest_oxidised(self, db):
        idx = int(np.argmax(db.parent_masses()))
        seq = db.sequence(idx)
        site = int(np.nonzero(seq == ord("M"))[0][0])
        return idx, len(seq), modified_spectrum(seq, site, OXIDATION.delta_mass)

    @pytest.mark.parametrize(
        "algorithm, p",
        [("serial", 1), ("algorithm_a", 2), ("algorithm_a", 4),
         ("algorithm_b", 2), ("algorithm_b", 4), ("master_worker", 4)],
    )
    def test_full_length_modified_peptide_found(self, db, heaviest_oxidised, algorithm, p):
        idx, length, spectrum = heaviest_oxidised
        cfg = SearchConfig(tau=5, delta=1.0, modifications=(OXIDATION,))
        report = run_search(db, [spectrum], algorithm, p, cfg)
        top = report.top_hit(0)
        assert top is not None, algorithm
        assert top.protein_id == int(db.ids[idx])
        assert (top.start, top.stop) == (0, length)
        assert top.mod_delta == pytest.approx(OXIDATION.delta_mass)
        assert report.candidates_evaluated == search_serial(db, [spectrum], cfg).candidates_evaluated
