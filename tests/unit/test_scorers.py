"""Unit tests for all scoring models and the registry.

Score values come from each scorer's scalar definition
(``tests/reference.py``), which every kernel equals bit for bit.
"""

import math

import numpy as np
import pytest

from repro.candidates.batch import CandidateBatch
from repro.candidates.mass_index import MassIndex
from repro.chem.amino_acids import encode_sequence
from repro.chem.protein import ProteinDatabase
from repro.errors import ConfigError
from repro.scoring.base import Scorer, block_scores
from repro.scoring.hypergeometric import HypergeometricScorer
from repro.scoring.hyperscore import HyperScorer
from repro.scoring.likelihood import LikelihoodRatioScorer
from repro.scoring.registry import SCORER_NAMES, make_scorer
from repro.scoring.shared_peaks import SharedPeakScorer
from repro.scoring.xcorr import XCorrScorer
from repro.spectra.experimental import SimulatorConfig, SpectrumSimulator
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from repro.spectra.theoretical import theoretical_spectrum
from tests.reference import (
    by_ion_ladder,
    fragment_llrs,
    match_peaks,
    scalar_block_scores,
    score,
)

TRUE_PEPTIDE = encode_sequence("MKTAYIAKQR")
WRONG_PEPTIDE = encode_sequence("WWWWHHHHFF")

ALL_SCORERS = [
    SharedPeakScorer(),
    LikelihoodRatioScorer(),
    HyperScorer(),
    XCorrScorer(),
    HypergeometricScorer(),
]


@pytest.fixture(scope="module")
def clean_spectrum():
    cfg = SimulatorConfig(peak_dropout=0.15, noise_peaks=3.0)
    return SpectrumSimulator(cfg, seed=21).simulate(TRUE_PEPTIDE, query_id=0)


@pytest.mark.parametrize("scorer", ALL_SCORERS, ids=lambda s: s.name)
class TestAllScorers:
    def test_true_beats_wrong(self, scorer, clean_spectrum):
        true_score = score(scorer, clean_spectrum, TRUE_PEPTIDE)
        wrong_score = score(scorer, clean_spectrum, WRONG_PEPTIDE)
        assert true_score > wrong_score

    def test_deterministic(self, scorer, clean_spectrum):
        a = score(scorer, clean_spectrum, TRUE_PEPTIDE)
        b = score(scorer, clean_spectrum, TRUE_PEPTIDE)
        assert a == b

    def test_has_protocol_attributes(self, scorer, clean_spectrum):
        assert isinstance(scorer.name, str)
        assert scorer.relative_cost >= 1.0

    def test_handles_empty_spectrum(self, scorer, clean_spectrum):
        empty = Spectrum(np.array([]), np.array([]), 1000.0)
        value = score(scorer, empty, TRUE_PEPTIDE)
        assert value == -math.inf or value <= 0.0


class TestSharedPeaks:
    def test_counts_matched_peaks(self):
        ladder = by_ion_ladder(TRUE_PEPTIDE)
        spec = Spectrum(ladder, np.ones(len(ladder)), 1200.0)
        assert score(SharedPeakScorer(0.1), spec, TRUE_PEPTIDE) == len(ladder)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            SharedPeakScorer(0.0)


class TestLikelihood:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            LikelihoodRatioScorer(fragment_tolerance=-1)
        with pytest.raises(ValueError):
            LikelihoodRatioScorer(p_detect=1.5)

    def test_true_candidate_scores_positive(self, clean_spectrum):
        # a good match should be more likely than the random-peptide null
        assert score(LikelihoodRatioScorer(), clean_spectrum, TRUE_PEPTIDE) > 0

    def test_random_candidate_scores_negative(self, clean_spectrum):
        assert score(LikelihoodRatioScorer(), clean_spectrum, WRONG_PEPTIDE) < 0

    def test_relative_cost_reflects_accuracy_cost(self):
        # the paper's quality argument: the accurate model is expensive
        assert LikelihoodRatioScorer().relative_cost > HyperScorer().relative_cost


class TestLikelihoodTable:
    """The per-member table the likelihood pair kernel gathers from holds
    the scalar model's per-fragment terms, bit for bit."""

    TOL = 0.5

    @staticmethod
    def _spectrum(peaks):
        mz = np.sort(np.asarray(peaks, dtype=np.float64))
        return Spectrum.from_peaks(mz, np.ones(len(mz)), precursor_mz=600.0, charge=2)

    def _cohort(self):
        """Members with peaks exactly at a b or y fragment of TRUE_PEPTIDE
        plus or minus the tolerance: p0 at its lower clamp (one peak; three
        peaks at one m/z), unclamped, at its upper clamp (dense peaks), and
        members without peaks first and last."""
        model_mz, model_int = theoretical_spectrum(TRUE_PEPTIDE)
        b, y, tol = model_mz[model_int < 1.0], model_mz[model_int == 1.0], self.TOL
        return SpectrumBatch(
            [
                self._spectrum([]),
                self._spectrum([y[2] + tol]),
                self._spectrum([b[1] - tol, y[3] + tol, b[6] + tol, y[7] - tol]),
                self._spectrum(b[4] - tol + 0.25 * np.arange(30)),
                self._spectrum([y[5] - tol] * 3),
                self._spectrum([]),
            ]
        )

    @pytest.mark.parametrize("p_detect", [0.7, 1e-7, 0.9999])  # p1 unclamped, low, high
    def test_entries_are_the_scalar_terms(self, p_detect):
        """The table's ``p0`` is one array expression over the batch; every
        entry is still the scalar ``_chance_match_probability``'s term."""
        scorer = LikelihoodRatioScorer(self.TOL, p_detect)
        cohort = self._cohort()
        probs = [scorer._chance_match_probability(s) for s in cohort.spectra]
        assert probs[0] == probs[-1] == 1e-9  # no peaks
        assert probs[1] == probs[4] == 1e-9  # one peak; all peaks at one m/z
        assert 1e-9 < probs[2] < 0.999 and probs[3] == 0.999
        table = scorer.llr_table(cohort)
        assert np.all(table[[0, -1]] == -math.inf)  # the members without peaks
        used = set()
        for k, spectrum in enumerate(cohort.spectra[1:-1], start=1):
            for peptide in (TRUE_PEPTIDE, WRONG_PEPTIDE):
                model_mz, model_int = theoretical_spectrum(peptide)
                code = 2 * match_peaks(model_mz, spectrum.mz, self.TOL) + (model_int == 1.0)
                used.update(code.tolist())
                terms = fragment_llrs(scorer, spectrum, model_mz, model_int)
                assert table[k, code].tobytes() == terms.tobytes()
        assert used == {0, 1, 2, 3}  # unmatched b, y; matched b, y
        # a slice of the batch binds the same rows
        part = cohort.slice(1, 4)
        assert scorer.llr_table(part).tobytes() == table[1:4].tobytes()

    @pytest.mark.parametrize("p_detect", [0.7, 1e-7, 0.9999])
    def test_block_scores_equal_the_scalar_scores(self, p_detect):
        db = ProteinDatabase.from_sequences(["MKTAYIAKQR", "WWWWHHHHFF"])
        batch = CandidateBatch.from_spans(db, MassIndex(db).candidates_in_window(0.0, np.inf))
        cohort = self._cohort()
        selections = [np.arange(len(batch))] * len(cohort)
        got = block_scores(LikelihoodRatioScorer(self.TOL, p_detect), cohort, batch, selections)
        want = scalar_block_scores(
            LikelihoodRatioScorer(self.TOL, p_detect), cohort, batch, selections
        )
        assert got.tobytes() == want.tobytes()
        assert np.all(got[-len(batch):] == -math.inf)  # the member without peaks


class TestHyperscore:
    def test_no_matches_is_neg_inf(self):
        spec = Spectrum(np.array([5000.0]), np.array([1.0]), 6000.0)
        assert score(HyperScorer(), spec, TRUE_PEPTIDE) == -math.inf

    def test_more_matches_higher_score(self, clean_spectrum):
        # removing peaks from the spectrum must not raise the score
        full = score(HyperScorer(), clean_spectrum, TRUE_PEPTIDE)
        top = np.sort(np.argsort(clean_spectrum.intensity)[-4:])
        half = Spectrum(
            clean_spectrum.mz[top],
            clean_spectrum.intensity[top],
            clean_spectrum.precursor_mz,
            clean_spectrum.charge,
            clean_spectrum.query_id,
        )
        half = score(HyperScorer(), half, TRUE_PEPTIDE)
        assert full >= half

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            HyperScorer(-0.5)


class TestXCorr:
    def test_preprocessing_cached(self, clean_spectrum):
        scorer = XCorrScorer()
        score(scorer, clean_spectrum, TRUE_PEPTIDE)
        cached = scorer._cache[id(clean_spectrum)]
        score(scorer, clean_spectrum, WRONG_PEPTIDE)
        assert scorer._cache[id(clean_spectrum)] is cached

    def test_cache_survives_id_reuse(self):
        """A freed spectrum's ``id`` goes to the next allocation; with equal
        peak counts the cache used to hand back the dead spectrum's vector."""
        rng = np.random.default_rng(5)
        scorer = XCorrScorer()

        def fresh():
            mz = np.sort(rng.uniform(100.0, 900.0, 20))
            return Spectrum(mz, rng.uniform(0.1, 1.0, 20), precursor_mz=950.0)

        for _ in range(200):
            first = fresh()
            scorer._preprocessed(first)
            del first  # its id is free for the next Spectrum
            second = fresh()
            expected = XCorrScorer()._preprocessed(second)
            assert np.array_equal(scorer._preprocessed(second), expected)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            XCorrScorer(bin_width=0.0)
        with pytest.raises(ValueError):
            XCorrScorer(offset_range=0)


class TestRegistry:
    @pytest.mark.parametrize("name", SCORER_NAMES)
    def test_all_names_construct(self, name):
        scorer = make_scorer(name)
        assert scorer.name == name

    @pytest.mark.parametrize("name", SCORER_NAMES)
    def test_one_scoring_implementation(self, name):
        """Every registered scorer is a kernel scorer: the four-member
        protocol, and no scalar ``score`` / ``score_modified`` of its own
        (the scalar definitions live in ``tests/reference.py``)."""
        scorer = make_scorer(name)
        assert isinstance(scorer, Scorer)
        assert not hasattr(scorer, "score")
        assert not hasattr(scorer, "score_modified")

    def test_protocol_is_the_kernel_interface(self):
        """The protocol's members are exactly the four of a kernel scorer."""
        members = {
            "name": "k",
            "relative_cost": 1.0,
            "pair_kernel": lambda self, spectra: None,
            "score_block": lambda self, spectra, batch, selections: None,
        }
        assert isinstance(type("Kernel", (), members)(), Scorer)
        for missing in members:
            rest = {k: v for k, v in members.items() if k != missing}
            assert not isinstance(type("Partial", (), rest)(), Scorer)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_scorer("nope")

    @pytest.mark.parametrize("name", SCORER_NAMES)
    def test_nan_tolerance_rejected(self, name):
        """A NaN tolerance fails every ``<=`` test, so a scorer that let it
        through would score every candidate as unmatched."""
        with pytest.raises(ValueError):
            make_scorer(name, float("nan"))


class TestHypergeometric:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HypergeometricScorer(fragment_tolerance=0.0)
        with pytest.raises(ValueError):
            HypergeometricScorer(mz_range=-1.0)

    def test_probability_interpretation(self, clean_spectrum):
        """A strong true match has a tiny tail probability (large -log10)."""
        value = score(HypergeometricScorer(), clean_spectrum, TRUE_PEPTIDE)
        assert value > 3.0  # P < 1e-3 that a random candidate matches so well

    def test_registry_constructs_it(self):
        from repro.scoring.registry import make_scorer

        assert make_scorer("hypergeometric").name == "hypergeometric"
