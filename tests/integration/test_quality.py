"""Integration: prediction quality — the paper's third axis.

The run-time savings of parallelism exist to pay for *accurate
statistics* (Section I.B).  These tests measure identification quality
with known ground truth (workload targets) and reproduce the paper's
X!!Tandem argument: the fast engine misses identifications the accurate
engine makes.  The statistical-model comparison (Cannon et al. 2005,
the study behind MSPolygraph) runs here too: the likelihood model
leaks the fewest not-in-database spectra through a target-decoy FDR
cut, and pays for it per candidate.
"""

import numpy as np
import pytest

from repro.chem.decoy import with_decoys
from repro.core.config import SearchConfig
from repro.core.costmodel import CostModel
from repro.core.driver import run_search
from repro.core.search import search_serial
from repro.scoring.registry import make_scorer
from repro.scoring.statistics import accepted_at_fdr, fdr_curve, top_hits_with_labels
from repro.spectra.experimental import SimulatorConfig
from repro.spectra.spectrum import Spectrum
from repro.workloads.queries import QueryWorkload
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def db():
    return generate_database(300, seed=60)


@pytest.fixture(scope="module")
def workload(db):
    return QueryWorkload(num_queries=40, seed=61, source=db).build()


def recovery_rate(db, report, spectra, targets, top_k=1):
    """Fraction of queries whose true peptide appears in the top-k hits."""
    index_of = {int(pid): i for i, pid in enumerate(db.ids)}
    found = 0
    for spec, target in zip(spectra, targets):
        hits = report.hits.get(spec.query_id, [])[:top_k]
        for hit in hits:
            seq = db.sequence(index_of[hit.protein_id])
            if np.array_equal(seq[hit.start : hit.stop], target):
                found += 1
                break
    return found / len(spectra)


class TestAccurateEngineQuality:
    def test_likelihood_recovers_most_targets(self, db, workload):
        spectra, targets = workload
        report = search_serial(db, spectra, SearchConfig(tau=10))
        assert recovery_rate(db, report, spectra, targets, top_k=1) >= 0.7

    def test_targets_nearly_always_in_top_tau(self, db, workload):
        spectra, targets = workload
        report = search_serial(db, spectra, SearchConfig(tau=10))
        assert recovery_rate(db, report, spectra, targets, top_k=10) >= 0.85

    def test_likelihood_beats_shared_peaks_at_rank1(self, db, workload):
        spectra, targets = workload
        accurate = search_serial(db, spectra, SearchConfig(tau=10, scorer="likelihood"))
        cheap = search_serial(db, spectra, SearchConfig(tau=10, scorer="shared_peaks"))
        acc_rate = recovery_rate(db, accurate, spectra, targets)
        cheap_rate = recovery_rate(db, cheap, spectra, targets)
        assert acc_rate >= cheap_rate


class TestXbangQuality:
    def test_xbang_misses_identifications(self, db, workload):
        """The aggressive tryptic prefilter misses targets whose terminal
        span contains more internal cleavage sites than its budget."""
        spectra, targets = workload
        accurate = run_search(db, spectra, "algorithm_a", 4, SearchConfig(tau=10))
        fast = run_search(db, spectra, "xbang", 4, SearchConfig(tau=10))
        acc_rate = recovery_rate(db, accurate, spectra, targets, top_k=10)
        fast_rate = recovery_rate(db, fast, spectra, targets, top_k=10)
        assert fast_rate < acc_rate, (
            f"fast engine should miss targets (fast {fast_rate}, accurate {acc_rate})"
        )

    def test_xbang_still_finds_clean_tryptic_targets(self, db, workload):
        spectra, targets = workload
        fast = run_search(db, spectra, "xbang", 4, SearchConfig(tau=10))
        assert recovery_rate(db, fast, spectra, targets, top_k=10) > 0.2


class TestDecoyDiscrimination:
    def test_decoy_scores_below_true_scores(self, db):
        spectra_t, _ = QueryWorkload(num_queries=20, seed=62, source=db).build()
        spectra_d, _ = QueryWorkload(
            num_queries=20, seed=63, source=db, decoy_fraction=1.0
        ).build()
        cfg = SearchConfig(tau=1)
        rep_t = search_serial(db, spectra_t, cfg)
        rep_d = search_serial(db, spectra_d, cfg)
        true_scores = [h[0].score for h in rep_t.hits.values() if h]
        decoy_scores = [h[0].score for h in rep_d.hits.values() if h]
        assert np.median(true_scores) > np.median(decoy_scores) + 5.0

    def test_score_cutoff_suppresses_decoys(self, db):
        spectra_d, _ = QueryWorkload(
            num_queries=20, seed=64, source=db, decoy_fraction=1.0
        ).build()
        cfg = SearchConfig(tau=5, score_cutoff=5.0)
        rep = search_serial(db, spectra_d, cfg)
        reported = sum(len(h) for h in rep.hits.values())
        assert reported <= 5  # nearly all decoys fall below a LLR of 5


class TestModelComparison:
    """40 genuine spectra (peptides of the target database) plus 40
    absent ones (peptides from nowhere), noisy instrument model, searched
    against targets + decoys and cut at 5 % target-decoy FDR."""

    ABSENT_BASE = 500  # query-id offset of the absent half

    @pytest.fixture(scope="class")
    def accepted(self):
        targets_db = generate_database(800, seed=95)
        combined = with_decoys(targets_db)
        sim = SimulatorConfig(
            peak_dropout=0.55, noise_peaks=40.0, mz_jitter_sd=0.02, min_peaks=4
        )
        genuine, _ = QueryWorkload(
            num_queries=40, seed=96, source=targets_db, simulator=sim
        ).build()
        absent, _ = QueryWorkload(
            num_queries=40, seed=97, decoy_fraction=1.0, simulator=sim
        ).build()
        absent = [
            Spectrum(s.mz, s.intensity, s.precursor_mz, s.charge, self.ABSENT_BASE + k)
            for k, s in enumerate(absent)
        ]
        spectra = list(genuine) + absent
        out = {}
        for name in ("shared_peaks", "hypergeometric", "likelihood"):
            report = search_serial(
                combined, spectra, SearchConfig(tau=3, scorer=name, delta=4.0)
            )
            ids = accepted_at_fdr(fdr_curve(top_hits_with_labels(report.hits)), 0.05)
            out[name] = (
                sum(1 for i in ids if i.query_id < self.ABSENT_BASE),
                sum(1 for i in ids if i.query_id >= self.ABSENT_BASE),
            )
        return out

    def test_likelihood_leaks_least(self, accepted):
        leak = {name: absent for name, (_, absent) in accepted.items()}
        assert leak["likelihood"] <= leak["shared_peaks"]
        assert leak["likelihood"] <= leak["hypergeometric"]

    def test_likelihood_accepts_genuine_spectra(self, accepted):
        assert accepted["likelihood"][0] >= 35

    def test_accuracy_costs_compute(self):
        cost = CostModel()
        assert cost.rho(make_scorer("likelihood")) > cost.rho(make_scorer("shared_peaks"))
