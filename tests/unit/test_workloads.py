"""Unit tests for workload generators (synthetic DB, queries, datasets)."""

import numpy as np
import pytest

from repro.chem.amino_acids import is_valid_sequence
from repro.constants import NATURAL_FREQUENCY
from repro.workloads.candidate_counts import candidate_count_by_source
from repro.workloads.datasets import HUMAN, MICROBIAL, load_dataset
from repro.workloads.growth import doubling_time_years, genbank_growth_series
from repro.workloads.queries import QueryWorkload, generate_queries
from repro.workloads.synthetic import SyntheticProteinGenerator, generate_database


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_database(30, seed=1)
        b = generate_database(30, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_database(30, seed=1) != generate_database(30, seed=2)

    def test_prefix_consistency(self):
        big = generate_database(100, seed=3)
        small = generate_database(10, seed=3)
        assert np.array_equal(small.residues, big.residues[: small.total_residues])
        assert np.array_equal(small.offsets, big.offsets[:11])

    def test_sequences_are_valid_residues(self):
        db = generate_database(20, seed=4)
        assert is_valid_sequence(db.residues)

    def test_mean_length_close_to_target(self):
        gen = SyntheticProteinGenerator(seed=5, mean_length=314.44)
        db = gen.database(2000)
        assert db.total_residues / len(db) == pytest.approx(314.44, rel=0.05)

    def test_composition_close_to_natural(self):
        db = generate_database(500, seed=6)
        counts = np.bincount(db.residues, minlength=256)
        for aa, freq in NATURAL_FREQUENCY.items():
            observed = counts[ord(aa)] / db.total_residues
            assert observed == pytest.approx(freq, rel=0.15), aa

    def test_sequence_accessor_matches_database(self):
        gen = SyntheticProteinGenerator(seed=7)
        db = gen.database(15)
        for i in (0, 7, 14):
            assert np.array_equal(gen.sequence(i), db.sequence(i))

    def test_min_length_respected(self):
        gen = SyntheticProteinGenerator(seed=8, min_length=50, mean_length=60.0)
        db = gen.database(200)
        assert int(db.lengths.min()) >= 50

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SyntheticProteinGenerator(mean_length=10.0, min_length=30)
        with pytest.raises(ValueError):
            SyntheticProteinGenerator(sigma=0.0)
        with pytest.raises(ValueError):
            generate_database(-1)

    def test_zero_sequences(self):
        assert len(generate_database(0)) == 0


class TestQueryWorkload:
    def test_deterministic(self):
        a, ta = QueryWorkload(num_queries=5, seed=9).build()
        b, tb = QueryWorkload(num_queries=5, seed=9).build()
        for x, y in zip(a, b):
            assert np.array_equal(x.mz, y.mz)
        for x, y in zip(ta, tb):
            assert np.array_equal(x, y)

    def test_query_ids_sequential(self):
        spectra, _ = QueryWorkload(num_queries=7, seed=10).build()
        assert [s.query_id for s in spectra] == list(range(7))

    def test_targets_are_terminal_spans_of_source(self, tiny_db):
        spectra, targets = QueryWorkload(num_queries=10, seed=11, source=tiny_db).build()
        for t in targets:
            found = False
            for i in range(len(tiny_db)):
                seq = tiny_db.sequence(i)
                if len(t) <= len(seq) and (
                    np.array_equal(seq[: len(t)], t) or np.array_equal(seq[-len(t) :], t)
                ):
                    found = True
                    break
            assert found, "target is not a prefix/suffix of any source sequence"

    def test_target_lengths_bounded(self):
        wl = QueryWorkload(num_queries=20, seed=12, min_length=8, max_length=25)
        _, targets = wl.build()
        assert all(8 <= len(t) <= 25 for t in targets)

    def test_decoys_not_from_source(self, tiny_db):
        wl = QueryWorkload(num_queries=20, seed=13, source=tiny_db, decoy_fraction=1.0)
        _, targets = wl.build()
        blob = tiny_db.residues.tobytes()
        outside = sum(1 for t in targets if t.tobytes() not in blob)
        assert outside >= 18  # random 8+-mers virtually never occur by chance

    def test_parent_mass_matches_target(self):
        from repro.chem.peptide import peptide_mass

        spectra, targets = QueryWorkload(num_queries=5, seed=14).build()
        for s, t in zip(spectra, targets):
            assert s.parent_mass == pytest.approx(peptide_mass(t), abs=0.1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            QueryWorkload(num_queries=-1)
        with pytest.raises(ValueError):
            QueryWorkload(decoy_fraction=1.5)
        with pytest.raises(ValueError):
            QueryWorkload(min_length=10, max_length=5)

    def test_generate_queries_wrapper(self):
        qs = generate_queries(3, seed=15)
        assert len(qs) == 3


class TestDatasets:
    def test_named_lookup(self):
        db = load_dataset("human", n=50)
        assert len(db) == 50

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("martian")

    def test_scale(self):
        assert HUMAN.size_at_scale(0.001) == round(88333 * 0.001)
        with pytest.raises(ValueError):
            HUMAN.size_at_scale(0.0)

    def test_specs_match_paper_table1(self):
        assert HUMAN.full_sequences == 88_333
        assert MICROBIAL.full_sequences == 2_655_064
        assert HUMAN.mean_length == pytest.approx(301.66)
        assert MICROBIAL.mean_length == pytest.approx(314.44)

    def test_built_databases_match_table1_lengths(self):
        """Table I at 2 % of the human count (and 4x that many microbial
        sequences): average lengths within 5 % of the paper's."""
        human = HUMAN.build(n=HUMAN.size_at_scale(0.02))
        microbial = MICROBIAL.build(n=4 * len(human))
        assert human.total_residues / len(human) == pytest.approx(301.66, rel=0.05)
        assert microbial.total_residues / len(microbial) == pytest.approx(314.44, rel=0.05)

    def test_human_and_microbial_differ(self):
        assert load_dataset("human", n=20) != load_dataset("microbial", n=20)


class TestGrowth:
    def test_series_monotone_exponential(self):
        pts = genbank_growth_series(1988, 2008)
        assert len(pts) == 21
        values = [p.base_pairs for p in pts]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_doubling_time(self):
        pts = genbank_growth_series(1990, 2006)
        assert doubling_time_years(pts) == pytest.approx(1.5, rel=0.01)

    def test_four_orders_of_magnitude_over_the_figure(self):
        """Figure 1a spans 1988-2008: more than 10^4-fold growth."""
        pts = genbank_growth_series(1988, 2008)
        assert pts[-1].base_pairs / pts[0].base_pairs > 1e4

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            genbank_growth_series(2008, 1988)


class TestCandidateCounts:
    def test_counts_grow_with_source_complexity(self):
        queries = generate_queries(15, seed=16)
        rows = candidate_count_by_source(
            queries, class_sizes={"family": 30, "genome": 300, "community": 3000}
        )
        means = [r.mean_candidates for r in rows]
        assert means[0] < means[1] < means[2], means
        # Figure 1b's explosion: a community scope dwarfs a protein family
        assert means[2] / max(means[0], 1.0) > 50, means

    def test_ptms_increase_counts(self):
        from repro.chem.amino_acids import STANDARD_MODIFICATIONS

        queries = generate_queries(15, seed=16)
        sizes = {"family": 30, "genome": 300, "community": 3000}
        plain = candidate_count_by_source(queries, class_sizes=sizes)
        modded = candidate_count_by_source(
            queries,
            modifications=(
                STANDARD_MODIFICATIONS["oxidation"],
                STANDARD_MODIFICATIONS["phosphorylation_s"],
            ),
            class_sizes=sizes,
        )
        for p, m in zip(plain, modded):
            assert m.mean_candidates >= p.mean_candidates, p.source


class TestChargeStates:
    def test_charges_sampled_from_configured_set(self):
        wl = QueryWorkload(num_queries=40, seed=18, charges=(2, 3))
        spectra, _ = wl.build()
        observed = {s.charge for s in spectra}
        assert observed <= {2, 3}
        assert len(observed) == 2

    def test_default_mix_includes_multiple_charges(self):
        spectra, _ = QueryWorkload(num_queries=60, seed=19).build()
        assert len({s.charge for s in spectra}) >= 2

    def test_parent_mass_consistent_across_charges(self):
        from repro.chem.peptide import peptide_mass

        spectra, targets = QueryWorkload(num_queries=30, seed=20, charges=(1, 2, 3)).build()
        for s, t in zip(spectra, targets):
            assert s.parent_mass == pytest.approx(peptide_mass(t), abs=0.2)

    def test_invalid_charges_rejected(self):
        with pytest.raises(ValueError):
            QueryWorkload(charges=())
        with pytest.raises(ValueError):
            QueryWorkload(charges=(0,))
