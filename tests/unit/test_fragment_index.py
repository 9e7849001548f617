"""Unit tests for the shard-resident fragment-ion index."""

import numpy as np
import pytest

from repro.core.config import ExecutionMode, SearchConfig
from repro.core.search import ShardSearcher
from repro.index import FragmentIndex, IndexBuilder
from repro.index.layout import ARRAY_NAMES
from repro.spectra.library import SpectralLibrary
from repro.spectra.theoretical import by_ion_ladder
from repro.workloads.synthetic import generate_database
from tests.conftest import built_index


@pytest.fixture(scope="module")
def db():
    return generate_database(40, seed=11)


class TestConstruction:
    def test_rejects_bad_parameters(self, db):
        with pytest.raises(ValueError):
            IndexBuilder(fragment_tolerance=0.0)
        with pytest.raises(ValueError):
            IndexBuilder(max_length=1)

    def test_counts_and_sizes_are_consistent(self, db):
        from repro.candidates.mass_index import MassIndex

        index = IndexBuilder(max_length=12).build(db).view()
        spans = MassIndex(db).candidates_in_window(0.0, np.inf)
        held = index.rows_for(spans) >= 0
        assert index.num_rows == int(held.sum()) > 0
        assert np.array_equal(held, (spans.lengths >= 2) & (spans.lengths <= 12))
        # every held span posts its 2(L-1) fragments in both lists
        assert index.num_fragments == int(4 * (spans.lengths[held] - 1).sum())
        assert index.nbytes > 0

    def test_bin_width_floor(self, db):
        # narrow tolerances are clamped so bins stay coarse enough to
        # keep posting lists short
        assert IndexBuilder(fragment_tolerance=0.01).build(db).view().bin_width == 0.25
        assert IndexBuilder(fragment_tolerance=0.5).build(db).view().bin_width == 1.0

    def test_shared_peak_counts_match_ladder(self, db):
        """A spectrum made of one row's exact ladder matches every peak."""
        from repro.candidates.mass_index import MassIndex

        index = IndexBuilder(fragment_tolerance=0.5).build(db).view()
        seq = db.sequence(0)[:8]
        ladder = by_ion_ladder(seq)
        spans = MassIndex(db).candidates_in_window(0.0, 1e9)
        rows = index.rows_for(spans)
        target = (spans.seq_index == 0) & (spans.start == 0) & (spans.stop == 8)
        (pos,) = np.nonzero(target)
        assert len(pos) == 1 and rows[pos[0]] >= 0
        from repro.spectra.spectrum import Spectrum
        from repro.spectra.spectrum_batch import SpectrumBatch

        cohort = SpectrumBatch(
            [Spectrum.from_peaks(ladder, np.ones(len(ladder)), precursor_mz=500.0, charge=1)]
        )
        counts = index.shared_peak_counts_block(
            cohort, 0.5, [rows[pos[0] : pos[0] + 1]]
        )
        assert counts[0] == len(ladder)


class TestLayoutIsPostingsOnly:
    """The index is its two posting lists plus the row metadata that
    addresses them: a per-fragment or per-row column beyond those cannot
    come back unnoticed."""

    POSTINGS = {
        "ladder_mz", "ladder_row", "ladder_bin_start",
        "series_mz", "series_row", "series_tag", "series_bin_start",
    }

    def test_resident_array_names(self, tiny_db):
        built = IndexBuilder().build(tiny_db)
        # the index alone: the database it indexes rides beside it
        expect = self.POSTINGS | {"prefix_row", "suffix_row"}
        assert set(built.arrays) == set(built.layout.arrays) == set(ARRAY_NAMES) == expect

    def test_partition_array_names(self, tiny_db, tmp_path):
        from repro.store import save_partitioned_index

        # a partitioned store holds rows and no posting array at all
        store = save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=0.5)
        expect = {"row_seq", "row_start", "row_stop", "row_mass"}
        for entry in store.partitions:
            assert set(entry.arrays) == {s.name for s in entry.sections} == expect

    def test_bytes_per_fragment_bound(self, tiny_db):
        """16 B per ladder posting, 17 B per series posting, two int64
        maps over the residues, and the bin-start tables — nothing else."""
        built = IndexBuilder().build(tiny_db)
        layout = built.layout
        tables = (
            layout.arrays["ladder_bin_start"].nbytes
            + layout.arrays["series_bin_start"].nbytes
        )
        assert layout.nbytes <= (
            18 * layout.num_fragments + 16 * len(tiny_db.residues) + tables
        )


class TestSearcherGating:
    def test_modeled_execution_never_builds(self, db):
        cfg = SearchConfig(execution=ExecutionMode.MODELED)
        assert ShardSearcher(db, cfg, index=built_index(db, cfg)).index is None

    def test_index_served_means_a_block_level_index_kernel(self, db, tiny_queries):
        """One predicate (``FragmentIndex.serves``) gates the handed-in
        index and the dispatch: a scorer without ``score_index_block`` —
        xcorr, the likelihood models with or without a library,
        hypergeometric, a user's scalar-only scorer — searches direct
        instead of failing inside the pass."""
        from repro.scoring import SCORER_NAMES, SharedPeakScorer, make_scorer

        class ScalarOnly:
            name = "shared_peaks"
            relative_cost = 1.0
            _inner = SharedPeakScorer()

            def score(self, spectrum, candidate):
                return self._inner.score(spectrum, candidate)

            def score_modified(self, spectrum, candidate, site, delta_mass):
                return self._inner.score_modified(spectrum, candidate, site, delta_mass)

            def score_index(self, spectrum, index, rows):  # not a block kernel
                raise AssertionError("no engine path calls a per-query index kernel")

        cfg = SearchConfig(scorer="shared_peaks", tau=5)
        assert {n for n in SCORER_NAMES if FragmentIndex.serves(make_scorer(n))} == {
            "shared_peaks", "hyperscore",
        }
        lib = SpectralLibrary()
        lib.add("PEPTIDEK", np.array([100.0, 200.0]), np.array([1.0, 2.0]))
        assert not FragmentIndex.serves(make_scorer("likelihood", library=lib))
        assert not FragmentIndex.serves(ScalarOnly())
        index = built_index(db, cfg)
        searcher = ShardSearcher(db, cfg, scorer=ScalarOnly(), index=index)
        assert searcher.index is None
        got, ref = {}, {}
        searcher.run(tiny_queries, got)
        ShardSearcher(db, cfg, index=index).run(tiny_queries, ref)
        assert {q: h.sorted_hits() for q, h in got.items()} == {
            q: h.sorted_hits() for q, h in ref.items()
        }

    def test_nbytes_excludes_index(self, db):
        """The simulated machine's memory model covers shard + scorer
        state only; the index is a host-side acceleration structure."""
        cfg = SearchConfig(scorer="hyperscore")
        with_index = ShardSearcher(db, cfg, index=built_index(db, cfg))
        without = ShardSearcher(db, cfg)
        assert with_index.index is not None and without.index is None
        assert with_index.nbytes == without.nbytes
