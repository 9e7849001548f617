"""Unit tests for the shard-resident fragment-ion index."""

import numpy as np
import pytest

from repro.core.config import ExecutionMode, SearchConfig
from repro.core.search import ShardSearcher
from repro.index import FragmentIndex, IndexBuilder
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
        index = IndexBuilder(max_length=12).build(db).view()
        assert index.num_rows > 0
        assert index.row_length.shape == (index.num_rows,)
        assert np.all(index.row_length >= 2)
        assert np.all(index.row_length <= 12)
        assert index.num_fragments > 0
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


class TestSearcherGating:
    def test_modeled_execution_never_builds(self, db):
        cfg = SearchConfig(execution=ExecutionMode.MODELED)
        assert ShardSearcher(db, cfg, index=built_index(db, cfg)).index is None

    def test_library_backed_likelihood_is_not_indexable(self, db):
        """A spectral library needs per-candidate sequence lookups the
        index cannot serve, so the searcher must fall back to the
        direct batch path."""
        lib = SpectralLibrary()
        lib.add("PEPTIDEK", np.array([100.0, 200.0]), np.array([1.0, 2.0]))
        cfg = SearchConfig(scorer="likelihood")
        index = built_index(db, cfg)
        assert ShardSearcher(db, cfg, library=lib, index=index).index is None
        assert ShardSearcher(db, cfg, index=index).index is index

    def test_index_served_means_a_block_level_index_kernel(self, db, tiny_queries):
        """One predicate (``FragmentIndex.serves``) gates the handed-in
        index, the persisted-index check and the dispatch: a scorer
        without ``score_index_block``/``score_matrix_block`` searches
        direct instead of failing inside the pass."""
        from repro.core.search import index_compat_problems
        from repro.scoring import SharedPeakScorer

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
        assert FragmentIndex.serves(SharedPeakScorer())
        assert not FragmentIndex.serves(ScalarOnly())
        index = built_index(db, cfg)
        searcher = ShardSearcher(db, cfg, scorer=ScalarOnly(), index=index)
        assert searcher.index is None
        assert index_compat_problems(cfg, ScalarOnly())
        assert not index_compat_problems(cfg)
        got, ref = {}, {}
        searcher.run(tiny_queries, got)
        ShardSearcher(db, cfg, index=index).run(tiny_queries, ref)
        assert {q: h.sorted_hits() for q, h in got.items()} == {
            q: h.sorted_hits() for q, h in ref.items()
        }

    def test_nbytes_excludes_index(self, db):
        """The simulated machine's memory model covers shard + scorer
        state only; the index is a host-side acceleration structure."""
        cfg = SearchConfig()
        with_index = ShardSearcher(db, cfg, index=built_index(db, cfg))
        without = ShardSearcher(db, cfg)
        assert with_index.index is not None and without.index is None
        assert with_index.nbytes == without.nbytes
