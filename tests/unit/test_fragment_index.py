"""Unit tests for the resident fragment-ion index over the row table."""

import numpy as np
import pytest

from repro.core.config import ExecutionMode, SearchConfig
from repro.errors import IndexCompatError
from repro.index import FragmentIndex, IndexBuilder
from repro.index.layout import ARRAY_NAMES, POSTING_ARRAYS, ROW_ARRAYS
from repro.workloads.synthetic import generate_database
from tests.conftest import store_searcher
from tests.reference import by_ion_ladder


@pytest.fixture(scope="module")
def db():
    return generate_database(40, seed=11)


class TestConstruction:
    def test_rejects_bad_parameters(self, db):
        with pytest.raises(ValueError):
            IndexBuilder(fragment_tolerance=0.0)
        with pytest.raises(ValueError):
            IndexBuilder(max_length=1)

    def test_rejects_nan_tolerance(self, db):
        """Refused at construction, not as a raw ``np.bincount`` error from
        the build."""
        with pytest.raises(ValueError, match="fragment_tolerance must be > 0, got nan"):
            IndexBuilder(fragment_tolerance=float("nan"))

    def test_counts_and_sizes_are_consistent(self, db):
        from repro.candidates.mass_index import MassIndex

        index = IndexBuilder(max_length=12).build(db).view()
        # the table holds every span of the database, the envelope or not
        spans = MassIndex(db).candidates_in_window(0.0, np.inf)
        assert index.num_rows == len(index.rows) == len(spans) > 0
        lengths = index.rows.spans(np.arange(index.num_rows)).lengths
        held = index.holds(np.arange(index.num_rows))
        assert np.array_equal(held, (lengths >= 2) & (lengths <= 12))
        assert 0 < int(held.sum()) < index.num_rows
        # every held row posts its 2(L-1) b and y ions once
        assert index.num_fragments == int(2 * (lengths[held] - 1).sum())
        assert index.nbytes > 0

    def test_bin_width_floor(self, db):
        # narrow tolerances are clamped so bins stay coarse enough to
        # keep posting lists short
        assert IndexBuilder(fragment_tolerance=0.01).build(db).view().bin_width == 0.25
        assert IndexBuilder(fragment_tolerance=0.5).build(db).view().bin_width == 1.0

    def test_shared_peak_counts_match_ladder(self, db):
        """A spectrum made of one row's exact ladder matches every peak."""
        index = IndexBuilder(fragment_tolerance=0.5).build(db).view()
        seq = db.sequence(0)[:8]
        ladder = by_ion_ladder(seq)
        rows = index.rows.spans(np.arange(index.num_rows))
        target = (rows.seq_index == 0) & (rows.start == 0) & (rows.stop == 8)
        (pos,) = np.nonzero(target)
        assert len(pos) == 1 and index.holds(pos).all()
        from repro.spectra.spectrum import Spectrum
        from repro.spectra.spectrum_batch import SpectrumBatch

        cohort = SpectrumBatch(
            [Spectrum.from_peaks(ladder, np.ones(len(ladder)), precursor_mz=500.0, charge=1)]
        )
        counts = index.shared_peak_counts_block(cohort, 0.5, [pos])
        assert counts[0] == len(ladder)


class TestLayoutIsPostingsOnly:
    """The index is its row table plus the one posting list that
    addresses it: a per-fragment or per-row column beyond those, or a
    second list, cannot come back unnoticed."""

    def test_resident_array_names(self, tiny_db):
        built = IndexBuilder().build(tiny_db)
        # the index alone: the database its rows name rides beside it
        expect = set(ROW_ARRAYS) | set(POSTING_ARRAYS)
        assert set(built.arrays) == set(built.layout.arrays) == set(ARRAY_NAMES) == expect
        assert len(expect) == 6

    def test_partition_array_names(self, tiny_db, tmp_path):
        from repro.store import save_partitioned_index

        # a partitioned store holds the same rows and no posting array at all
        store = save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=0.5)
        assert store.layout is None and store.num_partitions > 0
        assert set(store.rows) == set(ROW_ARRAYS)
        assert sorted(p.stem for p in (store.path / "index").iterdir()) == sorted(ROW_ARRAYS)

    def test_bytes_per_fragment_bound(self, tiny_db):
        """The postings: 13 B per posted fragment (its m/z, an int32 row
        id and its series tag), and one bin-start table — nothing
        else."""
        layout = IndexBuilder().build(tiny_db).layout
        table = layout.arrays["series_bin_start"].nbytes
        postings = sum(layout.arrays[name].nbytes for name in POSTING_ARRAYS)
        assert postings <= 13 * layout.num_fragments + table

    def test_bytes_per_row_bound(self, tiny_db):
        """The row table: a float64 mass and an int32 key, 12 B a row."""
        layout = IndexBuilder().build(tiny_db).layout
        rows = sum(layout.arrays[name].nbytes for name in ROW_ARRAYS)
        assert 0 < rows == 12 * layout.num_rows
        assert layout.nbytes == rows + sum(
            layout.arrays[name].nbytes for name in POSTING_ARRAYS
        )


class TestBuildMemory:
    def test_the_build_holds_little_more_than_it_writes(self):
        """``IndexBuilder.build`` over a table it is handed, at 250 seeded
        proteins (1 128 000 postings): the traced peak stays within 1.75x
        the posting arrays it returns.  Beside them the build holds the
        envelope and one run's transients (``BUILD_CHUNK_FRAGMENTS``
        fragments), each run generated once to count its bins and again
        to place them.  A build that keeps every run's m/z between the
        two passes peaks at ~2.2x."""
        import tracemalloc

        from repro.candidates.mass_index import MassIndex

        db = generate_database(250, seed=17)
        table = MassIndex(db)
        tracemalloc.start()
        try:
            built = IndexBuilder().build(db, table)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        postings = sum(built.arrays[name].nbytes for name in POSTING_ARRAYS)
        assert built.layout.num_fragments == 1_128_000
        assert peak <= 1.75 * postings, (peak, postings)


class TestSearcherGating:
    def test_modeled_execution_never_builds(self, db):
        """A store serves only searches that score: the store searcher
        refuses MODELED execution before it maps anything."""
        cfg = SearchConfig(execution=ExecutionMode.MODELED)
        with pytest.raises(IndexCompatError, match="modeled execution"):
            store_searcher(db, cfg)

    def test_index_served_means_a_block_level_index_kernel(self, db, tiny_queries):
        """One predicate (``FragmentIndex.serves``) gates the postings: a
        scorer without ``score_index_block`` — xcorr, the likelihood
        model, hypergeometric, a user's pair-kernel-only scorer — scores
        the store's rows directly instead of failing inside the pass."""
        from repro.scoring import SCORER_NAMES, SharedPeakScorer, make_scorer

        class KernelOnly:
            name = "shared_peaks"
            relative_cost = 1.0
            _inner = SharedPeakScorer()

            def pair_kernel(self, spectra):
                return self._inner.pair_kernel(spectra)

            def score_block(self, spectra, batch, selections):
                return self._inner.score_block(spectra, batch, selections)

            def score_index(self, spectrum, index, rows):  # not a block kernel
                raise AssertionError("no engine path calls a per-query index kernel")

        cfg = SearchConfig(scorer="shared_peaks", tau=5)
        assert {n for n in SCORER_NAMES if FragmentIndex.serves(make_scorer(n))} == {
            "shared_peaks", "hyperscore",
        }
        assert not FragmentIndex.serves(KernelOnly())
        searcher = store_searcher(db, cfg, scorer=KernelOnly())
        assert searcher.index is None
        served = store_searcher(db, cfg)
        assert served.index is not None
        got, ref = {}, {}
        assert searcher.run(tiny_queries, got).index_rows == 0
        assert served.run(tiny_queries, ref).index_rows > 0
        assert {q: h.sorted_hits() for q, h in got.items()} == {
            q: h.sorted_hits() for q, h in ref.items()
        }
