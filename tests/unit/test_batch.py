"""Unit tests for the batch candidate structure and batched kernels."""

import tracemalloc

import numpy as np
import pytest

from repro.candidates import batch as batch_module
from repro.candidates.batch import CandidateBatch
from repro.candidates.generator import CandidateGenerator
from repro.chem.amino_acids import STANDARD_MODIFICATIONS, encode_sequence
from repro.chem.protein import ProteinDatabase
from repro.spectra.binning import (
    _fresh_intervals_pairs,
    count_matches_pairs,
    match_peaks_pairs,
    matched_intensity_pairs,
    row_segment_sums,
)
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import PeakLocator, SpectrumBatch
from repro.spectra.theoretical import (
    IonSeries,
    by_ion_ladders,
    by_model_rows,
    fragment_mz,
    fragment_mz_rows,
    theoretical_spectrum,
)
from repro.chem.amino_acids import mass_table
from tests.reference import by_ion_ladder, count_matches, match_peaks, matched_intensity

MODS = [STANDARD_MODIFICATIONS["oxidation"], STANDARD_MODIFICATIONS["phosphorylation_s"]]
MOD_TARGETS = {m.delta_mass: ord(m.target) for m in MODS}


@pytest.fixture()
def db():
    return ProteinDatabase.from_sequences(["MKTAYIAK", "SSMSK", "GG", "A"])


def all_spans(db, deltas=None):
    gen = CandidateGenerator(db, delta=0.0)
    spans = gen.index.candidates_in_window(0.0, 1e9)
    if deltas is not None:
        from dataclasses import replace

        spans = replace(spans, mod_delta=np.asarray(deltas, dtype=np.float64))
    return spans


class TestCandidateBatch:
    def test_gather_matches_shard_slices(self, db):
        spans = all_spans(db)
        batch = CandidateBatch.from_spans(db, spans, MOD_TARGETS)
        assert len(batch) == len(spans) == batch.num_rows
        for i in range(len(spans)):
            seq = db.sequence(int(spans.seq_index[i]))
            expected = seq[int(spans.start[i]) : int(spans.stop[i])]
            got = batch.residues[int(batch.offsets[i]) : int(batch.offsets[i + 1])]
            assert np.array_equal(got, expected)

    def test_unmodified_batch_has_one_row_per_candidate(self, db):
        spans = all_spans(db)
        batch = CandidateBatch.from_spans(db, spans, MOD_TARGETS)
        assert np.array_equal(batch.row_candidate, np.arange(len(spans)))
        assert np.all(batch.row_site == -1)
        assert np.all(batch.row_delta == 0.0)
        scores = np.arange(len(spans), dtype=np.float64)
        assert batch.reduce_rows(scores) is scores  # passthrough, no copy

    def test_ptm_rows_expand_per_site(self, db):
        spans = all_spans(db)
        ox = MODS[0].delta_mass  # target M
        deltas = np.full(len(spans), ox)
        spans = all_spans(db, deltas)
        batch = CandidateBatch.from_spans(db, spans, MOD_TARGETS)
        for i in range(len(spans)):
            seq = db.sequence(int(spans.seq_index[i]))
            candidate = seq[int(spans.start[i]) : int(spans.stop[i])]
            sites = np.nonzero(candidate == ord("M"))[0]
            lo, hi = int(batch.row_offsets[i]), int(batch.row_offsets[i + 1])
            if len(sites):
                assert np.array_equal(batch.row_site[lo:hi], sites)
                assert np.all(batch.row_delta[lo:hi] == ox)
            else:  # no target residue: single unmodified-model row
                assert hi - lo == 1
                assert batch.row_site[lo] == -1
                assert batch.row_delta[lo] == 0.0

    def test_unknown_delta_rows_stay_unmodified(self, db):
        n = len(all_spans(db))
        deltas = np.where(np.arange(n) % 2 == 0, 99.9, 0.0)
        spans = all_spans(db, deltas)
        batch = CandidateBatch.from_spans(db, spans, MOD_TARGETS)
        assert batch.num_rows == len(spans)
        assert np.all(batch.row_site == -1)

    def test_length_groups_partition_rows(self, db, monkeypatch):
        """Band invariants at a cap of 0 (one length a band), a small one
        and an unbounded one (one band a batch)."""
        n = len(all_spans(db))
        deltas = np.where(np.arange(n) % 3 == 0, MODS[0].delta_mass, 0.0)
        spans = all_spans(db, deltas)
        for cap in [0, 5, 10**9]:
            monkeypatch.setattr(batch_module, "BAND_ROWS", cap)
            batch = CandidateBatch.from_spans(db, spans, MOD_TARGETS)
            bands = batch.length_groups()
            row_length = spans.lengths[batch.row_candidate]
            # every row is in exactly one band
            seen = np.concatenate([g.rows for g in bands])
            assert sorted(seen.tolist()) == list(range(batch.num_rows))
            lengths = [row_length[g.rows] for g in bands]
            for g, lens in zip(bands, lengths):
                assert g.length == lens.max()
                assert np.all(np.diff(lens) >= 0)  # by length ...
                for length in np.unique(lens):  # ... then ascending
                    assert np.all(np.diff(g.rows[lens == length]) > 0)
                if g.row_lengths is None:  # a single-length band carries no padding
                    assert np.all(lens == g.length)
                    assert g.residue_rows.shape == (len(g.rows), g.length)
                    for j, r in enumerate(g.rows):
                        assert np.array_equal(g.residue_rows[j], batch.row_residues(int(r)))
                else:  # only a single-length band exceeds the cap
                    assert lens.min() < g.length and len(g.rows) <= cap
                    assert np.array_equal(g.row_lengths, lens)
                    assert g.residue_rows.shape == (len(g.rows), g.length)
                    for j, r in enumerate(g.rows):
                        assert np.array_equal(g.residue_rows[j, : lens[j]], batch.row_residues(int(r)))
                        assert np.all(g.residue_rows[j, lens[j] :] == 0)
            # bands ascend and are disjoint in length, and a band closes only
            # when its next length would take it past the cap
            for g, lens, next_lens in zip(bands, lengths, lengths[1:]):
                assert lens.max() < next_lens.min()
                assert len(g.rows) + int((next_lens == next_lens.min()).sum()) > cap
            if cap == 0:  # the per-length grouping: one band per length
                assert all(g.row_lengths is None for g in bands)
                assert len(bands) == len(np.unique(row_length))
            if cap == 5:  # both kinds of band
                assert {g.row_lengths is None for g in bands} == {True, False}
            if cap == 10**9:
                assert len(bands) == 1

    def test_mass_rows_apply_site_delta(self):
        db = ProteinDatabase.from_sequences(["MAM"])
        spans = all_spans(db, None)
        full = spans.take(spans.lengths == 3)
        from dataclasses import replace

        full = replace(full, mod_delta=np.full(len(full), MODS[0].delta_mass))
        batch = CandidateBatch.from_spans(db, full, MOD_TARGETS)
        (group,) = batch.length_groups()
        base = mass_table(True)[encode_sequence("MAM")]
        for j in range(group.residue_rows.shape[0]):
            expected = base.copy()
            expected[group.sites[j]] += group.deltas[j]
            assert group.mass_rows()[j].tobytes() == expected.tobytes()


class TestBatchedKernels:
    def setup_method(self):
        rng = np.random.default_rng(42)
        codes = encode_sequence("ACDEFGHIKLMNPQRSTVWY")
        self.rows = rng.choice(codes, size=(25, 9))
        self.masses = mass_table(True)[self.rows]
        self.obs_mz = np.sort(rng.uniform(100.0, 1800.0, 50))
        self.obs_int = rng.uniform(0.0, 1.0, 50)
        # the pair kernels take (cohort, member-of-row): a cohort of one
        self.cohort = self._cohort(self.obs_mz, self.obs_int)
        self.member = np.zeros(len(self.rows), dtype=np.int64)

    @staticmethod
    def _cohort(mz, intensity):
        return SpectrumBatch(
            [Spectrum.from_peaks(mz, intensity, precursor_mz=500.0, charge=1, query_id=0)]
        )

    def test_ladder_rows_match_scalar(self):
        ladders = by_ion_ladders(self.masses)
        for i, row in enumerate(self.rows):
            assert ladders[i].tobytes() == by_ion_ladder(row).tobytes()

    def test_fragment_rows_match_scalar(self):
        for series in (IonSeries.B, IonSeries.Y):
            frags = fragment_mz_rows(self.masses, series)
            for i, row in enumerate(self.rows):
                assert frags[i].tobytes() == fragment_mz(row, series).tobytes()

    def test_by_model_rows_match_scalar(self):
        mz, y_rows = by_model_rows(self.masses)
        for i, row in enumerate(self.rows):
            ref_mz, ref_int = theoretical_spectrum(row)
            assert mz[i].tobytes() == ref_mz.tobytes()
            # the y series is the one with the y weight (1.0; b is 0.8)
            assert np.array_equal(y_rows[i], ref_int == 1.0)

    def test_padded_rows_match_scalar(self):
        """Rows of 1-9 residues padded to 9 with 0.0: each row's fragments
        are its scalar ones bit for bit, then ``+inf`` pads."""
        lengths = np.arange(len(self.rows)) % 9 + 1
        masses = np.where(np.arange(9) < lengths[:, None], self.masses, 0.0)
        ladders = by_ion_ladders(masses, lengths)
        model, y_rows = by_model_rows(masses, lengths)
        frags = {s: fragment_mz_rows(masses, s, lengths=lengths) for s in IonSeries}
        for i, (row, length) in enumerate(zip(self.rows, lengths)):
            row, width = row[:length], 2 * (length - 1)
            assert ladders[i, :width].tobytes() == by_ion_ladder(row).tobytes()
            assert np.all(ladders[i, width:] == np.inf)
            ref_mz, ref_int = theoretical_spectrum(row)
            assert model[i, :width].tobytes() == ref_mz.tobytes()
            assert np.array_equal(y_rows[i, :width], ref_int == 1.0)
            assert np.all(model[i, width:] == np.inf)
            for series, got in frags.items():
                assert got[i, : length - 1].tobytes() == fragment_mz(row, series).tobytes()
                assert np.all(got[i, length - 1 :] == np.inf)

    def test_short_rows_yield_empty_fragments(self):
        short = self.masses[:, :1]
        assert by_ion_ladders(short).shape == (25, 0)
        assert fragment_mz_rows(short, IonSeries.B).shape == (25, 0)

    def test_count_matches_rows_match_scalar(self):
        ladders = by_ion_ladders(self.masses)
        counts = count_matches_pairs(self.cohort, self.member, ladders, 0.5)
        for i in range(len(ladders)):
            assert counts[i] == count_matches(self.obs_mz, ladders[i], 0.5)

    def test_matched_intensity_rows_match_scalar(self):
        ladders = by_ion_ladders(self.masses)
        counts, sums = matched_intensity_pairs(self.cohort, self.member, ladders, 0.5)
        for i in range(len(ladders)):
            ref_n, ref_sum = matched_intensity(self.obs_mz, self.obs_int, ladders[i], 0.5)
            assert counts[i] == ref_n
            assert sums[i].tobytes() == np.float64(ref_sum).tobytes()

    def test_match_peaks_pairs_match_scalar(self):
        ladders = by_ion_ladders(self.masses)
        mask = match_peaks_pairs(self.cohort, self.member, ladders, 0.5)
        for i in range(len(ladders)):
            assert np.array_equal(mask[i], match_peaks(ladders[i], self.obs_mz, 0.5))

    def test_empty_observed_spectrum(self):
        ladders = by_ion_ladders(self.masses)
        empty = self._cohort(np.empty(0), np.empty(0))
        assert np.all(count_matches_pairs(empty, self.member, ladders, 0.5) == 0)
        counts, sums = matched_intensity_pairs(empty, self.member, ladders, 0.5)
        assert np.all(counts == 0) and np.all(sums == 0.0)

    def test_row_segment_sums_groups_by_length(self):
        values = np.array([0.5, 1.5, 2.5, 3.5])
        flat = np.array([0, 1, 2, 0, 3], dtype=np.int64)
        offsets = np.array([0, 3, 3, 5], dtype=np.int64)
        out = row_segment_sums(values, flat, offsets)
        assert out[0] == values[[0, 1, 2]].sum()
        assert out[1] == 0.0
        assert out[2] == values[[0, 3]].sum()


def _traced(make):
    """``(result, held, peak)``: the bytes ``make()`` left allocated and
    its high-water mark above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


class TestPeakLocatorMemory:
    """What a batch's peak locators cost.  A table has about
    ``BINS_PER_PEAK`` (16) int32 entries a peak of an average member,
    ``sqrt(2)`` more at most (the bin width is a power of two), plus two a
    member: ~64 and at most ~91 bytes a peak.  The shifted keys add 8."""

    BYTES_PER_PEAK = 100  # held, table and shifted keys, members of >= 20 peaks
    BUILD_BYTES_PER_PEAK = 32  # transient, above what is held: codes and their diff

    @pytest.fixture(scope="class")
    def batch(self):
        rng = np.random.default_rng(5)
        spectra = []
        for i in range(200):
            mz = np.unique(rng.uniform(100.0, 2000.0, rng.integers(20, 120)))
            spectra.append(Spectrum.from_peaks(mz, np.ones(len(mz)), 500.0, 1, i))
        batch = SpectrumBatch(spectra)
        batch.padded_mz()  # the matchers' own cache, not the locator's
        return batch

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_bytes_per_peak(self, batch, shift):
        fresh = SpectrumBatch(batch.spectra)
        fresh.padded_mz()
        locator, held, peak = _traced(lambda: fresh.locator(shift))
        peaks = batch.num_peaks
        assert locator.table.dtype == np.int32
        assert locator.table.nbytes <= 4 * (np.sqrt(2) * 16 * peaks + 2 * len(batch))
        assert held <= self.BYTES_PER_PEAK * peaks
        assert peak - held <= self.BUILD_BYTES_PER_PEAK * peaks

    def test_positions_past_int32_are_refused_before_any_allocation(self):
        padded = np.broadcast_to(np.inf, (2**31,))  # a view of one float
        with pytest.raises(ValueError, match="int32"):
            PeakLocator(padded, np.array([0, 2**31]), 0.0)

    def test_a_slice_copies_no_table(self, batch):
        batch.locator(0.0), batch.locator(0.5)
        part = batch.slice(10, 150)
        part.padded_mz()
        _, held, _ = _traced(lambda: (part.locator(0.0), part.locator(0.5)))
        assert held < 2048  # two locators of views, ~0.4 KB each

    def test_a_lookup_holds_no_more_than_a_binary_search(self, batch):
        """Per needle, the transients of the two matchers stay those of
        their ``searchsorted`` forms at this shape (25.2 and 34.6 bytes,
        measured): the lookup's bins, positions and keys replace the
        search's positions and the per-call ``mz + tol``."""
        batch.locator(0.0), batch.locator(0.5)
        rng = np.random.default_rng(6)
        member = np.sort(rng.integers(0, len(batch), 3000))
        rows = np.sort(rng.uniform(50.0, 2100.0, (3000, 24)), axis=1)
        _, _, peak = _traced(lambda: match_peaks_pairs(batch, member, rows, 0.5))
        assert peak <= 26 * rows.size
        _, _, peak = _traced(lambda: _fresh_intervals_pairs(batch, member, rows, 0.5))
        assert peak <= 36 * rows.size
