"""The row table and posting lists are built in the exact order a stable
argsort gives: every built array, and every store file and partition
written from them, is byte-identical to a reference built here with
``np.argsort(kind="stable")`` (timsort) — on a database whose duplicated
and repeated sequences make equal-mass rows and same-``(bin, row)``
posting ties, where an unstable order would show.  The posting build
sorts its fragments a run at a time; runs of 1, 7 and 64 fragments put
run edges inside bins and inside tied ``(bin, row)`` runs, and the
result is the reference all the same."""

import io

import numpy as np
import pytest

from repro.candidates.mass_index import MassIndex, _unsorted_rows
from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.index import IndexBuilder
from repro.index import fragment_index
from repro.index.layout import ARRAY_NAMES, POSTING_ROW_DTYPE, ROW_ARRAYS
from repro.spectra.theoretical import IonSeries, fragment_mz_rows
from repro.store import save_index, save_partitioned_index
from repro.store.index_store import rows_digest
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def db():
    base = generate_database(30, seed=5)
    sequences = [base.sequence_str(i) for i in range(len(base))]
    # every protein of the first ten twice, and repetitive sequences:
    # their equal prefixes and suffixes tie in mass
    repeats = ["G" * 12, "AAAAAAAAAK", "PEPPEPPEPPEP"]
    return ProteinDatabase.from_sequences(sequences + sequences[:10] + repeats)


def reference_arrays(db, builder):
    """The timsort build: one stable mass argsort of the unsorted rows, then
    per length group the b and the y fragment matrices, and one stable
    argsort of ``bin * (num_rows + 1) + row`` over the posting list, every
    column gathered and the rows cast to the posting dtype."""
    mass, key = _unsorted_rows(db)
    order = np.argsort(mass, kind="stable")
    arrays = dict(zip(ROW_ARRAYS, (mass[order], key[order])))
    num_rows = len(order)
    spans = MassIndex.view(arrays["row_mass"], arrays["row_key"], db.offsets).spans(
        np.arange(num_rows)
    )
    held = np.flatnonzero((spans.lengths >= 2) & (spans.lengths <= builder.max_length))
    residue_mass = mass_table(builder.monoisotopic)
    parts = []
    for length in np.unique(spans.lengths[held]).tolist():
        rows = held[spans.lengths[held] == length]
        first = db.offsets[spans.seq_index[rows]] + spans.start[rows]
        mass_rows = residue_mass[db.residues[first[:, None] + np.arange(length)]]
        for code, series in enumerate((IonSeries.B, IonSeries.Y)):
            parts.append((fragment_mz_rows(mass_rows, series), rows, code))
    mz = np.concatenate([m.ravel() for m, _r, _c in parts])
    row = np.concatenate([np.repeat(r, m.shape[1]) for m, r, _c in parts])
    tag = np.concatenate([np.full(m.size, c, dtype=np.uint8) for m, _r, c in parts])
    bins = (mz / builder.bin_width).astype(np.int64)
    order = np.argsort(bins * (num_rows + 1) + row, kind="stable")
    arrays["series_mz"] = mz[order]
    arrays["series_row"] = row[order].astype(POSTING_ROW_DTYPE)
    arrays["series_tag"] = tag[order]
    arrays["series_bin_start"] = np.searchsorted(bins[order], np.arange(bins.max() + 2))
    return arrays


@pytest.fixture(scope="module")
def reference(db):
    return reference_arrays(db, IndexBuilder())


def assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


class TestTheDatabaseHasTies:
    def test_equal_mass_rows(self, reference):
        mass, key = reference["row_mass"], reference["row_key"]
        tied = mass[1:] == mass[:-1]
        assert tied.sum() > 100 and (key[1:] != key[:-1])[tied].all()

    def test_same_bin_and_row_postings(self, reference):
        bin_start = reference["series_bin_start"]
        bins = np.repeat(np.arange(len(bin_start) - 1), np.diff(bin_start))
        row, mz = reference["series_row"], reference["series_mz"]
        tied = (bins[1:] == bins[:-1]) & (row[1:] == row[:-1])
        assert (mz[1:] != mz[:-1])[tied].any()
        # a b and a y fragment of one row share a bin
        tag = reference["series_tag"]
        assert (tag[1:] != tag[:-1])[tied].any()


class TestBuildsEqualTheTimsortReference:
    def test_mass_index_columns(self, db, reference):
        table = MassIndex(db)
        assert_identical(table.mass, reference["row_mass"])
        assert_identical(table.key, reference["row_key"])

    def test_every_built_array(self, db, reference):
        arrays = IndexBuilder().build(db).arrays
        assert sorted(arrays) == sorted(ARRAY_NAMES)
        for name in ARRAY_NAMES:
            assert_identical(arrays[name], reference[name])

    def test_wide_bins(self, db):
        # a 4-Da bin holds many fragments of one row: the ties are the rule
        builder = IndexBuilder(fragment_tolerance=2.0)
        arrays, want = builder.build(db).arrays, reference_arrays(db, builder)
        for name in ARRAY_NAMES:
            assert_identical(arrays[name], want[name])


class TestStoresEqualTheTimsortReference:
    def test_resident_store_files(self, db, reference, tmp_path):
        save_index(db, tmp_path / "resident")
        for name in ARRAY_NAMES:
            written = (tmp_path / "resident" / "index" / f"{name}.npy").read_bytes()
            assert written == npy_bytes(reference[name]), name

    def test_partitioned_store_partitions(self, db, reference, tmp_path):
        store = save_partitioned_index(db, tmp_path / "parts", partition_mb=0.04)
        assert store.num_partitions >= 3
        for name in ROW_ARRAYS:
            written = (tmp_path / "parts" / "index" / f"{name}.npy").read_bytes()
            assert written == npy_bytes(reference[name]), name
        columns = [reference[name] for name in ROW_ARRAYS]
        for i, entry in enumerate(store.partitions):
            lo, hi = entry.lo, entry.hi
            assert entry.sha256 == rows_digest(col[lo:hi] for col in columns)
            for got, want in zip(store.read_partition(i), columns):
                assert_identical(got, want[lo:hi])


@pytest.fixture(scope="module")
def small_db():
    """Few enough fragments to build a run of one fragment at a time:
    one protein twice and two repetitive sequences."""
    base = generate_database(2, seed=5)
    return ProteinDatabase.from_sequences(
        [base.sequence_str(0)[:30]] * 2 + ["G" * 12, "PEPPEPPEPPEP"]
    )


class TestRunEdgesKeepTheOrder:
    @pytest.fixture(scope="class")
    def small_reference(self, small_db):
        return reference_arrays(small_db, IndexBuilder())

    def test_the_small_database_has_ties(self, small_reference):
        bin_start = small_reference["series_bin_start"]
        bins = np.repeat(np.arange(len(bin_start) - 1), np.diff(bin_start))
        row = small_reference["series_row"]
        same_bin = bins[1:] == bins[:-1]
        assert (row[1:] != row[:-1])[same_bin].any()  # a bin of several rows
        assert (row[1:] == row[:-1])[same_bin].any()  # and (bin, row) ties

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_every_built_array(self, small_db, small_reference, chunk, monkeypatch):
        monkeypatch.setattr(fragment_index, "BUILD_CHUNK_FRAGMENTS", chunk)
        arrays = IndexBuilder().build(small_db).arrays
        for name in ARRAY_NAMES:
            assert_identical(arrays[name], small_reference[name])

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_resident_store_files(self, small_db, small_reference, chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(fragment_index, "BUILD_CHUNK_FRAGMENTS", chunk)
        save_index(small_db, tmp_path / "resident")
        for name in ARRAY_NAMES:
            written = (tmp_path / "resident" / "index" / f"{name}.npy").read_bytes()
            assert written == npy_bytes(small_reference[name]), name
