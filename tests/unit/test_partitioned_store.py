"""Unit tests for the partitioned store (``repro.store.partitioned``).

Format contract: save → open round-trips the partition directory
exactly, every partition decodes to its four row columns — a slice of
the database's whole mass-sorted span set, no length envelope —
fingerprint validation rejects a different database, and the streaming
reader's memory budget refuses — typed, up front — a budget that cannot
hold even one partition.
"""

import json

import numpy as np
import pytest

from repro.candidates.mass_index import MassIndex
from repro.errors import IndexStoreError
from repro.index.layout import ROW_ARRAYS, ArraySpec
from repro.store import HEADER_NAME, open_any_index, save_index, save_partitioned_index
from repro.store.index_store import StoredIndex
from repro.store.partitioned import (
    PARTITIONED_SCHEMA,
    PartitionedIndex,
    StreamingIndexReader,
    open_partitioned_index,
    partition_boundaries,
)
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def pstore(tiny_db, tmp_path_factory):
    """tiny_db partitioned at ~64 KiB: small enough for many partitions."""
    path = tmp_path_factory.mktemp("pstore") / "pidx"
    return save_partitioned_index(tiny_db, path, partition_mb=1.0 / 16.0)


class TestRoundTrip:
    def test_save_then_open_preserves_directory(self, pstore):
        reopened = open_partitioned_index(pstore.path)
        assert reopened.schema == PARTITIONED_SCHEMA
        assert reopened.fingerprint == pstore.fingerprint
        assert reopened.num_partitions == pstore.num_partitions
        assert reopened.num_rows == pstore.num_rows
        assert reopened.blob_bytes == pstore.blob_bytes
        assert reopened.decoded_bytes == pstore.decoded_bytes
        assert [p.to_dict() for p in reopened.partitions] == [
            p.to_dict() for p in pstore.partitions
        ]

    def test_partitions_cover_all_indexable_spans(self, tiny_db, pstore):
        """The union of all partitions is every span of the database
        once: no envelope, lengths 1 and > 48 included."""
        assert pstore.num_partitions > 3  # tiny partitions => real streaming
        parts = [pstore.decode_partition(i) for i in range(pstore.num_partitions)]
        rows = np.stack(
            [
                np.concatenate([getattr(p, col) for p in parts])
                for col in ("seq_index", "start", "stop")
            ],
            axis=1,
        )
        want = MassIndex(tiny_db).candidates_in_window(0.0, np.inf)
        assert len(rows) == pstore.num_rows == len(want)
        assert len(np.unique(rows, axis=0)) == len(rows)  # each span once
        assert sorted(map(tuple, rows)) == sorted(
            zip(want.seq_index.tolist(), want.start.tolist(), want.stop.tolist())
        )
        lengths = rows[:, 2] - rows[:, 1]
        assert lengths.min() == 1 and lengths.max() > 48

    def test_every_partition_decodes_to_its_manifest(self, pstore):
        total_rows = 0
        prev_hi = -np.inf
        for i, entry in enumerate(pstore.partitions):
            spans = pstore.decode_partition(i)
            assert len(spans) == entry.num_rows
            assert entry.decoded_bytes == 32 * entry.num_rows
            assert [s.name for s in entry.sections] == list(ROW_ARRAYS)
            total_rows += entry.num_rows
            # mass-contiguous: ranges are non-decreasing across partitions
            assert entry.mass_lo >= prev_hi
            assert entry.mass_hi >= entry.mass_lo
            assert (spans.mass[0], spans.mass[-1]) == (entry.mass_lo, entry.mass_hi)
            prev_hi = entry.mass_hi
        assert total_rows == pstore.num_rows

    def test_partitions_decode_to_the_builders_arrays(self, tiny_db, pstore):
        """What the store builder wrote is what comes back: a partition
        decodes to exactly its four row columns, read-only, bitwise the
        next slice of the stably mass-sorted span set."""
        spans = MassIndex(tiny_db).candidates_in_window(0.0, np.inf)
        spans = spans.take(np.argsort(spans.mass, kind="stable"))
        lo = 0
        for i, entry in enumerate(pstore.partitions):
            assert entry.arrays == {
                name: ArraySpec(dtype, (entry.num_rows,))
                for name, dtype in ROW_ARRAYS.items()
            }
            got = pstore.decode_partition(i)
            want = spans.take(np.arange(lo, lo + entry.num_rows))
            for col in ("seq_index", "start", "stop", "mass", "mod_delta"):
                a, b = getattr(got, col), getattr(want, col)
                assert a.dtype == b.dtype, col
                assert a.tobytes() == b.tobytes(), col
                assert not a.flags.writeable, col
            lo += entry.num_rows
        assert lo == len(spans)

    def test_database_buffers_round_trip(self, tiny_db, pstore):
        db = pstore.load_database()
        assert len(db) == len(tiny_db)
        for got, want in zip(db.to_buffers(), tiny_db.to_buffers()):
            np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

    def test_database_section_is_the_resident_stores(self, tiny_db, pstore, tmp_path):
        """Both formats write the same ``database/`` section, byte for
        byte, and describe it with the same manifest."""
        resident = save_index(tiny_db, tmp_path / "ridx")
        assert resident.database_arrays == pstore.database_arrays
        for name in ("residues", "offsets", "ids"):
            a = (pstore.path / "database" / f"{name}.npy").read_bytes()
            assert a == (resident.path / "database" / f"{name}.npy").read_bytes(), name

    def test_describe_reports_per_partition_stats(self, pstore):
        desc = pstore.describe()
        for key in (
            "path", "schema", "fingerprint", "build", "num_partitions",
            "num_rows", "blob_bytes", "decoded_bytes", "max_partition_bytes",
            "partitions",
        ):
            assert key in desc
        assert len(desc["partitions"]) == pstore.num_partitions
        first = desc["partitions"][0]
        for key in (
            "name", "mass_lo", "mass_hi", "num_rows",
            "blob_bytes", "decoded_bytes",
        ):
            assert key in first
        assert desc["build"] == {"partition_mb": 1.0 / 16.0}


class TestValidation:
    def test_validate_against_own_database_passes(self, tiny_db, pstore):
        pstore.validate_against(tiny_db)

    def test_validate_against_other_database_raises_typed(self, pstore):
        other = generate_database(61, seed=11)
        with pytest.raises(IndexStoreError, match="different database"):
            pstore.validate_against(other)

    def test_existing_path_refused_without_overwrite(self, tiny_db, pstore):
        with pytest.raises(IndexStoreError, match="already exists"):
            save_partitioned_index(tiny_db, pstore.path, partition_mb=1.0)

    def test_nonpositive_partition_mb_refused(self, tiny_db, tmp_path):
        with pytest.raises(IndexStoreError, match="partition_mb"):
            save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=0.0)

    def test_schema_2_store_is_refused_with_the_rebuild_command(self, pstore, tmp_path):
        """A store built before the posting lists left (`/2`) is never
        half-read: typed refusal naming the command that rebuilds it."""
        import shutil

        path = tmp_path / "old"
        shutil.copytree(pstore.path, path)
        header = json.loads((path / HEADER_NAME).read_text())
        header["schema"] = "repro.index_store_partitioned/2"
        (path / HEADER_NAME).write_text(json.dumps(header))
        for opener in (open_partitioned_index, open_any_index):
            with pytest.raises(
                IndexStoreError, match=r"partitioned/2.*repro index build --partition-mb"
            ):
                opener(path)

    def test_out_of_range_partition_raises_typed(self, pstore):
        with pytest.raises(IndexStoreError, match="does not exist"):
            pstore.decode_partition(pstore.num_partitions)


class TestOpenAnyIndex:
    def test_dispatches_partitioned_schema(self, pstore):
        store = open_any_index(pstore.path)
        assert isinstance(store, PartitionedIndex)
        assert store.fingerprint == pstore.fingerprint

    def test_dispatches_resident_schema(self, tiny_db, tmp_path):
        resident = save_index(tiny_db, tmp_path / "ridx")
        store = open_any_index(resident.path)
        assert isinstance(store, StoredIndex)
        assert store.fingerprint == resident.fingerprint

    def test_missing_path_raises_typed(self, tmp_path):
        with pytest.raises(IndexStoreError, match="no index store"):
            open_any_index(tmp_path / "nope")


class TestStreamingReader:
    def test_prefetch_pass_visits_every_partition_in_order(self, pstore):
        with StreamingIndexReader(pstore) as reader:
            pids = [part.pid for part in reader]
        assert pids == list(range(pstore.num_partitions))
        assert reader.stats.partitions == pstore.num_partitions
        assert reader.stats.bytes_decoded == pstore.decoded_bytes
        assert reader.stats.bytes_read == sum(
            p.blob_bytes for p in pstore.partitions
        )
        assert (
            reader.stats.prefetch_hits + reader.stats.prefetch_stalls
            == pstore.num_partitions + 1  # +1 for the end-of-stream marker
        )

    def test_partition_range_streams_a_slice(self, pstore):
        ids = list(range(1, min(4, pstore.num_partitions)))
        with StreamingIndexReader(pstore, partition_ids=ids) as reader:
            assert [part.pid for part in reader] == ids

    def test_budget_below_one_partition_refused_up_front(self, pstore):
        too_small = (pstore.max_partition_bytes / (1 << 20)) * 0.5
        with pytest.raises(IndexStoreError, match="memory budget"):
            StreamingIndexReader(pstore, memory_budget_mb=too_small)

    def test_budget_of_one_partition_degrades_to_serial_reads(self, pstore):
        # enough for one partition but not two: every visit must stall,
        # and the pass still completes with the full partition set
        budget_mb = pstore.max_partition_bytes / (1 << 20) * 1.5
        with StreamingIndexReader(pstore, memory_budget_mb=budget_mb) as reader:
            pids = [part.pid for part in reader]
        assert pids == list(range(pstore.num_partitions))


class TestBoundaries:
    def test_empty_input_yields_no_partitions(self):
        assert partition_boundaries(0, 1 << 20) == []

    def test_slices_are_contiguous_and_exhaustive(self):
        slices = partition_boundaries(5000, 64 << 10)  # 2048 rows of 32 B
        assert slices == [(0, 2048), (2048, 4096), (4096, 5000)]

    def test_tiny_budget_still_makes_progress(self):
        slices = partition_boundaries(10, 1)  # 1 byte: 1 row per slice
        assert slices == [(i, i + 1) for i in range(10)]
