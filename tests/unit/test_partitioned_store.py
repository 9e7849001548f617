"""Unit tests for the partitioned store (``repro.store.partitioned``).

Format contract: save → open round-trips the partition directory
exactly, every partition decodes back to the builder's arrays, overflow
carries the full out-of-envelope span set mass-sorted, fingerprint
validation rejects a different database, and the streaming reader's
memory budget refuses — typed, up front — a budget that cannot hold
even one partition.
"""

import numpy as np
import pytest

from repro.errors import IndexStoreError
from repro.index import IndexBuilder
from repro.index.layout import PARTITION_ARRAY_NAMES, PARTITION_STORED_ARRAYS
from repro.store import open_any_index, save_index, save_partitioned_index
from repro.store.index_store import StoredIndex
from repro.store.partitioned import (
    OVERFLOW_NAME,
    PARTITIONED_SCHEMA,
    PartitionedIndex,
    StreamingIndexReader,
    enumerate_spans,
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
        assert reopened.overflow.to_dict() == pstore.overflow.to_dict()

    def test_partitions_cover_all_indexable_spans(self, tiny_db, pstore):
        indexable, overflow = enumerate_spans(
            tiny_db, int(pstore.build["max_length"])
        )
        assert pstore.num_partitions > 3  # tiny partitions => real streaming
        assert pstore.num_rows == len(indexable)
        assert pstore.overflow.count == len(overflow)

    def test_every_partition_decodes_to_its_manifest(self, pstore):
        total_rows = 0
        prev_hi = -np.inf
        for i, entry in enumerate(pstore.partitions):
            index = pstore.decode_partition(i)
            assert index.layout.num_rows == entry.num_rows
            assert index.layout.num_fragments == entry.num_fragments
            total_rows += entry.num_rows
            # mass-contiguous: ranges are non-decreasing across partitions
            assert entry.mass_lo >= prev_hi or np.isclose(
                entry.mass_lo, prev_hi
            )
            assert entry.mass_hi >= entry.mass_lo
            prev_hi = entry.mass_hi
        assert total_rows == pstore.num_rows

    def test_partitions_decode_to_the_builders_arrays(self, tiny_db, pstore):
        """The blob stores ``row`` + ``bin_start`` as one delta-coded key
        per posting list; decoding takes it apart into bitwise the arrays
        the builder made, and the key is not among them."""
        indexable, _overflow = enumerate_spans(tiny_db, int(pstore.build["max_length"]))
        builder = IndexBuilder(max_length=int(pstore.build["max_length"]))
        lo = 0
        for i, entry in enumerate(pstore.partitions):
            rows = np.arange(lo, lo + entry.num_rows)
            _layout, built = builder.build_partition(tiny_db, indexable.take(rows))
            decoded = pstore.decode_partition(i).arrays
            assert set(decoded) == set(built) == set(PARTITION_ARRAY_NAMES)
            for name in PARTITION_ARRAY_NAMES:
                assert decoded[name].dtype == built[name].dtype, name
                assert decoded[name].tobytes() == built[name].tobytes(), name
            lo += entry.num_rows
        assert [s.name for s in pstore.partitions[0].sections] == list(
            PARTITION_STORED_ARRAYS
        )

    def test_overflow_loads_mass_sorted(self, pstore):
        spans = pstore.load_overflow()
        assert len(spans) == pstore.overflow.count
        assert np.all(np.diff(spans.mass) >= 0)

    def test_overflow_is_read_once_per_handle(self, tiny_db, tiny_queries, pstore, monkeypatch):
        """The planner and every searcher over one handle share one
        decoded, read-only copy of the overflow spans."""
        from repro.core.config import SearchConfig
        from repro.core.streaming import StreamingSearcher

        store = open_partitioned_index(pstore.path)  # a handle nothing has used
        assert store.overflow.count > 0
        reads = []
        read_blob = PartitionedIndex._read_blob

        def counting(self, blob_path, *args):
            reads.append(blob_path.name)
            return read_blob(self, blob_path, *args)

        monkeypatch.setattr(PartitionedIndex, "_read_blob", counting)
        config = SearchConfig(tau=5, scorer="hyperscore")
        for _ in range(2):
            StreamingSearcher(store, config, database=tiny_db).run(tiny_queries, {})
        assert reads.count(OVERFLOW_NAME) == 1
        spans = store.load_overflow()
        assert spans is store.load_overflow()
        assert not any(
            col.flags.writeable
            for col in (spans.seq_index, spans.start, spans.stop, spans.mass, spans.mod_delta)
        )

    def test_database_buffers_round_trip(self, tiny_db, pstore):
        db = pstore.load_database()
        assert len(db) == len(tiny_db)
        for got, want in zip(db.to_buffers(), tiny_db.to_buffers()):
            np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

    def test_describe_reports_per_partition_stats(self, pstore):
        desc = pstore.describe()
        for key in (
            "path", "schema", "fingerprint", "build", "num_partitions",
            "num_rows", "blob_bytes", "decoded_bytes", "max_partition_bytes",
            "overflow_spans", "partitions",
        ):
            assert key in desc
        assert len(desc["partitions"]) == pstore.num_partitions
        first = desc["partitions"][0]
        for key in (
            "name", "mass_lo", "mass_hi", "num_rows", "postings",
            "blob_bytes", "decoded_bytes",
        ):
            assert key in first
        assert desc["build"]["partition_mb"] == pstore.build["partition_mb"]


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

    def test_out_of_range_partition_raises_typed(self, pstore):
        with pytest.raises(IndexStoreError, match="does not exist"):
            pstore.decode_partition(pstore.num_partitions)


class TestOpenAnyIndex:
    def test_dispatches_partitioned_schema(self, pstore):
        store = open_any_index(pstore.path)
        assert isinstance(store, PartitionedIndex)
        assert store.fingerprint == pstore.fingerprint

    def test_dispatches_resident_schema(self, tiny_db, tmp_path):
        resident = save_index(tiny_db, tmp_path / "ridx", num_shards=2)
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

    def test_serial_pass_stalls_for_exactly_its_reads(self, pstore):
        # every serial read is waited on, once: k partitions stall for the
        # sum of their k reads, not a running total re-added per visit
        assert pstore.num_partitions >= 3
        with StreamingIndexReader(pstore, prefetch=False) as reader:
            assert len(list(reader)) == pstore.num_partitions
        assert reader.stats.prefetch_stalls == pstore.num_partitions
        assert reader.stats.stall_seconds == pytest.approx(reader.stats.io_seconds)

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
        assert partition_boundaries(np.empty(0, dtype=np.int64), 1 << 20) == []

    def test_slices_are_contiguous_and_exhaustive(self):
        lengths = np.full(1000, 20, dtype=np.int64)
        slices = partition_boundaries(lengths, 64 << 10)
        assert slices[0][0] == 0
        assert slices[-1][1] == len(lengths)
        for (_, hi), (lo, _) in zip(slices[:-1], slices[1:]):
            assert hi == lo
        assert len(slices) > 1

    def test_tiny_budget_still_makes_progress(self):
        lengths = np.full(10, 48, dtype=np.int64)
        slices = partition_boundaries(lengths, 1)  # 1 byte: 1 row per slice
        assert slices == [(i, i + 1) for i in range(10)]
