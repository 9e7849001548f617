"""Unit tests for partitioned stores (``repro.store.partitioned``).

Format contract: a partitioned store is the one store format — header,
``database/``, the raw row table in ``index/`` — with a partition
directory instead of posting lists.  Save → open round-trips the
directory exactly; the partitions tile the row table, each read back as
exactly its row range of the database's whole mass-sorted span set (no
length envelope); fingerprint validation rejects a different database;
and the streaming reader's memory budget refuses — typed, up front — a
budget that cannot hold even one partition, reads without mapping a row
column, and stops its prefetch thread wherever its consumer stopped.
"""

import json
import threading
from dataclasses import asdict

import numpy as np
import pytest

from repro.candidates.mass_index import MassIndex
from repro.errors import IndexStoreError
from repro.index.layout import ROW_ARRAYS
from repro.store import (
    HEADER_NAME,
    STORE_SCHEMA,
    StoredIndex,
    open_any_index,
    open_index,
    save_index,
    save_partitioned_index,
)
from repro.store.partitioned import StreamingIndexReader, partition_boundaries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def pstore(tiny_db, tmp_path_factory):
    """tiny_db partitioned at ~64 KiB: small enough for many partitions."""
    path = tmp_path_factory.mktemp("pstore") / "pidx"
    return save_partitioned_index(tiny_db, path, partition_mb=1.0 / 16.0)


def _prefetch_threads():
    return [t for t in threading.enumerate() if t.name == "stream-prefetch" and t.is_alive()]


class TestRoundTrip:
    def test_save_then_open_preserves_directory(self, pstore):
        reopened = open_index(pstore.path)
        assert reopened.schema == STORE_SCHEMA
        assert reopened.partitioned and reopened.layout is None
        assert reopened.fingerprint == pstore.fingerprint
        assert reopened.num_partitions == pstore.num_partitions
        assert reopened.num_rows == pstore.num_rows
        assert reopened.row_bytes == pstore.row_bytes == 12 * pstore.num_rows
        assert reopened.partitions == pstore.partitions

    def test_directory_is_a_database_and_a_row_table(self, pstore):
        """The one store format without postings: ``header.json``,
        ``database/`` and ``index/`` holding the two row columns."""
        assert sorted(p.name for p in pstore.path.iterdir()) == [
            "database", HEADER_NAME, "index"
        ]
        assert sorted(p.name for p in (pstore.path / "index").iterdir()) == sorted(
            f"{name}.npy" for name in ROW_ARRAYS
        )

    def test_partitions_cover_all_indexable_spans(self, tiny_db, pstore):
        """The union of all partitions is every span of the database
        once: no envelope, lengths 1 and > 48 included."""
        assert pstore.num_partitions > 3  # tiny partitions => real streaming
        parts = [pstore.read_partition(i) for i in range(pstore.num_partitions)]
        table = MassIndex.view(
            *(np.concatenate([p[col] for p in parts]) for col in (0, 1)), tiny_db.offsets
        )
        spans = table.spans(np.arange(len(table)))
        rows = np.stack([spans.seq_index, spans.start, spans.stop], axis=1)
        want = MassIndex(tiny_db).candidates_in_window(0.0, np.inf)
        assert len(rows) == pstore.num_rows == len(want)
        assert len(np.unique(rows, axis=0)) == len(rows)  # each span once
        assert sorted(map(tuple, rows)) == sorted(
            zip(want.seq_index.tolist(), want.start.tolist(), want.stop.tolist())
        )
        lengths = rows[:, 2] - rows[:, 1]
        assert lengths.min() == 1 and lengths.max() > 48

    def test_every_partition_decodes_to_its_manifest(self, pstore):
        """The directory (the partitions' manifest) tiles the row table
        with mass-contiguous ranges, and a partition reads back as
        exactly its range: there is nothing to decode."""
        lo = 0
        prev_hi = -np.inf
        for i, entry in enumerate(pstore.partitions):
            mass, _key = pstore.read_partition(i)
            assert entry.lo == lo and entry.hi > entry.lo
            assert len(mass) == entry.num_rows
            assert entry.nbytes == 12 * entry.num_rows
            # mass-contiguous: ranges are non-decreasing across partitions
            assert entry.mass_lo >= prev_hi
            assert entry.mass_hi >= entry.mass_lo
            assert (mass[0], mass[-1]) == (entry.mass_lo, entry.mass_hi)
            prev_hi = entry.mass_hi
            lo = entry.hi
        assert lo == pstore.num_rows

    def test_partitions_decode_to_the_builders_arrays(self, tiny_db, pstore):
        """What the store builder wrote is what comes back: a partition
        is exactly its two row columns, read-only, bitwise the next
        slice of the database's row table."""
        table = MassIndex(tiny_db)
        lo = 0
        for i, entry in enumerate(pstore.partitions):
            got = pstore.read_partition(i)
            want = (table.mass[lo : entry.hi], table.key[lo : entry.hi])
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            lo += entry.num_rows
        assert lo == len(table)

    def test_database_buffers_round_trip(self, tiny_db, pstore):
        db = pstore.load_database()
        assert len(db) == len(tiny_db)
        for got, want in zip(db.to_buffers(), tiny_db.to_buffers()):
            np.testing.assert_array_equal(np.asarray(got), np.asarray(want))

    def test_database_section_is_the_resident_stores(self, tiny_db, pstore, tmp_path):
        """Both builders write the same ``database/`` section and the
        same row table, byte for byte, and describe them with the same
        manifests."""
        resident = save_index(tiny_db, tmp_path / "ridx")
        assert resident.database_arrays == pstore.database_arrays
        assert resident.rows == pstore.rows
        assert resident.schema == pstore.schema == STORE_SCHEMA
        for section, names in (("database", ("residues", "offsets", "ids")), ("index", ROW_ARRAYS)):
            for name in names:
                a = (pstore.path / section / f"{name}.npy").read_bytes()
                assert a == (resident.path / section / f"{name}.npy").read_bytes(), name

    def test_describe_reports_per_partition_stats(self, pstore):
        desc = pstore.describe()
        for key in (
            "path", "schema", "fingerprint", "build", "num_rows", "database_bytes",
            "index_bytes", "total_bytes", "max_partition_bytes", "partitions",
        ):
            assert key in desc
        assert "num_fragments" not in desc
        assert desc["index_bytes"] == pstore.row_bytes
        assert desc["partitions"] == [asdict(p) for p in pstore.partitions]
        assert desc["build"] == {"partition_mb": 1.0 / 16.0}


class TestValidation:
    def test_validate_against_own_database_passes(self, tiny_db, pstore):
        pstore.validate_against(tiny_db)

    def test_validate_against_other_database_raises_typed(self, pstore):
        other = generate_database(61, seed=11)
        with pytest.raises(IndexStoreError, match="different database.*--partition-mb"):
            pstore.validate_against(other)

    def test_existing_path_refused_without_overwrite(self, tiny_db, pstore):
        with pytest.raises(IndexStoreError, match="already exists"):
            save_partitioned_index(tiny_db, pstore.path, partition_mb=1.0)

    def test_nonpositive_partition_mb_refused(self, tiny_db, tmp_path):
        with pytest.raises(IndexStoreError, match="partition_mb"):
            save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=0.0)

    def test_schema_2_store_is_refused_with_the_rebuild_command(self, pstore, tmp_path):
        """A store of the old partitioned schema family is never
        half-read: typed refusal naming the command that rebuilds it."""
        import shutil

        path = tmp_path / "old"
        shutil.copytree(pstore.path, path)
        header = json.loads((path / HEADER_NAME).read_text())
        for old in ("repro.index_store_partitioned/2", "repro.index_store_partitioned/4"):
            header["schema"] = old
            (path / HEADER_NAME).write_text(json.dumps(header))
            for opener in (open_index, open_any_index):
                with pytest.raises(
                    IndexStoreError, match=r"partitioned/.*repro index build --partition-mb"
                ):
                    opener(path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda parts: parts.pop(1),  # a gap
            lambda parts: parts.pop(),  # the tail missing
            lambda parts: parts[0].update(hi=parts[0]["lo"]),  # an empty range
        ],
        ids=["gap", "short", "empty"],
    )
    def test_directory_that_does_not_tile_the_rows_is_refused(self, pstore, tmp_path, damage):
        import shutil

        path = tmp_path / "torn"
        shutil.copytree(pstore.path, path)
        header = json.loads((path / HEADER_NAME).read_text())
        damage(header["partitions"])
        (path / HEADER_NAME).write_text(json.dumps(header))
        with pytest.raises(IndexStoreError, match="does not tile"):
            open_index(path)

    def test_out_of_range_partition_raises_typed(self, pstore):
        with pytest.raises(IndexStoreError, match="does not exist"):
            pstore.read_partition(pstore.num_partitions)


class TestOpenAnyIndex:
    """One schema, one handle: ``open_any_index`` dispatches nothing and
    the handle says which builder wrote the store."""

    def test_dispatches_partitioned_schema(self, pstore):
        store = open_any_index(pstore.path)
        assert isinstance(store, StoredIndex) and store.partitioned
        assert store.fingerprint == pstore.fingerprint

    def test_dispatches_resident_schema(self, tiny_db, tmp_path):
        resident = save_index(tiny_db, tmp_path / "ridx")
        store = open_any_index(resident.path)
        assert isinstance(store, StoredIndex) and not store.partitioned
        assert store.partitions == []
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
        assert reader.stats.bytes_read == pstore.row_bytes
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

    @pytest.mark.parametrize("budget", [None, 1.5], ids=["no-budget", "one-partition-budget"])
    def test_close_after_an_early_exit_stops_the_prefetch_thread(
        self, pstore, budget, short_switch_interval
    ):
        """A consumer that leaves part-way, with partitions left to read,
        must not strand the prefetch thread on a permit, on the budget or
        on a read in flight."""
        assert pstore.num_partitions >= 5
        budget_mb = None if budget is None else pstore.max_partition_bytes / (1 << 20) * budget
        for leave_after in (0, 1, 3):
            reader = StreamingIndexReader(pstore, memory_budget_mb=budget_mb)
            for k, _part in enumerate(reader):
                if k == leave_after:
                    break
            done = threading.Thread(target=reader.close, daemon=True)
            done.start()
            done.join(timeout=60)
            assert not done.is_alive(), "close() hung on the prefetch thread"
            assert _prefetch_threads() == []

    def test_a_pass_never_maps_the_row_columns(self, pstore):
        """Partitions are read, not mapped: a touched mapped page would
        count in the pass's peak RSS whatever its memory budget."""
        maps = "/proc/self/maps"
        try:
            open(maps).close()
        except OSError:
            pytest.skip("no /proc/self/maps on this platform")
        row_files = [str(pstore.path / "index" / f"{name}.npy") for name in ROW_ARRAYS]
        seen = []
        with StreamingIndexReader(pstore) as reader:
            for part in reader:
                assert len(part.mass) == len(part.key) > 0
                with open(maps) as fh:
                    seen.append([line for line in fh if any(f in line for f in row_files)])
        assert len(seen) == pstore.num_partitions
        assert all(mapped == [] for mapped in seen)


class TestBoundaries:
    def test_empty_input_yields_no_partitions(self):
        assert partition_boundaries(0, 1 << 20) == []

    def test_slices_are_contiguous_and_exhaustive(self):
        slices = partition_boundaries(12000, 64 << 10)  # 5461 rows of 12 B
        assert slices == [(0, 5461), (5461, 10922), (10922, 12000)]

    def test_tiny_budget_still_makes_progress(self):
        slices = partition_boundaries(10, 1)  # 1 byte: 1 row per slice
        assert slices == [(i, i + 1) for i in range(10)]
