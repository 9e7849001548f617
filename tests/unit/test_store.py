"""Unit tests for ``repro.store``: the persistent store format.

Round-trip (save → open → load, heap and mmap), the fingerprint
contract, schema-version rejection, truncated/missing/swapped-buffer
detection, read-only enforcement, and overwrite and concurrent-save
semantics.  A store
must either serve arrays bitwise identical to a fresh build or refuse
with a typed :class:`~repro.errors.IndexStoreError` — never silently
serve wrong postings.
"""

import json
import threading

import numpy as np
import pytest

from repro.candidates.mass_index import MassIndex
from repro.errors import IndexStoreError, ReproError
from repro.index import FragmentIndex, IndexBuilder, IndexLayout
from repro.index.layout import ARRAY_NAMES, ROW_ARRAYS, ArraySpec
from repro.store import (
    HEADER_NAME,
    STORE_SCHEMA,
    compute_fingerprint,
    open_any_index,
    open_index,
    save_index,
    save_partitioned_index,
)
from repro.store.index_store import DATABASE_ARRAYS

#: a posting list and a row column of the index, and a database buffer:
#: the targets of every damage case below
DAMAGE_TARGETS = (("index", "series_mz"), ("index", "row_mass"), ("database", "offsets"))


@pytest.fixture()
def store_path(tiny_db, tmp_path):
    return save_index(tiny_db, tmp_path / "idx").path


def _each_damaged(store_path, damage):
    """Apply ``damage(path)`` to each of :data:`DAMAGE_TARGETS` in turn,
    restoring each afterwards; yields after each damage."""
    for section, name in DAMAGE_TARGETS:
        buf = store_path / section / f"{name}.npy"
        original = buf.read_bytes()
        damage(buf)
        yield section, name
        buf.write_bytes(original)


class TestRoundTrip:
    def test_save_open_preserves_header(self, tiny_db, store_path):
        store = open_index(store_path)
        assert store.schema == STORE_SCHEMA
        assert store.build == {
            "fragment_tolerance": 0.5, "max_length": 48, "monoisotopic": True
        }
        assert store.nbytes == store.database_bytes + store.layout.nbytes
        assert store.layout.nbytes > store.database_bytes > 0
        store.validate_against(tiny_db)  # no raise

    def test_directory_is_a_database_and_an_index_section(self, store_path):
        """``header.json`` + ``database/`` (the partitioned store's section)
        + ``index/``: one ``.npy`` per database buffer and per layout array."""
        assert sorted(p.name for p in store_path.iterdir()) == [
            "database", HEADER_NAME, "index"
        ]
        assert sorted(p.name for p in (store_path / "database").iterdir()) == sorted(
            f"{name}.npy" for name in DATABASE_ARRAYS
        )
        assert sorted(p.name for p in (store_path / "index").iterdir()) == sorted(
            f"{name}.npy" for name in ARRAY_NAMES
        )

    @pytest.mark.parametrize("mmap", [True, False])
    def test_loaded_arrays_bitwise_equal_fresh_build(self, tiny_db, store_path, mmap):
        loaded = open_index(store_path).load_shard(mmap=mmap)
        rebuilt = IndexBuilder().build(tiny_db)
        assert set(loaded.index.arrays) == set(rebuilt.arrays) == set(ARRAY_NAMES)
        for name in ARRAY_NAMES:
            got = np.asarray(loaded.index.arrays[name])
            want = np.asarray(rebuilt.arrays[name])
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("mmap", [True, False])
    def test_loaded_arrays_are_read_only(self, store_path, mmap):
        loaded = open_index(store_path).load_shard(mmap=mmap)
        for name in ARRAY_NAMES:
            arr = np.asarray(loaded.index.arrays[name])
            assert not arr.flags.writeable, name
        for arr in loaded.database.to_buffers():
            assert not np.asarray(arr).flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            loaded.index.arrays["series_mz"][...] = 0.0

    def test_loaded_shard_reconstructs_database(self, tiny_db, store_path):
        loaded = open_index(store_path).load_shard()
        for got, want in zip(loaded.database.to_buffers(), tiny_db.to_buffers()):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # the mapped rows are the loaded database's own row table
        table = MassIndex(loaded.database)
        rows = loaded.index.rows
        for got, want in zip((rows.mass, rows.key), (table.mass, table.key)):
            assert np.asarray(got).tobytes() == want.tobytes()

    def test_resident_rows_are_the_partitioned_rows(self, tiny_db, store_path, tmp_path):
        """One row set: a resident store's two row columns are the
        concatenation of a partitioned store's partitions, bit for bit,
        so a row id means the same span whichever builder wrote it."""
        loaded = open_index(store_path).load_shard()
        partitioned = save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=0.25)
        assert partitioned.num_partitions > 1
        parts = [partitioned.read_partition(i) for i in range(partitioned.num_partitions)]
        for column, name in enumerate(ROW_ARRAYS):
            joined = np.concatenate([part[column] for part in parts])
            assert str(joined.dtype) == ROW_ARRAYS[name]
            assert np.asarray(loaded.index.arrays[name]).tobytes() == joined.tobytes(), name

    def test_load_accounting(self, store_path):
        store = open_index(store_path)
        loaded = store.load_shard()
        assert loaded.seconds > 0.0
        assert loaded.nbytes == store.nbytes

    def test_describe_matches_manifest(self, store_path):
        store = open_index(store_path)
        info = store.describe()
        assert info["schema"] == STORE_SCHEMA
        assert info["total_bytes"] == store.nbytes
        assert info["database_bytes"] == store.database_bytes
        assert info["index_bytes"] == store.layout.nbytes
        assert info["num_rows"] == store.layout.num_rows > 0
        assert info["num_fragments"] == store.layout.num_fragments > 0


class TestConcurrentOpen:
    """``np.load`` parses a ``.npy`` header with ``ast.literal_eval``, and
    CPython 3.11's AST recursion counter is not thread-safe: two service
    workers opening a store at once died with ``SystemError: AST
    constructor recursion depth mismatch``.  Every ``np.load`` of a store
    runs under ``NPY_LOAD_LOCK``."""

    def test_every_load_holds_the_lock(
        self, tiny_db, store_path, tmp_path, monkeypatch, short_switch_interval
    ):
        from repro.store.index_store import NPY_LOAD_LOCK

        partitioned = save_partitioned_index(tiny_db, tmp_path / "parts", partition_mb=0.25)
        want = open_index(store_path).load_shard()
        want_db = partitioned.load_database()
        loads, np_load = [], np.load

        def guarded_load(*args, **kwargs):
            assert NPY_LOAD_LOCK.locked(), "np.load outside the store's lock"
            loads.append(args[0])
            return np_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", guarded_load)
        errors = []

        def open_many(t):
            try:
                store = open_index(store_path)
                for k in range(50):
                    loaded = store.load_shard()
                    assert np.array_equal(loaded.database.residues, want.database.residues)
                    for name in ARRAY_NAMES:
                        assert np.array_equal(loaded.index.arrays[name], want.index.arrays[name])
                    if k % 10 == 0:
                        db = open_index(partitioned.path).load_database()
                        assert np.array_equal(db.residues, want_db.residues)
                        assert np.array_equal(db.offsets, want_db.offsets)
            except BaseException as exc:  # surfaced below, in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=open_many, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        per_load = len(DATABASE_ARRAYS) + len(ARRAY_NAMES)
        assert len(loads) == 4 * (50 * per_load + 5 * len(DATABASE_ARRAYS))
        assert not NPY_LOAD_LOCK.locked()


class TestFingerprint:
    def test_mismatched_database_rejected(self, small_db, store_path):
        store = open_index(store_path)
        with pytest.raises(IndexStoreError, match="different database"):
            store.validate_against(small_db)

    def test_fingerprint_depends_on_build_config(self, tiny_db, store_path):
        base = open_index(store_path).build
        other = dict(base, max_length=32)
        assert compute_fingerprint(tiny_db, base) != compute_fingerprint(tiny_db, other)


class TestRejection:
    def _edit_header(self, path, mutate):
        header_path = path / HEADER_NAME
        header = json.loads(header_path.read_text())
        mutate(header)
        header_path.write_text(json.dumps(header))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IndexStoreError, match="no index store"):
            open_index(tmp_path / "nothing")

    def test_unreadable_header(self, store_path):
        (store_path / HEADER_NAME).write_text("{not json")
        with pytest.raises(IndexStoreError, match="unreadable"):
            open_index(store_path)

    def test_unknown_store_schema_version(self, store_path):
        self._edit_header(store_path, lambda h: h.update(schema="repro.index_store/999"))
        with pytest.raises(IndexStoreError, match="unsupported index store schema"):
            open_index(store_path)

    def test_unrecognized_store_schema(self, store_path):
        self._edit_header(store_path, lambda h: h.update(schema="something/else"))
        with pytest.raises(IndexStoreError, match="unrecognized index store schema"):
            open_index(store_path)

    def test_missing_layout_array(self, store_path):
        self._edit_header(store_path, lambda h: h["index"]["arrays"].pop("series_mz"))
        with pytest.raises(IndexStoreError, match="missing arrays"):
            open_index(store_path)

    def test_truncated_buffer(self, store_path):
        def truncate(buf):
            data = buf.read_bytes()
            buf.write_bytes(data[: max(len(data) // 2, 64)])

        for _ in _each_damaged(store_path, truncate):
            with pytest.raises(IndexStoreError, match="unreadable or truncated"):
                open_index(store_path).load_shard()

    def test_missing_buffer(self, store_path):
        for section, name in _each_damaged(store_path, lambda buf: buf.unlink()):
            with pytest.raises(IndexStoreError, match=f"missing {section} buffer"):
                open_index(store_path).load_shard()
        open_index(store_path).load_shard()  # restored: loads again

    def test_manifest_shape_mismatch(self, store_path):
        for section, name in DAMAGE_TARGETS:

            def grow(header):
                arrays = header["index"]["arrays"] if section == "index" else header["database"]
                arrays[name]["shape"] = [arrays[name]["shape"][0] + 1]

            self._edit_header(store_path, grow)
            with pytest.raises(IndexStoreError, match="does not match its manifest"):
                open_index(store_path).load_shard()

    @pytest.mark.parametrize(
        "old",
        [
            "repro.index_store/1",
            "repro.index_store/2",
            "repro.index_store/3",
            "repro.index_store/4",
            "repro.index_store/5",
            "repro.index_store/6",
            "repro.index_store/7",
            "repro.index_store_partitioned/1",
            "repro.index_store_partitioned/2",
            "repro.index_store_partitioned/3",
            "repro.index_store_partitioned/4",
        ],
    )
    def test_previous_schema_is_refused_with_the_rebuild_command(
        self, tiny_db, tmp_path, old
    ):
        """A store of an earlier schema (matrix cache, key columns, one
        directory per shard, per-residue row maps, four-column rows,
        int64 posting rows, a ladder list beside the series list; the
        partitioned store's
        posting lists and overflow blob, a schema-salted fingerprint, its
        compressed partition blobs) is never read: every way of opening
        it names the command that rebuilds it."""
        if "partition" in old:
            path = save_partitioned_index(tiny_db, tmp_path / "p", partition_mb=0.5).path
        else:
            path = save_index(tiny_db, tmp_path / "r").path
        self._edit_header(path, lambda h: h.update(schema=old))
        for opener in (open_index, open_any_index):
            with pytest.raises(IndexStoreError, match="repro index build"):
                opener(path)

    def test_errors_are_repro_errors(self):
        assert issubclass(IndexStoreError, ReproError)
        assert issubclass(IndexStoreError, ValueError)


class TestOverwrite:
    def test_refuses_existing_path(self, tiny_db, store_path):
        with pytest.raises(IndexStoreError, match="already exists"):
            save_index(tiny_db, store_path)

    def test_overwrite_replaces(self, tiny_db, store_path):
        store = save_index(tiny_db, store_path, max_length=32, overwrite=True)
        assert store.build["max_length"] == 32
        assert open_index(store_path).layout.max_length == 32

    @pytest.mark.parametrize("partitioned", [False, True], ids=["postings", "partitions"])
    def test_two_threads_saving_one_path_give_one_store_and_one_typed_error(
        self, tiny_db, tmp_path, partitioned
    ):
        """Each save writes under a temporary directory of its own; the
        one that publishes second finds the path taken and fails typed,
        leaving the first one's store intact."""
        target = tmp_path / "idx"
        barrier = threading.Barrier(2)
        outcomes = []

        def save():
            barrier.wait()
            try:
                if partitioned:
                    outcomes.append(save_partitioned_index(tiny_db, target, partition_mb=0.25))
                else:
                    outcomes.append(save_index(tiny_db, target))
            except BaseException as exc:  # collected for the main thread
                outcomes.append(exc)

        threads = [threading.Thread(target=save) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        stores = [o for o in outcomes if not isinstance(o, BaseException)]
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert len(stores) == 1 and len(errors) == 1, outcomes
        assert isinstance(errors[0], IndexStoreError)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]  # no debris
        store = open_index(target)
        assert store.fingerprint == stores[0].fingerprint
        store.validate_against(tiny_db)

    def test_path_created_mid_write_survives_a_save_without_overwrite(
        self, tiny_db, tmp_path, monkeypatch
    ):
        """Whatever appears at the path while a save is writing is not
        the save's to replace: it stays, and the save fails typed."""
        import repro.store.index_store as index_store

        target = tmp_path / "idx"
        build = index_store.MassIndex

        def squatted(db):
            target.mkdir()
            (target / "keep.txt").write_text("someone else's")
            return build(db)

        monkeypatch.setattr(index_store, "MassIndex", squatted)
        with pytest.raises(IndexStoreError, match="another writer"):
            save_index(tiny_db, target)
        assert [p.name for p in target.iterdir()] == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["idx"]


class TestLayout:
    def test_layout_round_trips_through_json(self, tiny_db):
        built = IndexBuilder().build(tiny_db)
        back = IndexLayout.from_dict(json.loads(json.dumps(built.layout.to_dict())))
        assert back == built.layout
        assert back.check_arrays(built.arrays) == []
        # the index alone: the database it indexes is not in the layout
        assert set(built.arrays) == set(ARRAY_NAMES)
        assert back.nbytes == sum(a.nbytes for a in built.arrays.values())

    def test_check_arrays_reports_mismatches(self, tiny_db):
        built = IndexBuilder().build(tiny_db)
        arrays = dict(built.arrays)
        arrays["series_row"] = arrays["series_row"].astype(np.int64)
        problems = built.layout.check_arrays(arrays)
        assert any("series_row" in p and "dtype" in p for p in problems)

    def test_malformed_array_spec_rejected(self):
        with pytest.raises(IndexStoreError, match="malformed array spec"):
            ArraySpec.from_dict({"dtype": 7, "shape": [1]}, "x")

    def test_view_from_arrays_scores_like_builder_view(self, tiny_db):
        built = IndexBuilder().build(tiny_db)
        direct = built.view()
        rewired = FragmentIndex(built.layout, built.arrays, built.offsets)
        assert rewired.num_rows == direct.num_rows == len(rewired.rows)
        assert rewired.arrays is direct.arrays
        assert rewired.rows.mass is direct.rows.mass is built.arrays["row_mass"]


class TestTornWrites:
    """Torn/interrupted writes must surface as typed IndexStoreError.

    A crash mid-save can leave a buffer cut anywhere: inside the .npy
    magic/header, mid-payload, or at zero bytes.  numpy reports these
    differently (ValueError vs EOFError, heap vs mmap) — the store must
    normalize every shape to IndexStoreError, for both load modes.
    """

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("keep", [0, 4, 40, -64])
    def test_truncated_buffer_is_typed_error(self, store_path, mmap, keep):
        def cut(buf):  # negative keep: cut the tail off
            buf.write_bytes(buf.read_bytes()[:keep])

        for _ in _each_damaged(store_path, cut):
            with pytest.raises(IndexStoreError, match="unreadable or truncated"):
                open_index(store_path).load_shard(mmap=mmap)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_garbage_buffer_is_typed_error(self, store_path, mmap):
        def garbage(buf):  # right size class, wrong magic
            buf.write_bytes(b"\x00" * 256)

        for _ in _each_damaged(store_path, garbage):
            with pytest.raises(IndexStoreError, match="unreadable or truncated"):
                open_index(store_path).load_shard(mmap=mmap)

    def test_interrupted_save_leaves_no_store(self, tiny_db, tmp_path, monkeypatch):
        """A crash before the final rename must not materialize the path."""
        import os as _os

        target = tmp_path / "never_born"
        real_replace = _os.replace

        def boom(src, dst):
            if _os.fspath(dst) == _os.fspath(target):
                raise OSError("simulated crash at publish")
            return real_replace(src, dst)

        monkeypatch.setattr(_os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            save_index(tiny_db, target)
        monkeypatch.undo()
        assert not target.exists()
        # the tmp sibling was cleaned up too: directory holds no debris
        assert list(tmp_path.iterdir()) == []

    def test_save_after_interrupted_save_succeeds(self, tiny_db, tmp_path):
        """Stale tmp siblings from a hard kill do not block the next save,
        which writes under a temporary directory of its own and leaves
        them alone (one could belong to a save still running)."""
        target = tmp_path / "idx"
        stale = tmp_path / f".{target.name}.tmp-{__import__('os').getpid()}"
        stale.mkdir()
        (stale / "junk.npy").write_bytes(b"half-written")
        store = save_index(tiny_db, target)
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "idx"]
        store.validate_against(tiny_db)
        open_index(target).load_shard()
