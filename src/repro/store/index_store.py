"""Store directories: one format, written by two builders.

Every store is a directory holding ``header.json``, a ``database/``
section and an ``index/`` section holding the database's mass-sorted
row table raw::

    <store_dir>/
        header.json         # schema, fingerprint, build config, database
                            # and row manifests, the postings' layout or
                            # the partition directory
        database/
            residues.npy    # the source database's flat buffers,
            offsets.npy     # mmap-able: every scored span and every
            ids.npy         # emitted hit reads them
        index/
            row_mass.npy    # the mass-sorted row table: every span of
            row_key.npy     # the database, one 12-byte row each
            series_mz.npy   # save_index only: the posting list, whose
            ...             # series_row values are positions in the table

A store built by :func:`save_index` also holds the four posting arrays
(:data:`~repro.index.layout.POSTING_ARRAYS`) and is mapped whole by
:meth:`StoredIndex.load_shard`: ``np.load(..., mmap_mode="r")`` per
:class:`~repro.index.layout.IndexLayout` array — zero copy, the ``.npy``
header doubling as an on-disk dtype/shape check against the manifest.
A store built by :func:`~repro.store.partitioned.save_partitioned_index`
holds no postings; its header records a *partition directory* instead:
mass-contiguous row ranges ``[lo, hi)`` of the same table, each with its
mass range and one SHA-256 over that range's bytes in the two row
columns.  A streamed pass reads a partition with positioned reads
(:meth:`StoredIndex.read_partition`) and never maps a row column.

``header.json`` is a store's single source of truth: the schema version
(the one version a reader checks; any other is refused with the rebuild
command), the content *fingerprint* (SHA-256 over the source database's
flat buffers plus the canonical build-config JSON), the build
parameters, and a full dtype/shape manifest of every stored array.

The fingerprint contract: a store built from database *D* with build
config *C* is valid only for searches over exactly *D*.
``validate_against`` recomputes the fingerprint from the caller's
database and rejects mismatches with
:class:`~repro.errors.IndexStoreError` — a stale store is *refused*,
never silently served, because the build-once/load-many contract is that
a loaded store scores bitwise identically to the direct search.

Writes are atomic *and durable*: :func:`_write_store` assembles the
directory under a temporary sibling of its own — every buffer and the
header fsync'd, then the directories themselves — before renaming it
into place and fsyncing the parent directory.  Readers never observe a
half-written store, a power cut after a save returns cannot leave torn
buffers behind the final name, and of two saves racing to one path
exactly one publishes.  Should torn or truncated buffers appear anyway
(a copy interrupted mid-flight, bit rot), loading raises a typed
:class:`~repro.errors.IndexStoreError` — never a raw numpy or OS error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.candidates.mass_index import MassIndex
from repro.chem.protein import ProteinDatabase
from repro.errors import ConfigError, IndexStoreError
from repro.index.fragment_index import FragmentIndex, IndexBuilder
from repro.index.layout import ARRAY_NAMES, POSTING_ARRAYS, ROW_ARRAYS, ArraySpec, IndexLayout
from repro.obs.metrics import get_metrics

#: schema identifier of the store directory format; readers reject other
#: versions rather than guessing at semantics (/6: the row table is two
#: columns, mass and an int32 span key, 12 bytes a row; /7: a posting's
#: row id is int32; /8: one posting list, each b and y ion posted once,
#: 13 bytes a posting)
STORE_SCHEMA = "repro.index_store/8"

HEADER_NAME = "header.json"
DATABASE_DIR = "database"
INDEX_DIR = "index"

#: the database section's buffers, in ``ProteinDatabase.to_buffers`` order
DATABASE_ARRAYS = ("residues", "offsets", "ids")

#: bytes of one row of the row table: what ``partition_mb`` is measured in
ROW_BYTES = sum(np.dtype(dtype).itemsize for dtype in ROW_ARRAYS.values())


def _fsync_dir(path: Path) -> None:
    """Flush a directory's entries (names, inodes) to stable storage.

    Some platforms/filesystems refuse fsync on directory descriptors;
    that loses durability, not correctness, so it is tolerated.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def compute_fingerprint(db: ProteinDatabase, build: Dict[str, Any]) -> str:
    """SHA-256 content fingerprint of (database buffers, build config).

    The digest covers the transportable flat buffers (residues, offsets,
    ids — exactly what determines search results) and the canonical JSON
    of the build config, so any change to either produces a different
    store identity.  Names are metadata and excluded, matching
    ``ProteinDatabase.nbytes`` accounting.  No schema string is hashed:
    the schema check is what refuses an old layout.
    """
    h = hashlib.sha256()
    h.update(json.dumps(build, sort_keys=True).encode() + b"\x00")
    for arr in db.to_buffers():
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"\x00")
    return h.hexdigest()


def rows_digest(chunks: Iterable[Any]) -> str:
    """SHA-256 over one row range's bytes in the two row columns, in
    :data:`~repro.index.layout.ROW_ARRAYS` order: what a partition
    directory entry records and a streamed read checks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def row_columns(table: MassIndex) -> Dict[str, np.ndarray]:
    """The row table's two columns, by name."""
    return dict(zip(ROW_ARRAYS, (table.mass, table.key)))


#: ``np.load`` parses a ``.npy`` header with ``ast.literal_eval``, and
#: CPython 3.11's AST recursion counter is not thread-safe: two threads
#: (service workers) opening store buffers at once can die with
#: ``SystemError: AST constructor recursion depth mismatch``.  Every
#: ``.npy`` header parse of a store runs under this lock — microseconds;
#: reads and scoring stay outside.
NPY_LOAD_LOCK = threading.Lock()


def load_buffer(buf_path: Path, mmap: bool, missing: str) -> np.ndarray:
    """``np.load`` one stored ``.npy`` buffer, read-only, one thread at a time.

    ``missing`` is the message of the :class:`IndexStoreError` raised when
    the file is not there; an unreadable or truncated one gets its own.
    """
    try:
        with NPY_LOAD_LOCK:
            arr = np.load(buf_path, mmap_mode="r" if mmap else None)
    except FileNotFoundError:
        raise IndexStoreError(missing) from None
    except (ValueError, OSError, EOFError) as exc:
        # numpy reports truncation inconsistently: a torn .npy header
        # raises ValueError, a payload cut short raises EOFError (heap
        # load) or ValueError (mmap); all of them mean the same thing here
        raise IndexStoreError(
            f"index store buffer {buf_path} is unreadable or truncated: {exc}"
        ) from None
    if not mmap:
        arr.flags.writeable = False
    return arr


def _save_buffer(directory: Path, name: str, arr: np.ndarray) -> Dict[str, Any]:
    """Write one durable ``<name>.npy``; returns its manifest entry."""
    with open(directory / f"{name}.npy", "wb") as fh:
        np.save(fh, arr)
        fh.flush()
        os.fsync(fh.fileno())
    return ArraySpec(str(arr.dtype), tuple(arr.shape)).to_dict()


def _write_store(
    path: Union[str, Path],
    db: ProteinDatabase,
    build: Dict[str, Any],
    write_index: Callable[[Path, MassIndex], Dict[str, Any]],
    *,
    overwrite: bool = False,
) -> None:
    """Assemble a store directory, atomically and durably.

    Writes the ``database/`` section, then ``index/``: the row table —
    the save's one :class:`~repro.candidates.mass_index.MassIndex` build
    — and whatever ``write_index(index_dir, rows)`` adds beside it,
    returning the header entries that describe it (the postings' layout,
    or the partition directory).  Then ``header.json``.  All of it under
    a temporary sibling unique to this call: every file fsync'd, then
    every directory, then the rename into place and the parent
    directory.  A failure anywhere removes the sibling.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise IndexStoreError(
            f"index store path {path} already exists (pass overwrite to replace it)"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{path.name}.tmp-", dir=path.parent))
    try:
        db_dir = tmp / DATABASE_DIR
        db_dir.mkdir()
        database = {
            name: _save_buffer(db_dir, name, arr)
            for name, arr in zip(DATABASE_ARRAYS, db.to_buffers())
        }
        _fsync_dir(db_dir)
        index_dir = tmp / INDEX_DIR
        index_dir.mkdir()
        rows = MassIndex(db)
        header = {
            "schema": STORE_SCHEMA,
            "fingerprint": compute_fingerprint(db, build),
            "created": time.time(),
            "build": build,
            "database": database,
            "rows": {
                name: _save_buffer(index_dir, name, col)
                for name, col in row_columns(rows).items()
            },
            **write_index(index_dir, rows),
        }
        _fsync_dir(index_dir)
        with open(tmp / HEADER_NAME, "w") as fh:
            json.dump(header, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_dir(tmp)
        _publish(tmp, path, overwrite)
        _fsync_dir(path.parent)  # persist the rename itself
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _publish(tmp: Path, path: Path, overwrite: bool) -> None:
    """Rename the finished ``tmp`` directory to ``path``.

    With ``overwrite`` the old store goes just before the rename.
    Without it, whatever appeared at ``path`` while this save was
    writing — another save's store, most likely — is left intact and the
    save fails typed.
    """
    if overwrite:
        shutil.rmtree(path, ignore_errors=True)
    if not path.exists():
        try:
            os.replace(tmp, path)
            return
        except OSError:
            if not path.exists():
                raise
    raise IndexStoreError(
        f"index store path {path} was created by another writer while this "
        f"save ran; it is left as it is and this save is discarded"
    )


@dataclass(frozen=True)
class PartitionEntry:
    """Partition directory entry: rows ``[lo, hi)`` of the row table,
    their mass range, and the SHA-256 of their bytes in the two row
    columns (:func:`rows_digest`)."""

    lo: int
    hi: int
    mass_lo: float
    mass_hi: float
    sha256: str

    @property
    def num_rows(self) -> int:
        return self.hi - self.lo

    @property
    def nbytes(self) -> int:
        """Bytes of the partition's rows: what a pass holds to score it."""
        return self.num_rows * ROW_BYTES


@dataclass
class LoadedShard:
    """A store opened for search: the database, its wired index view
    (row table and postings), and what the load cost (for
    ShardStats / CostModel accounting)."""

    database: ProteinDatabase
    index: FragmentIndex
    seconds: float  # wall time spent opening + wiring
    nbytes: int  # bytes mapped (database and index sections)


@dataclass
class StoredIndex:
    """Handle to an opened store directory.

    Opening reads ``header.json`` alone: schema, fingerprint, build
    config, the ``database/`` and row-table manifests, and either the
    postings' ``layout`` (a store built by :func:`save_index`, mapped
    whole by :meth:`load_shard`) or the ``partitions`` directory (a store
    built by :func:`~repro.store.partitioned.save_partitioned_index`,
    read partition by partition with :meth:`read_partition`; its
    ``layout`` is ``None``).  The handle is what stays resident for a
    whole streamed pass.
    """

    path: Path
    schema: str
    fingerprint: str
    build: Dict[str, Any]
    created: float
    database_arrays: Dict[str, ArraySpec]
    rows: Dict[str, ArraySpec]
    layout: Optional[IndexLayout] = None
    partitions: List[PartitionEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        num_rows = self.num_rows
        expect = {name: ArraySpec(dtype, (num_rows,)) for name, dtype in ROW_ARRAYS.items()}
        if self.rows != expect:
            raise IndexStoreError(
                f"index store at {self.path} does not describe the "
                f"{len(ROW_ARRAYS)} row columns of one table: {self.rows!r}"
            )
        edges = [0] + [p.hi for p in self.partitions]
        tiled = all(p.lo == lo < p.hi for p, lo in zip(self.partitions, edges))
        if not tiled or (self.partitioned and edges[-1] != num_rows):
            raise IndexStoreError(
                f"partition directory of the index store at {self.path} does "
                f"not tile its {num_rows} rows"
            )

    @property
    def partitioned(self) -> bool:
        """Whether a search streams this store partition by partition
        (no postings) rather than mapping it whole."""
        return self.layout is None

    @property
    def num_rows(self) -> int:
        return int(self.rows["row_mass"].shape[0])

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def database_bytes(self) -> int:
        """Bytes of the ``database/`` section's buffers."""
        return sum(spec.nbytes for spec in self.database_arrays.values())

    @property
    def row_bytes(self) -> int:
        """Bytes of the row table."""
        return sum(spec.nbytes for spec in self.rows.values())

    @property
    def index_bytes(self) -> int:
        """Bytes of the ``index/`` section: the row table, and the
        postings if the store has them."""
        return self.row_bytes if self.layout is None else self.layout.nbytes

    @property
    def nbytes(self) -> int:
        """Bytes of the database and index sections."""
        return self.database_bytes + self.index_bytes

    @property
    def max_partition_bytes(self) -> int:
        """Rows of the largest partition: the unit the streaming memory
        budget reasons in (a double-buffered pass holds two)."""
        return max((p.nbytes for p in self.partitions), default=0)

    def validate_against(self, db: ProteinDatabase) -> None:
        """Reject the store if it was not built from exactly ``db``.

        Recomputes the content fingerprint from the caller's database
        and this store's recorded build config; a mismatch means the
        database changed (or the store belongs to a different one) and
        loading would serve silently wrong results.
        """
        expect = compute_fingerprint(db, self.build)
        if expect != self.fingerprint:
            rebuild = "repro index build" + (" --partition-mb ..." if self.partitioned else "")
            raise IndexStoreError(
                f"index store at {self.path} was built from a different "
                f"database or configuration (store fingerprint "
                f"{self.fingerprint[:12]}..., database fingerprint "
                f"{expect[:12]}...); rebuild with `{rebuild}`"
            )

    def load_database(self, mmap: bool = True) -> ProteinDatabase:
        """Open the ``database/`` buffers (mmap read-only by default),
        each dtype/shape-checked against the header's manifest."""
        bufs = []
        for name in DATABASE_ARRAYS:
            buf_path = self.path / DATABASE_DIR / f"{name}.npy"
            arr = load_buffer(
                buf_path,
                mmap,
                f"index store at {self.path} is missing database buffer "
                f"{DATABASE_DIR}/{buf_path.name}",
            )
            spec = self.database_arrays[name]
            if str(arr.dtype) != spec.dtype or tuple(arr.shape) != spec.shape:
                raise IndexStoreError(
                    f"index store at {self.path} does not match its manifest: "
                    f"database buffer {name!r} has dtype/shape "
                    f"{arr.dtype}/{tuple(arr.shape)}, manifest says "
                    f"{spec.dtype}/{spec.shape}"
                )
            bufs.append(arr)
        return ProteinDatabase.from_buffers(*bufs)

    def load_shard(
        self, *, mmap: bool = True, memory_budget_mb: Optional[float] = None
    ) -> LoadedShard:
        """Open the database and index sections of a store with postings
        and wire a read-only :class:`FragmentIndex` over its row table
        and postings.

        With ``mmap=True`` (the default) every array is an
        ``np.memmap`` view — the OS pages rows and postings in on demand and
        shares clean pages across processes.  With ``mmap=False``
        buffers are read onto the heap (still marked non-writable).
        Either way the arrays are dtype/shape-checked against the
        manifest; truncated or swapped buffers raise
        :class:`IndexStoreError` instead of serving wrong postings.

        Such a store is mapped whole, so it cannot honour
        ``memory_budget_mb``: any budget raises
        :class:`~repro.errors.ConfigError` before a buffer is touched.
        """
        if memory_budget_mb is not None:
            raise ConfigError(
                f"a memory budget bounds streamed partition residency; the "
                f"resident-format store at {self.path} is memory-mapped whole "
                f"(build a partitioned store with `repro index build "
                f"--partition-mb ...` to search under a budget)"
            )
        metrics = get_metrics()
        start = time.perf_counter()
        with metrics.span("index.load", category="store", mmap=mmap):
            database = self.load_database(mmap)
            arrays = {
                name: load_buffer(
                    self.path / INDEX_DIR / f"{name}.npy",
                    mmap,
                    f"index store at {self.path} is missing index buffer "
                    f"{INDEX_DIR}/{name}.npy",
                )
                for name in ARRAY_NAMES
            }
            problems = self.layout.check_arrays(arrays)
            if problems:
                raise IndexStoreError(
                    f"index store at {self.path} does not match its manifest: "
                    + "; ".join(problems)
                )
            index = FragmentIndex(self.layout, arrays, database.offsets)
        seconds = time.perf_counter() - start
        metrics.count("index.mmap_bytes", self.nbytes)
        metrics.observe("index.load_time", seconds)
        return LoadedShard(database=database, index=index, seconds=seconds, nbytes=self.nbytes)

    def read_partition(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Partition ``i``'s rows: its read-only ``(mass, key)`` columns,
        mass-sorted (:class:`~repro.candidates.mass_index.MassIndex`
        decodes the keys against the store's database).

        Two positioned reads, one per row column, never a memory map:
        mapped pages a pass touches would count in its peak resident set
        whatever its memory budget.  The bytes are checked against the
        directory entry's SHA-256 before a view is made; a missing,
        truncated or corrupt column raises
        :class:`~repro.errors.IndexStoreError`.
        """
        if not 0 <= i < self.num_partitions:
            raise IndexStoreError(
                f"index store at {self.path} has {self.num_partitions} "
                f"partitions; partition {i} does not exist"
            )
        entry = self.partitions[i]
        chunks = [self._read_rows(name, entry.lo, entry.hi) for name in ROW_ARRAYS]
        digest = rows_digest(chunks)
        if digest != entry.sha256:
            raise IndexStoreError(
                f"partition {i} (rows [{entry.lo}, {entry.hi})) of the index "
                f"store at {self.path} is corrupt: SHA-256 {digest[:12]}... "
                f"does not match its directory entry {entry.sha256[:12]}..."
            )
        return tuple(np.frombuffer(c, dtype=t) for c, t in zip(chunks, ROW_ARRAYS.values()))

    def _read_rows(self, name: str, lo: int, hi: int) -> bytes:
        """Rows ``[lo, hi)`` of one row column: a ``pread`` at the
        ``.npy`` file's data offset, once its header matches the
        manifest."""
        buf_path = self.path / INDEX_DIR / f"{name}.npy"
        spec = self.rows[name]
        itemsize = np.dtype(spec.dtype).itemsize
        try:
            with open(buf_path, "rb") as fh:
                with NPY_LOAD_LOCK:
                    version = np.lib.format.read_magic(fh)
                    read_header = (
                        np.lib.format.read_array_header_1_0
                        if version == (1, 0)
                        else np.lib.format.read_array_header_2_0
                    )
                    shape, _fortran, dtype = read_header(fh)
                data = os.pread(fh.fileno(), (hi - lo) * itemsize, fh.tell() + lo * itemsize)
        except FileNotFoundError:
            raise IndexStoreError(
                f"index store at {self.path} is missing row column "
                f"{INDEX_DIR}/{buf_path.name}"
            ) from None
        except (ValueError, OSError, EOFError) as exc:
            raise IndexStoreError(
                f"index store buffer {buf_path} is unreadable or truncated: {exc}"
            ) from None
        if str(dtype) != spec.dtype or tuple(shape) != spec.shape:
            raise IndexStoreError(
                f"index store at {self.path} does not match its manifest: row "
                f"column {name!r} has dtype/shape {dtype}/{tuple(shape)}, "
                f"manifest says {spec.dtype}/{spec.shape}"
            )
        if len(data) != (hi - lo) * itemsize:
            raise IndexStoreError(
                f"index store buffer {buf_path} is truncated: rows [{lo}, {hi}) "
                f"end past its last byte"
            )
        return data

    def provenance(self) -> Dict[str, Any]:
        """Index-provenance record for RunReport extras."""
        return {
            "source": "streamed" if self.partitioned else "loaded",
            "fingerprint": self.fingerprint,
            "schema": self.schema,
            "build": dict(self.build),
        }

    def describe(self) -> Dict[str, Any]:
        """Inspection summary (what ``repro index inspect`` prints)."""
        info = {
            "path": str(self.path),
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "created": self.created,
            "build": dict(self.build),
            "database_bytes": self.database_bytes,
            "index_bytes": self.index_bytes,
            "total_bytes": self.nbytes,
            "num_rows": self.num_rows,
        }
        if self.partitioned:
            info["max_partition_bytes"] = self.max_partition_bytes
            info["partitions"] = [asdict(p) for p in self.partitions]
        else:
            info["num_fragments"] = self.layout.num_fragments
        return info


def save_index(
    db: ProteinDatabase,
    path: Union[str, Path],
    *,
    fragment_tolerance: float = 0.5,
    max_length: int = 48,
    monoisotopic: bool = True,
    overwrite: bool = False,
) -> StoredIndex:
    """Build ``db``'s fragment index and persist it under ``path``.

    The row table of the whole database (an empty one included) and the
    posting list an :class:`IndexBuilder` posts over it, written in
    the directory format described in the module docstring by
    :func:`_write_store`.  Returns the opened :class:`StoredIndex`.
    """
    builder = IndexBuilder(
        fragment_tolerance=fragment_tolerance,
        max_length=max_length,
        monoisotopic=monoisotopic,
    )
    build = {
        "fragment_tolerance": builder.fragment_tolerance,
        "max_length": builder.max_length,
        "monoisotopic": builder.monoisotopic,
    }

    def write_postings(index_dir: Path, rows: MassIndex) -> Dict[str, Any]:
        with get_metrics().span("index.build", category="store"):
            built = builder.build(db, rows)
        for name in POSTING_ARRAYS:
            _save_buffer(index_dir, name, built.arrays[name])
        return {"index": built.layout.to_dict()}

    _write_store(path, db, build, write_postings, overwrite=overwrite)
    return open_index(path)


def open_index(path: Union[str, Path]) -> StoredIndex:
    """Open and header-validate a store directory.

    Cheap: reads only ``header.json`` (schema and manifests, the
    partition directory); no buffer is touched until
    :meth:`StoredIndex.load_shard` or :meth:`StoredIndex.read_partition`.
    Raises :class:`IndexStoreError` for a missing directory, an
    unreadable or malformed header, or any other schema — an earlier
    version of this format names the rebuild command.
    """
    path = Path(path)
    header_path = path / HEADER_NAME
    if not path.is_dir() or not header_path.is_file():
        raise IndexStoreError(
            f"no index store at {path} (expected a directory containing "
            f"{HEADER_NAME}; build one with `repro index build`)"
        )
    try:
        with open(header_path) as fh:
            header = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexStoreError(f"index store header {header_path} is unreadable: {exc}") from None
    if not isinstance(header, dict):
        raise IndexStoreError(f"index store header {header_path} is not a JSON object")
    schema = header.get("schema")
    if schema != STORE_SCHEMA:
        if isinstance(schema, str) and schema.startswith("repro.index_store"):
            raise IndexStoreError(
                f"unsupported index store schema {schema!r} in {header_path} "
                f"(this build reads {STORE_SCHEMA}); rebuild the store with "
                f"`repro index build` (`repro index build --partition-mb ...` "
                f"for a partitioned one)"
            )
        raise IndexStoreError(f"unrecognized index store schema {schema!r} in {header_path}")
    try:
        fingerprint = header["fingerprint"]
        build = header["build"]
        if not isinstance(fingerprint, str) or not isinstance(build, dict):
            raise TypeError("fingerprint/build have wrong types")
        return StoredIndex(
            path=path,
            schema=schema,
            fingerprint=fingerprint,
            build=build,
            created=float(header.get("created", 0.0)),
            database_arrays={
                name: ArraySpec.from_dict(header["database"][name], name)
                for name in DATABASE_ARRAYS
            },
            rows={name: ArraySpec.from_dict(header["rows"][name], name) for name in ROW_ARRAYS},
            layout=IndexLayout.from_dict(header["index"]) if "index" in header else None,
            partitions=[
                PartitionEntry(
                    int(e["lo"]), int(e["hi"]), float(e["mass_lo"]),
                    float(e["mass_hi"]), str(e["sha256"]),
                )
                for e in header.get("partitions", [])
            ],
        )
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        if isinstance(exc, IndexStoreError):
            raise
        raise IndexStoreError(f"malformed index store header {header_path}: {exc!r}") from None


#: the name the engines, the CLI and the service open a store by
open_any_index = open_index
