"""Store directories: what both formats share, and the resident store.

Every store is a directory holding ``header.json`` and a ``database/``
section beside the format's own section::

    <store_dir>/
        header.json         # schema, fingerprint, build config,
                            # database manifest, the format's manifests
        database/
            residues.npy    # the source database's flat buffers,
            offsets.npy     # mmap-able: every scored span and every
            ids.npy         # emitted hit reads them
        index/              # resident store (schema repro.index_store/4)
            row_seq.npy     # the mass-sorted row table: every span of
            row_start.npy   # the database, the four columns a partition
            row_stop.npy    # of a partitioned store holds, stored raw
            row_mass.npy
            ladder_mz.npy   # the two posting lists, whose *_row values
            ...             # are positions in the row table
        partitions/         # or a partitioned store (repro.store.partitioned)

A *resident* store (this module) is the database section plus one
whole-database fragment index: the row table and the two posting lists
that address it, one standard ``.npy`` file per
:class:`~repro.index.layout.IndexLayout` array.  Loading maps every
buffer read-only with ``np.load(..., mmap_mode="r")`` — zero copy, the
``.npy`` header doubling as an on-disk dtype/shape check against the
manifest.  The rows are the ones a partitioned store of the same
database decodes, stored raw: a search sweeps them as one row block.

``header.json`` is a store's single source of truth: the schema version
(the one version a reader checks; any other is refused with the rebuild
command), the content *fingerprint* (SHA-256 over the source database's
flat buffers plus the canonical build-config JSON), the build
parameters, and a full dtype/shape manifest of every mapped array.

The fingerprint contract: a store built from database *D* with build
config *C* is valid only for searches over exactly *D*.
``validate_against`` recomputes the fingerprint from the caller's
database and rejects mismatches with
:class:`~repro.errors.IndexStoreError` — a stale store is *refused*,
never silently served, because the build-once/load-many contract is that
a loaded store scores bitwise identically to the direct search.

Writes are atomic-ish *and durable*: :func:`_write_store` assembles the
directory under a temporary sibling name — every buffer and the header
fsync'd, then the directories themselves — before renaming it into place
and fsyncing the parent directory.  Readers never observe a half-written
store, and a power cut after a save returns cannot leave torn buffers
behind the final name.  Should torn or truncated buffers appear anyway
(a copy interrupted mid-flight, bit rot), loading raises a typed
:class:`~repro.errors.IndexStoreError` — never a raw numpy or OS error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.errors import ConfigError, IndexStoreError
from repro.index.fragment_index import FragmentIndex, IndexBuilder
from repro.index.layout import ARRAY_NAMES, ArraySpec, IndexLayout
from repro.obs.metrics import get_metrics

#: schema identifier for the resident store directory format; readers
#: reject other versions rather than guessing at semantics (/4: the
#: index holds the row table its postings address, not per-residue maps)
STORE_SCHEMA = "repro.index_store/4"

HEADER_NAME = "header.json"
DATABASE_DIR = "database"
INDEX_DIR = "index"

#: the database section's buffers, in ``ProteinDatabase.to_buffers`` order
DATABASE_ARRAYS = ("residues", "offsets", "ids")


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


#: ``np.load`` parses a ``.npy`` header with ``ast.literal_eval``, and
#: CPython 3.11's AST recursion counter is not thread-safe: two threads
#: (service workers) opening store buffers at once can die with
#: ``SystemError: AST constructor recursion depth mismatch``.  Every
#: ``np.load`` of either store format runs under this lock — a header
#: parse plus an ``mmap``, microseconds; decode and scoring stay outside.
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
    schema: str,
    write_section: Callable[[Path], Dict[str, Any]],
    *,
    overwrite: bool = False,
) -> None:
    """Assemble a store directory of either format, atomically and durably.

    Writes the ``database/`` section, then ``write_section(tmp)`` — the
    format's own section, returning the header entries that describe
    it — then ``header.json``, all under a temporary sibling: every file
    fsync'd, then every directory, then the rename into place and the
    parent directory.  A failure anywhere removes the sibling.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise IndexStoreError(
            f"index store path {path} already exists (pass overwrite to replace it)"
        )
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        db_dir = tmp / DATABASE_DIR
        db_dir.mkdir()
        database = {
            name: _save_buffer(db_dir, name, arr)
            for name, arr in zip(DATABASE_ARRAYS, db.to_buffers())
        }
        _fsync_dir(db_dir)
        header = {
            "schema": schema,
            "fingerprint": compute_fingerprint(db, build),
            "created": time.time(),
            "build": build,
            "database": database,
            **write_section(tmp),
        }
        with open(tmp / HEADER_NAME, "w") as fh:
            json.dump(header, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        _fsync_dir(tmp)
        if path.exists():  # overwrite: drop the stale store just before rename
            shutil.rmtree(path)
        os.replace(tmp, path)
        _fsync_dir(path.parent)  # persist the rename itself
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def _read_header(path: Path) -> Dict[str, Any]:
    """``header.json`` of a store directory of either format, as a dict.

    Raises :class:`IndexStoreError` for a missing directory or an
    unreadable or malformed header.
    """
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
    return header


@dataclass
class StoreHandle:
    """An opened, header-validated store directory of either format.

    Holds what both headers carry — schema, fingerprint, build config,
    creation time and the ``database/`` manifest — and what both handles
    do with it.  Subclasses name their format: ``SCHEMA``, the command
    that rebuilds it, and the provenance ``SOURCE`` of a run served
    from it.
    """

    SCHEMA = ""
    REBUILD = "repro index build"
    SOURCE = ""

    path: Path
    schema: str
    fingerprint: str
    build: Dict[str, Any]
    created: float
    database_arrays: Dict[str, ArraySpec]

    @property
    def database_bytes(self) -> int:
        """Bytes of the ``database/`` section's buffers."""
        return sum(spec.nbytes for spec in self.database_arrays.values())

    def validate_against(self, db: ProteinDatabase) -> None:
        """Reject the store if it was not built from exactly ``db``.

        Recomputes the content fingerprint from the caller's database
        and this store's recorded build config; a mismatch means the
        database changed (or the store belongs to a different one) and
        loading would serve silently wrong results.
        """
        expect = compute_fingerprint(db, self.build)
        if expect != self.fingerprint:
            raise IndexStoreError(
                f"index store at {self.path} was built from a different "
                f"database or configuration (store fingerprint "
                f"{self.fingerprint[:12]}..., database fingerprint "
                f"{expect[:12]}...); rebuild with `{self.REBUILD}`"
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

    def provenance(self) -> Dict[str, Any]:
        """Index-provenance record for RunReport extras."""
        return {
            "source": self.SOURCE,
            "fingerprint": self.fingerprint,
            "schema": self.schema,
            "build": dict(self.build),
        }

    def describe(self) -> Dict[str, Any]:
        """Inspection summary (what ``repro index inspect`` prints)."""
        return {
            "path": str(self.path),
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "created": self.created,
            "build": dict(self.build),
            "database_bytes": self.database_bytes,
        }


def _read_store(
    path: Union[str, Path],
    handle: type,
    own_fields: Callable[[Dict[str, Any]], Dict[str, Any]],
) -> Any:
    """Open a store directory as ``handle`` (its ``SCHEMA`` is the one
    version accepted); ``own_fields(header)`` parses the format's section.

    Cheap: reads only ``header.json``.  Raises :class:`IndexStoreError`
    for a missing directory, an unreadable or malformed header, or any
    other schema — an earlier version names the rebuild command.
    """
    path = Path(path)
    header_path = path / HEADER_NAME
    header = _read_header(path)
    schema = header.get("schema")
    family = handle.SCHEMA.rsplit("/", 1)[0] + "/"
    if not isinstance(schema, str) or not schema.startswith(family):
        raise IndexStoreError(f"unrecognized index store schema {schema!r} in {header_path}")
    if schema != handle.SCHEMA:
        raise IndexStoreError(
            f"unsupported index store schema {schema!r} in {header_path} "
            f"(this build reads {handle.SCHEMA}); rebuild the store with "
            f"`{handle.REBUILD}`"
        )
    try:
        fingerprint = header["fingerprint"]
        build = header["build"]
        if not isinstance(fingerprint, str) or not isinstance(build, dict):
            raise TypeError("fingerprint/build have wrong types")
        return handle(
            path=path,
            schema=schema,
            fingerprint=fingerprint,
            build=build,
            created=float(header.get("created", 0.0)),
            database_arrays={
                name: ArraySpec.from_dict(header["database"][name], name)
                for name in DATABASE_ARRAYS
            },
            **own_fields(header),
        )
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        if isinstance(exc, IndexStoreError):
            raise
        raise IndexStoreError(f"malformed index store header {header_path}: {exc!r}") from None


@dataclass
class LoadedShard:
    """A resident store opened for search: the database, its wired index
    view (row table and postings), and what the load cost (for
    ShardStats / CostModel accounting)."""

    database: ProteinDatabase
    index: FragmentIndex
    seconds: float  # wall time spent opening + wiring
    nbytes: int  # bytes mapped (database and index sections)


@dataclass
class StoredIndex(StoreHandle):
    """Handle to an opened resident store: the database section plus one
    whole-database row table and fragment index, mapped together by
    :meth:`load_shard`."""

    SCHEMA = STORE_SCHEMA
    SOURCE = "loaded"

    layout: IndexLayout

    @property
    def nbytes(self) -> int:
        """Bytes a load maps: the database and index sections."""
        return self.database_bytes + self.layout.nbytes

    def load_shard(
        self, *, mmap: bool = True, memory_budget_mb: Optional[float] = None
    ) -> LoadedShard:
        """Open the database and index sections and wire a read-only
        :class:`FragmentIndex` over the index's row table and postings.

        With ``mmap=True`` (the default) every array is an
        ``np.memmap`` view — the OS pages rows and postings in on demand and
        shares clean pages across processes.  With ``mmap=False``
        buffers are read onto the heap (still marked non-writable).
        Either way the arrays are dtype/shape-checked against the
        manifest; truncated or swapped buffers raise
        :class:`IndexStoreError` instead of serving wrong postings.

        A resident store is mapped whole, so it cannot honour
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
            index = FragmentIndex(self.layout, arrays)
        seconds = time.perf_counter() - start
        metrics.count("index.mmap_bytes", self.nbytes)
        metrics.observe("index.load_time", seconds)
        return LoadedShard(database=database, index=index, seconds=seconds, nbytes=self.nbytes)

    def describe(self) -> Dict[str, Any]:
        return dict(
            super().describe(),
            total_bytes=self.nbytes,
            index_bytes=self.layout.nbytes,
            num_rows=self.layout.num_rows,
            num_fragments=self.layout.num_fragments,
        )


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

    One :class:`IndexBuilder` pass over the whole database (an empty one
    included), written in the directory format described in the module
    docstring by :func:`_write_store`.  Returns the opened
    :class:`StoredIndex`.
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

    def write_index(tmp: Path) -> Dict[str, Any]:
        with get_metrics().span("index.build", category="store"):
            built = builder.build(db)
        index_dir = tmp / INDEX_DIR
        index_dir.mkdir()
        for name in ARRAY_NAMES:
            _save_buffer(index_dir, name, built.arrays[name])
        _fsync_dir(index_dir)
        return {"index": built.layout.to_dict()}

    _write_store(path, db, build, STORE_SCHEMA, write_index, overwrite=overwrite)
    return open_index(path)


def open_index(path: Union[str, Path]) -> StoredIndex:
    """Open and header-validate a resident store directory.

    Cheap: reads only ``header.json`` (schema + manifests); no buffer
    is touched until :meth:`StoredIndex.load_shard`.
    """
    return _read_store(
        path, StoredIndex, lambda header: {"layout": IndexLayout.from_dict(header["index"])}
    )
