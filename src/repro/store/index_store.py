"""Directory-based persistent store for built fragment indexes.

On-disk format (schema ``repro.index_store/2``)::

    <index_dir>/
        header.json             # store schema, fingerprint, build config,
                                # one IndexLayout manifest per shard
        shard_00000/
            shard_residues.npy  # one standard .npy file per manifest array
            shard_offsets.npy
            ...
        shard_00001/
            ...

``header.json`` is the store's single source of truth: the schema
version, the content *fingerprint* (SHA-256 over the source database's
flat buffers plus the canonical build-config JSON), the build
parameters, and a full dtype/shape manifest
(:class:`~repro.index.layout.IndexLayout`) per shard.  Each manifest
array lives in its own ``.npy`` file named ``<array>.npy`` inside the
shard directory — ``np.load(..., mmap_mode="r")`` maps it read-only with
zero copy, and the .npy header doubles as an on-disk dtype/shape check.

The fingerprint contract: a store built from database *D* with build
config *C* is valid only for searches over exactly (*D*, *C*-compatible
options).  ``StoredIndex.validate_against`` recomputes the fingerprint
from the caller's database and rejects mismatches with
:class:`~repro.errors.IndexStoreError` — a stale index is *refused*,
never silently served, because the build-once/load-many contract is
that a loaded index scores bitwise identically to an in-process
rebuild.

Writes are atomic-ish *and durable*: the directory is assembled under a
temporary sibling name — every buffer and the header fsync'd, then the
directories themselves — before being renamed into place and the parent
directory fsync'd.  Readers never observe a half-written store, and a
power cut after ``save_index`` returns cannot leave torn buffers behind
the final name.  Should torn or truncated buffers appear anyway (a
copy interrupted mid-flight, bit rot), loading raises a typed
:class:`~repro.errors.IndexStoreError` — never a raw numpy or OS error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.core.partition import partition_database
from repro.errors import IndexStoreError
from repro.index.fragment_index import FragmentIndex, IndexBuilder
from repro.index.layout import ARRAY_NAMES, IndexLayout
from repro.obs.metrics import get_metrics

#: schema identifier for the store directory format; readers reject
#: other versions rather than guessing at semantics
STORE_SCHEMA = "repro.index_store/2"

HEADER_NAME = "header.json"


def _shard_dirname(i: int) -> str:
    return f"shard_{i:05d}"


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
    ``ProteinDatabase.nbytes`` accounting.
    """
    h = hashlib.sha256()
    h.update(STORE_SCHEMA.encode() + b"\x00")
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


@dataclass
class LoadedShard:
    """One shard opened from a store: the shard, its wired index view,
    and what the load cost (for ShardStats / CostModel accounting)."""

    shard: ProteinDatabase
    index: FragmentIndex
    seconds: float  # wall time spent opening + wiring
    nbytes: int  # bytes mapped (full manifest, shard buffers included)


@dataclass
class StoredIndex:
    """Handle to an opened (validated-header) index store directory."""

    path: Path
    schema: str
    fingerprint: str
    build: Dict[str, Any]
    created: float
    layouts: List[IndexLayout] = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.layouts)

    @property
    def nbytes(self) -> int:
        """Total mapped bytes across every shard's full manifest."""
        return sum(layout.nbytes for layout in self.layouts)

    @property
    def index_nbytes(self) -> int:
        """Index-proper bytes (manifests minus the shard buffers)."""
        return sum(layout.index_nbytes for layout in self.layouts)

    def shard_dir(self, i: int) -> Path:
        return self.path / _shard_dirname(i)

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
                f"{expect[:12]}...); rebuild with `repro index build`"
            )

    def load_shard(self, i: int, mmap: bool = True) -> LoadedShard:
        """Open shard ``i``'s arrays and wire a read-only FragmentIndex.

        With ``mmap=True`` (the default) every array is an
        ``np.memmap`` view — the OS pages postings in on demand and
        shares clean pages across processes.  With ``mmap=False``
        buffers are read onto the heap (still marked non-writable).
        Either way the arrays are dtype/shape-checked against the
        manifest; truncated or swapped buffers raise
        :class:`IndexStoreError` instead of serving wrong postings.
        """
        if not 0 <= i < self.num_shards:
            raise IndexStoreError(
                f"index store at {self.path} has {self.num_shards} shards; "
                f"shard {i} does not exist"
            )
        layout = self.layouts[i]
        shard_dir = self.shard_dir(i)
        metrics = get_metrics()
        start = time.perf_counter()
        arrays: Dict[str, np.ndarray] = {}
        with metrics.span("index.load", category="store", shard=i, mmap=mmap):
            for name in ARRAY_NAMES:
                buf_path = shard_dir / f"{name}.npy"
                arrays[name] = load_buffer(
                    buf_path,
                    mmap,
                    f"index store at {self.path} is missing buffer "
                    f"{buf_path.name} for shard {i}",
                )
            problems = layout.check_arrays(arrays)
            if problems:
                raise IndexStoreError(
                    f"index store shard {i} at {shard_dir} does not match "
                    f"its manifest: " + "; ".join(problems)
                )
            index = FragmentIndex.from_arrays(layout, arrays)
        seconds = time.perf_counter() - start
        nbytes = int(layout.nbytes)
        metrics.count("index.mmap_bytes", nbytes)
        metrics.observe("index.load_time", seconds)
        return LoadedShard(
            shard=index.shard, index=index, seconds=seconds, nbytes=nbytes
        )

    def load_all(self, mmap: bool = True) -> List[LoadedShard]:
        return [self.load_shard(i, mmap=mmap) for i in range(self.num_shards)]

    def provenance(self) -> Dict[str, Any]:
        """Index-provenance record for RunReport extras (``source``
        ``"loaded"``: this store's shards are memory-mapped whole)."""
        return {
            "source": "loaded",
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
            "num_shards": self.num_shards,
            "total_bytes": int(self.nbytes),
            "index_bytes": int(self.index_nbytes),
            "shards": [
                {
                    "dir": _shard_dirname(i),
                    "num_rows": layout.num_rows,
                    "num_fragments": layout.num_fragments,
                    "bytes": int(layout.nbytes),
                }
                for i, layout in enumerate(self.layouts)
            ],
        }


def save_index(
    db: ProteinDatabase,
    path: Union[str, Path],
    *,
    num_shards: int = 1,
    fragment_tolerance: float = 0.5,
    max_length: int = 48,
    monoisotopic: bool = True,
    overwrite: bool = False,
) -> StoredIndex:
    """Build ``db``'s fragment index and persist it under ``path``.

    Partitions the database byte-balanced into ``num_shards`` pieces
    (empty shards dropped, mirroring the engines), builds each shard
    with one :class:`IndexBuilder`, and writes the directory format
    described in the module docstring.  The write is atomic-ish: the
    store is assembled under a temporary sibling directory and renamed
    into place.  Returns the opened :class:`StoredIndex`.
    """
    path = Path(path)
    if path.exists() and not overwrite:
        raise IndexStoreError(
            f"index store path {path} already exists (pass overwrite to replace it)"
        )
    build = {
        "fragment_tolerance": float(fragment_tolerance),
        "max_length": int(max_length),
        "monoisotopic": bool(monoisotopic),
        "num_shards": int(num_shards),
    }
    fingerprint = compute_fingerprint(db, build)
    shards = [s for s in partition_database(db, num_shards) if len(s) > 0]
    builder = IndexBuilder(
        fragment_tolerance=fragment_tolerance,
        max_length=max_length,
        monoisotopic=monoisotopic,
    )
    metrics = get_metrics()
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        layouts: List[IndexLayout] = []
        for i, shard in enumerate(shards):
            with metrics.span("index.build", category="store", shard=i):
                built = builder.build(shard)
            shard_dir = tmp / _shard_dirname(i)
            shard_dir.mkdir()
            for name in ARRAY_NAMES:
                buf_path = shard_dir / f"{name}.npy"
                with open(buf_path, "wb") as fh:
                    np.save(fh, built.arrays[name])
                    fh.flush()
                    os.fsync(fh.fileno())
            _fsync_dir(shard_dir)
            layouts.append(built.layout)
        header = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            "created": time.time(),
            "build": build,
            "shards": [
                {"dir": _shard_dirname(i), "layout": layout.to_dict()}
                for i, layout in enumerate(layouts)
            ],
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
    return open_index(path)


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


def open_index(path: Union[str, Path]) -> StoredIndex:
    """Open and header-validate an index store directory.

    Cheap: reads only ``header.json`` (schema + manifests); no buffer
    is touched until :meth:`StoredIndex.load_shard`.  Raises
    :class:`IndexStoreError` for a missing directory, unreadable or
    malformed header, or an unsupported schema version.
    """
    path = Path(path)
    header_path = path / HEADER_NAME
    header = _read_header(path)
    schema = header.get("schema")
    if not isinstance(schema, str) or not schema.startswith("repro.index_store/"):
        raise IndexStoreError(f"unrecognized index store schema {schema!r} in {header_path}")
    if schema != STORE_SCHEMA:
        raise IndexStoreError(
            f"unsupported index store schema {schema!r} in {header_path} "
            f"(this build reads {STORE_SCHEMA}); rebuild the store with "
            f"`repro index build`"
        )
    try:
        fingerprint = header["fingerprint"]
        build = header["build"]
        created = float(header.get("created", 0.0))
        shard_entries = header["shards"]
        if not isinstance(fingerprint, str) or not isinstance(build, dict):
            raise TypeError("fingerprint/build have wrong types")
        layouts = [IndexLayout.from_dict(entry["layout"]) for entry in shard_entries]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, IndexStoreError):
            raise
        raise IndexStoreError(f"malformed index store header {header_path}: {exc!r}") from None
    return StoredIndex(
        path=path,
        schema=schema,
        fingerprint=fingerprint,
        build=build,
        created=created,
        layouts=layouts,
    )
