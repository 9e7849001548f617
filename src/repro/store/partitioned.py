"""Out-of-core partitioned store with streamed, prefetched reads.

The resident store (:mod:`repro.store.index_store`) maps its whole
index, so peak memory grows with database size N.  This module
makes N memory-bound no longer: the mass-sorted span set — already the
product of Algorithm B's counting sort — is promoted to the on-disk
layout itself, cut into *mass-contiguous partitions* small enough to
decode one (plus one prefetched) at a time.  A pass scores a
partition's rows directly, the way a search without a store scores its
candidates: the paper moves database shards past resident queries and
never indexes fragments, and neither does this store.

On-disk format (schema ``repro.index_store_partitioned/4``)::

    <store_dir>/
        header.json           # schema, fingerprint, build config,
                              # database manifest, partition directory
        database/             # the resident store's section, written and
            residues.npy      # read by the same code
            offsets.npy
            ids.npy
        partitions/
            p_00000.bin       # one compressed blob per partition
            p_00001.bin
            ...

``header.json`` carries the always-resident *partition directory*: per
partition its span-mass range ``[mass_lo, mass_hi]``, row count,
compressed and decoded byte sizes, a SHA-256 of the blob, the section
table (name, codec, offset, nbytes per stored column) and the
dtype/shape manifest of the four decoded columns.  The directory is a
few hundred bytes per partition — the only part of the store a
streaming search keeps resident for the whole pass.

A partition is a contiguous slice of the database's mass-sorted row
table (:func:`~repro.candidates.mass_index.mass_sorted_spans`: every
prefix/suffix span, the rows a resident store maps raw): four columns
:data:`~repro.index.layout.ROW_ARRAYS` — sequence index, start, stop,
mass — each an independently compressed section
(:mod:`repro.store.codec`).  There is
no length envelope and so no overflow file: a protein's long prefixes
and suffixes are ordinary rows of high-mass partitions that a pass
whose queries are lighter never opens.  Union over partitions is the
complete candidate set, so streamed hits are bitwise identical to the
direct search's.

Durability and validation are the resident store's own code
(:mod:`repro.store.index_store`): atomic tmp-sibling assembly with
per-file fsync, the header read, fingerprint validation against the
caller's database, and typed :class:`~repro.errors.IndexStoreError` on
any truncated, corrupt, or mismatched artifact — here including a blob
whose SHA-256 no longer matches its directory entry *mid-stream*.

:class:`StreamingIndexReader` drives the pass: a background prefetch
thread reads (and checksums) blob k+1 while the main thread decodes and
scores blob k — a double buffer of two partitions, optionally gated by
a memory-budget knob — and records ``stream.*`` metrics plus
prefetch-hit/stall spans in the obs layer.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.candidates.mass_index import CandidateSpans, mass_sorted_spans
from repro.chem.protein import ProteinDatabase
from repro.errors import IndexStoreError
from repro.index.layout import ROW_ARRAYS, ArraySpec
from repro.obs.metrics import get_metrics
from repro.store.codec import codec_for, decode_array, encode_array
from repro.store.index_store import (
    StoredIndex,
    StoreHandle,
    _fsync_dir,
    _read_header,
    _read_store,
    _write_store,
    open_index,
)

#: schema identifier for the partitioned store directory format (/4: the
#: fingerprint no longer hashes a schema string; the layout is /3's)
PARTITIONED_SCHEMA = "repro.index_store_partitioned/4"

PARTITIONS_DIR = "partitions"

#: decoded bytes of one row: what ``partition_mb`` is measured in
_ROW_BYTES = sum(np.dtype(dtype).itemsize for dtype in ROW_ARRAYS.values())


def _partition_filename(i: int) -> str:
    return f"p_{i:05d}.bin"


@dataclass(frozen=True)
class Section:
    """One stored array's slice of a partition blob."""

    name: str
    codec: str
    offset: int
    nbytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "codec": self.codec,
            "offset": self.offset,
            "nbytes": self.nbytes,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "Section":
        try:
            return cls(
                name=str(payload["name"]),
                codec=str(payload["codec"]),
                offset=int(payload["offset"]),
                nbytes=int(payload["nbytes"]),
            )
        except (KeyError, TypeError, ValueError):
            raise IndexStoreError(
                f"malformed partition section entry: {payload!r}"
            ) from None


@dataclass(frozen=True)
class PartitionEntry:
    """Always-resident directory entry for one mass partition."""

    name: str
    mass_lo: float
    mass_hi: float
    num_rows: int
    blob_bytes: int
    decoded_bytes: int
    sha256: str
    arrays: Dict[str, ArraySpec]
    sections: Tuple[Section, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "mass_lo": self.mass_lo,
            "mass_hi": self.mass_hi,
            "num_rows": self.num_rows,
            "blob_bytes": self.blob_bytes,
            "decoded_bytes": self.decoded_bytes,
            "sha256": self.sha256,
            "arrays": {name: spec.to_dict() for name, spec in self.arrays.items()},
            "sections": [s.to_dict() for s in self.sections],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "PartitionEntry":
        try:
            entry = cls(
                name=str(payload["name"]),
                mass_lo=float(payload["mass_lo"]),
                mass_hi=float(payload["mass_hi"]),
                num_rows=int(payload["num_rows"]),
                blob_bytes=int(payload["blob_bytes"]),
                decoded_bytes=int(payload["decoded_bytes"]),
                sha256=str(payload["sha256"]),
                arrays={
                    name: ArraySpec.from_dict(spec, name)
                    for name, spec in payload["arrays"].items()
                },
                sections=tuple(
                    Section.from_dict(s) for s in payload["sections"]
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            if isinstance(exc, IndexStoreError):
                raise
            raise IndexStoreError(
                f"malformed partition directory entry: {exc!r}"
            ) from None
        expect = {
            name: ArraySpec(dtype, (entry.num_rows,))
            for name, dtype in ROW_ARRAYS.items()
        }
        if entry.arrays != expect:
            raise IndexStoreError(
                f"partition directory entry {entry.name!r} does not describe "
                f"the {len(ROW_ARRAYS)} row columns of its {entry.num_rows} "
                f"rows: {payload['arrays']!r}"
            )
        return entry


def _encode_blob(arrays: Dict[str, np.ndarray]) -> Tuple[bytes, Tuple[Section, ...]]:
    """Concatenate per-array compressed sections; returns (blob, table)."""
    parts: List[bytes] = []
    sections: List[Section] = []
    offset = 0
    for name, arr in arrays.items():
        codec = codec_for(arr)
        buf = encode_array(arr, codec)
        sections.append(Section(name, codec, offset, len(buf)))
        parts.append(buf)
        offset += len(buf)
    return b"".join(parts), tuple(sections)


def partition_boundaries(num_rows: int, partition_bytes: int) -> List[Tuple[int, int]]:
    """Cut ``num_rows`` mass-sorted rows into contiguous slices of at
    most ``partition_bytes`` decoded bytes (at least one row each)."""
    step = max(partition_bytes // _ROW_BYTES, 1)
    return [(lo, min(lo + step, num_rows)) for lo in range(0, num_rows, step)]


@dataclass
class PartitionedIndex(StoreHandle):
    """Handle to an opened partitioned store: resident directory only.

    Opening reads ``header.json`` alone; no blob is touched until
    :meth:`read_partition_blob` / :meth:`decode_partition`.  The handle
    is what stays resident for a whole streaming pass.
    """

    SCHEMA = PARTITIONED_SCHEMA
    REBUILD = "repro index build --partition-mb ..."
    SOURCE = "streamed"

    partitions: List[PartitionEntry] = field(default_factory=list)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def blob_bytes(self) -> int:
        """Total compressed partition bytes on disk."""
        return int(sum(p.blob_bytes for p in self.partitions))

    @property
    def decoded_bytes(self) -> int:
        """Total bytes of every partition's decoded arrays."""
        return int(sum(p.decoded_bytes for p in self.partitions))

    @property
    def max_partition_bytes(self) -> int:
        """Largest single partition's blob + decoded footprint.

        The unit the streaming memory budget reasons in: a double-
        buffered pass holds at most two of these at once.
        """
        return max(
            (p.blob_bytes + p.decoded_bytes for p in self.partitions), default=0
        )

    @property
    def num_rows(self) -> int:
        return int(sum(p.num_rows for p in self.partitions))

    # -- partition reads --------------------------------------------------

    def read_partition_blob(self, i: int) -> bytes:
        """Read + checksum partition ``i``'s raw blob (no decode).

        The I/O half of a partition visit — what the prefetch thread
        runs.  Truncation or corruption raises
        :class:`~repro.errors.IndexStoreError` here, before any decode.
        """
        entry = self._entry(i)
        blob_path = self.path / PARTITIONS_DIR / entry.name
        what = f"partition blob {i}"
        try:
            with open(blob_path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            raise IndexStoreError(
                f"partitioned store at {self.path} is missing {what} "
                f"{blob_path.name}"
            ) from None
        except OSError as exc:
            raise IndexStoreError(
                f"partitioned store {what} {blob_path} is unreadable: {exc}"
            ) from None
        if len(blob) != entry.blob_bytes:
            raise IndexStoreError(
                f"partitioned store {what} {blob_path} is truncated: "
                f"{len(blob)} bytes on disk, directory says {entry.blob_bytes}"
            )
        digest = hashlib.sha256(blob).hexdigest()
        if digest != entry.sha256:
            raise IndexStoreError(
                f"partitioned store {what} {blob_path} is corrupt: SHA-256 "
                f"{digest[:12]}... does not match directory entry "
                f"{entry.sha256[:12]}..."
            )
        return blob

    def decode_partition_blob(self, i: int, blob: bytes) -> CandidateSpans:
        """Decode a checksummed blob into the partition's rows: read-only
        :class:`~repro.candidates.mass_index.CandidateSpans` of the
        store's database, mass-sorted."""
        entry = self._entry(i)
        cols: Dict[str, np.ndarray] = {}
        for section in entry.sections:
            spec = entry.arrays.get(section.name)
            if spec is None:
                raise IndexStoreError(
                    f"partition {i} section {section.name!r} has no manifest "
                    f"entry"
                )
            buf = blob[section.offset : section.offset + section.nbytes]
            col = cols[section.name] = decode_array(
                buf, section.codec, spec.dtype, spec.shape
            )
            col.flags.writeable = False
        missing = [name for name in ROW_ARRAYS if name not in cols]
        if missing:
            raise IndexStoreError(
                f"partition {i} of store {self.path} does not match its "
                f"manifest: missing columns {missing}"
            )
        mod_delta = np.zeros(entry.num_rows, dtype=np.float64)
        mod_delta.flags.writeable = False
        return CandidateSpans(
            cols["row_seq"], cols["row_start"], cols["row_stop"], cols["row_mass"],
            mod_delta,
        )

    def decode_partition(self, i: int) -> CandidateSpans:
        """Read + decode partition ``i`` in one step (no prefetch)."""
        return self.decode_partition_blob(i, self.read_partition_blob(i))

    def _entry(self, i: int) -> PartitionEntry:
        if not 0 <= i < self.num_partitions:
            raise IndexStoreError(
                f"partitioned store at {self.path} has {self.num_partitions} "
                f"partitions; partition {i} does not exist"
            )
        return self.partitions[i]

    # -- reporting ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        return dict(
            super().describe(),
            num_partitions=self.num_partitions,
            num_rows=self.num_rows,
            blob_bytes=self.blob_bytes,
            decoded_bytes=self.decoded_bytes,
            max_partition_bytes=self.max_partition_bytes,
            partitions=[
                {
                    "name": p.name,
                    "mass_lo": p.mass_lo,
                    "mass_hi": p.mass_hi,
                    "num_rows": p.num_rows,
                    "blob_bytes": p.blob_bytes,
                    "decoded_bytes": p.decoded_bytes,
                }
                for p in self.partitions
            ],
        )


def save_partitioned_index(
    db: ProteinDatabase,
    path: Union[str, Path],
    *,
    partition_mb: float = 32.0,
    overwrite: bool = False,
) -> PartitionedIndex:
    """Build ``db``'s partitioned out-of-core store under ``path``.

    Enumerates the mass-sorted span set once, cuts it into
    mass-contiguous partitions of ``partition_mb`` MiB decoded size, and
    writes the directory format described in the module docstring.  The
    write is atomic (tmp-sibling assembly + rename) and durable
    (per-file and directory fsync).
    """
    if partition_mb <= 0:
        raise IndexStoreError(
            f"partition_mb must be > 0, got {partition_mb}"
        )
    spans = mass_sorted_spans(db)
    columns = dict(
        zip(ROW_ARRAYS, (spans.seq_index, spans.start, spans.stop, spans.mass))
    )
    slices = partition_boundaries(len(spans), int(partition_mb * (1 << 20)))
    metrics = get_metrics()

    def write_partitions(tmp: Path) -> Dict[str, Any]:
        part_dir = tmp / PARTITIONS_DIR
        part_dir.mkdir()
        entries: List[PartitionEntry] = []
        for i, (lo, hi) in enumerate(slices):
            with metrics.span(
                "partition.build", category="store", partition=i, rows=hi - lo
            ):
                arrays = {
                    name: np.ascontiguousarray(col[lo:hi], dtype=ROW_ARRAYS[name])
                    for name, col in columns.items()
                }
                blob, sections = _encode_blob(arrays)
            name = _partition_filename(i)
            with open(part_dir / name, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            entries.append(
                PartitionEntry(
                    name=name,
                    mass_lo=float(spans.mass[lo]),
                    mass_hi=float(spans.mass[hi - 1]),
                    num_rows=hi - lo,
                    blob_bytes=len(blob),
                    decoded_bytes=sum(a.nbytes for a in arrays.values()),
                    sha256=hashlib.sha256(blob).hexdigest(),
                    arrays={
                        name: ArraySpec(str(a.dtype), tuple(a.shape))
                        for name, a in arrays.items()
                    },
                    sections=sections,
                )
            )
        _fsync_dir(part_dir)
        return {"partitions": [entry.to_dict() for entry in entries]}

    build = {"partition_mb": float(partition_mb)}
    _write_store(
        path, db, build, PARTITIONED_SCHEMA, write_partitions, overwrite=overwrite
    )
    return open_partitioned_index(path)


def open_partitioned_index(path: Union[str, Path]) -> PartitionedIndex:
    """Open and header-validate a partitioned store directory.

    Cheap: reads only ``header.json`` (the partition directory); no
    blob or database buffer is touched until a partition is streamed.
    """
    return _read_store(
        path,
        PartitionedIndex,
        lambda header: {
            "partitions": [PartitionEntry.from_dict(e) for e in header["partitions"]]
        },
    )


def open_any_index(
    path: Union[str, Path]
) -> Union[StoredIndex, PartitionedIndex]:
    """Open a store directory of either schema by dispatching on its header.

    The single entry point CLI / engines / service use when the store
    flavor is the user's choice: resident stores
    (``repro.index_store/*``) come back as :class:`StoredIndex`,
    partitioned stores as :class:`PartitionedIndex`.
    """
    path = Path(path)
    schema = _read_header(path).get("schema")
    if isinstance(schema, str) and schema.startswith(
        "repro.index_store_partitioned/"
    ):
        return open_partitioned_index(path)
    return open_index(path)


@dataclass
class StreamStats:
    """Work and overlap counters from one streaming pass."""

    partitions: int = 0
    bytes_read: int = 0
    bytes_decoded: int = 0
    prefetch_hits: int = 0
    prefetch_stalls: int = 0
    io_seconds: float = 0.0
    decode_seconds: float = 0.0
    stall_seconds: float = 0.0

    def merge(self, other: "StreamStats") -> None:
        self.partitions += other.partitions
        self.bytes_read += other.bytes_read
        self.bytes_decoded += other.bytes_decoded
        self.prefetch_hits += other.prefetch_hits
        self.prefetch_stalls += other.prefetch_stalls
        self.io_seconds += other.io_seconds
        self.decode_seconds += other.decode_seconds
        self.stall_seconds += other.stall_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "partitions": self.partitions,
            "bytes_read": self.bytes_read,
            "bytes_decoded": self.bytes_decoded,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_stalls": self.prefetch_stalls,
            "io_seconds": self.io_seconds,
            "decode_seconds": self.decode_seconds,
            "stall_seconds": self.stall_seconds,
        }


@dataclass
class StreamedPartition:
    """One decoded partition yielded by :class:`StreamingIndexReader`."""

    pid: int
    entry: PartitionEntry
    spans: CandidateSpans


class StreamingIndexReader:
    """Iterate a store's partitions with background read-ahead.

    A background thread reads (and checksums) the *next* partition's
    blob while the caller decodes and scores the current one — a double
    buffer of two partitions, which is all the paper's overlap argument
    needs when queries visit each partition exactly once in mass order.

    ``memory_budget_mb`` bounds the bytes the pass may hold (current
    decoded arrays + prefetched blob).  A budget smaller than two
    partitions degrades gracefully to serial reads (every visit stalls);
    a budget smaller than *one* partition is refused up front with
    :class:`~repro.errors.IndexStoreError` — the store must be rebuilt
    with a smaller ``--partition-mb``.

    I/O failures in the prefetch thread (truncated blob, checksum
    mismatch) are re-raised on the consuming thread at the partition
    they struck, typed, so a mid-stream store outage surfaces exactly
    like a mid-stream resident read error would.
    """

    def __init__(
        self,
        store: PartitionedIndex,
        partition_ids: Optional[Sequence[int]] = None,
        *,
        memory_budget_mb: Optional[float] = None,
    ):
        self.store = store
        self.ids = (
            list(range(store.num_partitions))
            if partition_ids is None
            else [int(i) for i in partition_ids]
        )
        for pid in self.ids:
            store._entry(pid)  # typed range check up front
        self.stats = StreamStats()
        self._budget = (
            int(memory_budget_mb * (1 << 20))
            if memory_budget_mb is not None
            else None
        )
        if self._budget is not None and self.ids:
            worst = max(self._cost(pid) for pid in self.ids)
            if worst > self._budget:
                raise IndexStoreError(
                    f"streaming memory budget {self._budget} B cannot hold "
                    f"partition of {worst} B; rebuild the store with a "
                    f"smaller --partition-mb or raise the budget"
                )
        self._queue: "queue.Queue" = queue.Queue(maxsize=1)
        self._held = threading.Semaphore(2)  # current + prefetched
        self._resident = 0
        self._resident_lock = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        if self.ids:
            self._thread = threading.Thread(
                target=self._prefetch_loop, name="stream-prefetch", daemon=True
            )
            self._thread.start()

    def _cost(self, pid: int) -> int:
        entry = self.store.partitions[pid]
        return entry.blob_bytes + entry.decoded_bytes

    def _reserve(self, pid: int) -> None:
        if self._budget is None:
            return
        cost = self._cost(pid)
        with self._resident_lock:
            while self._resident + cost > self._budget:
                self._resident_lock.wait()
            self._resident += cost

    def _release(self, pid: int) -> None:
        if self._budget is None:
            return
        with self._resident_lock:
            self._resident -= self._cost(pid)
            self._resident_lock.notify_all()

    def _prefetch_loop(self) -> None:
        for pid in self.ids:
            self._held.acquire()
            self._reserve(pid)
            t0 = time.perf_counter()
            try:
                blob = self.store.read_partition_blob(pid)
            except BaseException as exc:  # re-raised on the consumer side
                self._queue.put((pid, None, exc, 0.0))
                return
            self._queue.put((pid, blob, None, time.perf_counter() - t0))
        self._queue.put((None, None, None, 0.0))

    def __iter__(self) -> Iterator[StreamedPartition]:
        if not self.ids:
            return
        metrics = get_metrics()
        prev: Optional[int] = None
        while True:
            # the *previous* partition's arrays are dead once the caller
            # asks for the next one; release its budget before blocking
            # on the queue — under a tight budget the prefetcher may be
            # waiting on exactly this release to read the next blob
            if prev is not None:
                self._held.release()
                self._release(prev)
                prev = None
            if self._queue.empty():
                self.stats.prefetch_stalls += 1
                t0 = time.perf_counter()
                with metrics.span("stream.stall", category="stream"):
                    item = self._queue.get()
                self.stats.stall_seconds += time.perf_counter() - t0
            else:
                self.stats.prefetch_hits += 1
                item = self._queue.get()
            pid, blob, error, io_seconds = item
            if pid is None:
                return
            if error is not None:
                raise error
            prev = pid
            yield self._decode(pid, blob, io_seconds, metrics)

    def _decode(
        self, pid: int, blob: bytes, io_seconds: float, metrics
    ) -> StreamedPartition:
        """Decode one read blob and account for the visit."""
        entry = self.store.partitions[pid]
        self.stats.io_seconds += io_seconds
        self.stats.bytes_read += len(blob)
        t0 = time.perf_counter()
        with metrics.span(
            "stream.decode",
            category="stream",
            partition=pid,
            blob_bytes=entry.blob_bytes,
        ):
            spans = self.store.decode_partition_blob(pid, blob)
        self.stats.decode_seconds += time.perf_counter() - t0
        self.stats.bytes_decoded += entry.decoded_bytes
        self.stats.partitions += 1
        metrics.count("stream.partitions")
        metrics.count("stream.bytes_read", entry.blob_bytes)
        metrics.count("stream.bytes_decoded", entry.decoded_bytes)
        return StreamedPartition(pid=pid, entry=entry, spans=spans)

    def close(self) -> None:
        """Drain the prefetch thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        # unblock the producer whatever it is waiting on, then drain
        with self._resident_lock:
            self._resident = -(1 << 62)
            self._resident_lock.notify_all()
        self._held.release()
        self._held.release()
        while thread.is_alive():
            try:
                self._queue.get_nowait()
            except queue.Empty:
                time.sleep(0.001)
        metrics = get_metrics()
        metrics.count("stream.prefetch_hits", self.stats.prefetch_hits)
        metrics.count("stream.prefetch_stalls", self.stats.prefetch_stalls)

    def __enter__(self) -> "StreamingIndexReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
