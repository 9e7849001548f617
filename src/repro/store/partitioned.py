"""Partitioned stores: the row table in checksummed ranges, streamed with read-ahead.

A store built by :func:`~repro.store.index_store.save_index` is mapped
whole, so peak memory grows with database size N.  A store built here
makes N memory-bound no longer: it holds the same raw row table
(:class:`~repro.candidates.mass_index.MassIndex`, every prefix/suffix
span of the database — already the product of Algorithm B's counting
sort) and, instead of posting lists, a *partition
directory* in its header: mass-contiguous row ranges small enough to
hold one (plus one read ahead) at a time.  A pass scores a partition's
rows directly, the way a search without a store scores its candidates:
the paper moves database shards past resident queries and never indexes
fragments, and neither does this store.

Each directory entry is a row range ``[lo, hi)``, its span-mass range
``[mass_lo, mass_hi]`` and one SHA-256 over the range's bytes in the
two row columns — a few hundred bytes per partition, the only part of
the store a streaming search keeps resident for the whole pass.  A
partition is two positioned reads
(:meth:`~repro.store.index_store.StoredIndex.read_partition`).  There is
no length envelope either: a protein's long prefixes and suffixes are
ordinary rows of high-mass partitions that a pass whose queries are
lighter never opens.  Union over partitions is the complete candidate
set, so streamed hits are bitwise identical to the direct search's.

Durability and validation are the store format's own
(:mod:`repro.store.index_store`): atomic tmp-sibling assembly with
per-file fsync, fingerprint validation against the caller's database,
and typed :class:`~repro.errors.IndexStoreError` on any truncated,
corrupt, or mismatched artifact — here including a row range whose
SHA-256 no longer matches its directory entry *mid-stream*.

:class:`StreamingIndexReader` drives the pass: a background prefetch
thread reads (and checksums) partition k+1 while the main thread scores
partition k — a double buffer of two partitions, optionally gated by a
memory-budget knob — and records ``stream.*`` metrics plus
prefetch-hit/stall spans in the obs layer.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.candidates.mass_index import MassIndex
from repro.chem.protein import ProteinDatabase
from repro.errors import IndexStoreError
from repro.obs.metrics import get_metrics
from repro.store.index_store import (
    ROW_BYTES,
    PartitionEntry,
    StoredIndex,
    _write_store,
    open_any_index,
    row_columns,
    rows_digest,
)


def partition_boundaries(num_rows: int, partition_bytes: int) -> List[Tuple[int, int]]:
    """Cut ``num_rows`` mass-sorted rows into contiguous slices of at
    most ``partition_bytes`` bytes of rows (at least one row each)."""
    step = max(partition_bytes // ROW_BYTES, 1)
    return [(lo, min(lo + step, num_rows)) for lo in range(0, num_rows, step)]


def save_partitioned_index(
    db: ProteinDatabase,
    path: Union[str, Path],
    *,
    partition_mb: float = 32.0,
    overwrite: bool = False,
) -> StoredIndex:
    """Build ``db``'s partitioned out-of-core store under ``path``.

    Writes the row table once, cuts it into mass-contiguous partitions of
    ``partition_mb`` MiB of rows, and records each one's row range, mass
    range and SHA-256 in the header's partition directory.  The write is
    atomic (tmp-sibling assembly + rename) and durable (per-file and
    directory fsync).
    """
    if partition_mb <= 0:
        raise IndexStoreError(f"partition_mb must be > 0, got {partition_mb}")

    def write_directory(index_dir: Path, rows: MassIndex) -> Dict[str, Any]:
        columns = row_columns(rows).values()
        return {
            "partitions": [
                asdict(
                    PartitionEntry(
                        lo, hi, float(rows.mass[lo]), float(rows.mass[hi - 1]),
                        rows_digest(col[lo:hi] for col in columns),
                    )
                )
                for lo, hi in partition_boundaries(len(rows), int(partition_mb * (1 << 20)))
            ]
        }

    build = {"partition_mb": float(partition_mb)}
    _write_store(path, db, build, write_directory, overwrite=overwrite)
    return open_any_index(path)


@dataclass
class StreamStats:
    """Work and overlap counters from one streaming pass."""

    partitions: int = 0
    bytes_read: int = 0
    prefetch_hits: int = 0
    prefetch_stalls: int = 0
    io_seconds: float = 0.0
    stall_seconds: float = 0.0

    def merge(self, other: "StreamStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class StreamedPartition:
    """One partition yielded by :class:`StreamingIndexReader`: its
    directory entry and its rows' ``mass`` and ``key`` columns."""

    pid: int
    entry: PartitionEntry
    mass: np.ndarray
    key: np.ndarray


class StreamingIndexReader:
    """Iterate a store's partitions with background read-ahead.

    A background thread reads (and checksums) the *next* partition's
    rows while the caller scores the current one — a double buffer of
    two partitions, which is all the paper's overlap argument needs when
    queries visit each partition exactly once in mass order.

    ``memory_budget_mb`` bounds the bytes of rows the pass may hold
    (current + read ahead).  A budget smaller than two partitions
    degrades gracefully to serial reads (every visit stalls); a budget
    smaller than *one* partition is refused up front with
    :class:`~repro.errors.IndexStoreError` — the store must be rebuilt
    with a smaller ``--partition-mb``.

    I/O failures in the prefetch thread (a truncated or missing row
    column, a checksum mismatch) are re-raised on the consuming thread
    at the partition they struck, typed, so a mid-stream store outage
    surfaces exactly like a mid-stream resident read error would.
    :meth:`close` stops the thread wherever the consumer left off.
    """

    def __init__(
        self,
        store: StoredIndex,
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
            if not 0 <= pid < store.num_partitions:
                raise IndexStoreError(
                    f"index store at {store.path} has {store.num_partitions} "
                    f"partitions; partition {pid} does not exist"
                )
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
        # unbounded: the two permits of _held are what bound the read-ahead
        self._queue: "queue.Queue" = queue.Queue()
        self._held = threading.Semaphore(2)  # current + prefetched
        self._resident = 0
        self._resident_lock = threading.Condition()
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        if self.ids:
            self._thread = threading.Thread(
                target=self._prefetch_loop, name="stream-prefetch", daemon=True
            )
            self._thread.start()

    def _cost(self, pid: int) -> int:
        return self.store.partitions[pid].nbytes

    def _reserve(self, pid: int) -> None:
        if self._budget is None:
            return
        cost = self._cost(pid)
        with self._resident_lock:
            while not self._stop and self._resident + cost > self._budget:
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
            if self._stop:
                return
            self._reserve(pid)
            if self._stop:
                return
            t0 = time.perf_counter()
            try:
                columns = self.store.read_partition(pid)
            except BaseException as exc:  # re-raised on the consumer side
                self._queue.put((pid, None, exc, 0.0))
                return
            self._queue.put((pid, columns, None, time.perf_counter() - t0))
        self._queue.put((None, None, None, 0.0))

    def __iter__(self) -> Iterator[StreamedPartition]:
        if not self.ids:
            return
        metrics = get_metrics()
        prev: Optional[int] = None
        while True:
            # the *previous* partition's rows are dead once the caller
            # asks for the next one; release its budget before blocking
            # on the queue — under a tight budget the prefetcher may be
            # waiting on exactly this release to read the next partition
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
            pid, columns, error, io_seconds = item
            if pid is None:
                return
            if error is not None:
                raise error
            entry = self.store.partitions[pid]
            self.stats.partitions += 1
            self.stats.bytes_read += entry.nbytes
            self.stats.io_seconds += io_seconds
            metrics.count("stream.partitions")
            metrics.count("stream.bytes_read", entry.nbytes)
            prev = pid
            yield StreamedPartition(pid, entry, *columns)

    def close(self) -> None:
        """Stop and join the prefetch thread (idempotent).

        Safe wherever the consumer stopped iterating: the thread checks
        the stop flag after every permit and budget wait, and one more
        permit (with a wake-up of the budget wait) lets it get there.
        """
        thread = self._thread
        if thread is None:
            return
        self._thread = None
        with self._resident_lock:
            self._stop = True
            self._resident_lock.notify_all()
        self._held.release()
        thread.join()
        metrics = get_metrics()
        metrics.count("stream.prefetch_hits", self.stats.prefetch_hits)
        metrics.count("stream.prefetch_stalls", self.stats.prefetch_stalls)

    def __enter__(self) -> "StreamingIndexReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
