"""Persistent, memory-mappable storage for built fragment indexes.

Build once with :func:`save_index` (or ``repro index build``), then any
number of searches — in any number of processes — :func:`open_index`
the directory and serve scores from read-only ``np.memmap`` views that
are bitwise identical to scoring the candidates directly.  See
``docs/index_persistence.md`` for the on-disk format and the
fingerprint contract.
"""

from repro.store.index_store import (
    HEADER_NAME,
    STORE_SCHEMA,
    LoadedShard,
    StoredIndex,
    compute_fingerprint,
    open_index,
    save_index,
)
from repro.store.partitioned import (
    PARTITIONED_SCHEMA,
    PartitionedIndex,
    StreamingIndexReader,
    StreamStats,
    open_any_index,
    open_partitioned_index,
    save_partitioned_index,
)

__all__ = [
    "HEADER_NAME",
    "PARTITIONED_SCHEMA",
    "STORE_SCHEMA",
    "LoadedShard",
    "PartitionedIndex",
    "StoredIndex",
    "StreamStats",
    "StreamingIndexReader",
    "compute_fingerprint",
    "open_any_index",
    "open_index",
    "open_partitioned_index",
    "save_index",
    "save_partitioned_index",
]
