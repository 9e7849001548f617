"""Persistent, memory-mappable storage for a database's row table.

Build once with :func:`save_index` (the row table and its posting
lists, mapped whole) or :func:`save_partitioned_index` (the row table
and a partition directory, streamed under a memory budget), or with
``repro index build``; then any number of searches — in any number of
processes — :func:`open_index` the directory and score bitwise
identically to scoring the candidates directly.  See
``docs/index_persistence.md`` for the on-disk format and the
fingerprint contract.
"""

from repro.store.index_store import (
    HEADER_NAME,
    STORE_SCHEMA,
    LoadedShard,
    StoredIndex,
    compute_fingerprint,
    open_any_index,
    open_index,
    save_index,
)
from repro.store.partitioned import (
    StreamingIndexReader,
    StreamStats,
    save_partitioned_index,
)

__all__ = [
    "HEADER_NAME",
    "STORE_SCHEMA",
    "LoadedShard",
    "StoredIndex",
    "StreamStats",
    "StreamingIndexReader",
    "compute_fingerprint",
    "open_any_index",
    "open_index",
    "save_index",
    "save_partitioned_index",
]
