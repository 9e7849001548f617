"""Byte-balanced database partitioning and query distribution.

Algorithm A, step A1: "the loading step loads the database sequence file
in parallel such that processor P_i receives roughly the i-th N/p byte
chunk of the file.  Care is taken to ensure sequences at the boundaries
are fully read.  ...  The query file is read similarly, such that each
P_i receives roughly m/p queries."

Partitioning is by *residue bytes*, not sequence count, so shards stay
balanced even when sequence lengths vary; each sequence lands in exactly
one shard (the one containing its first byte), reproducing the paper's
boundary rule.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.spectra.spectrum import Spectrum


def partition_bounds(offsets: np.ndarray, p: int) -> np.ndarray:
    """Sequence-index split points for ``p`` byte-balanced shards.

    Returns an array ``bounds`` of length ``p + 1`` with ``bounds[0] == 0``
    and ``bounds[p] == n``; shard ``i`` is sequences
    ``bounds[i]:bounds[i + 1]``.  A sequence belongs to chunk ``i`` when
    its first byte falls in ``[i * N / p, (i + 1) * N / p)``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = len(offsets) - 1
    total = int(offsets[-1])
    targets = (np.arange(p + 1, dtype=np.float64) * total / p).astype(np.int64)
    # first sequence whose start byte >= target
    bounds = np.searchsorted(offsets[:-1], targets, side="left")
    bounds[0] = 0
    bounds[-1] = n
    return bounds.astype(np.int64)


def partition_database(database: ProteinDatabase, p: int) -> List[ProteinDatabase]:
    """Split a database into ``p`` byte-balanced shards (possibly empty).

    Concatenating the shards in rank order reproduces the database
    exactly — no sequence is lost, duplicated, or truncated at chunk
    boundaries.
    """
    bounds = partition_bounds(database.offsets, p)
    return [database.slice_range(int(bounds[i]), int(bounds[i + 1])) for i in range(p)]


def partition_queries(queries: Sequence[Spectrum], p: int) -> List[List[Spectrum]]:
    """Distribute queries in contiguous blocks of ~m/p, as the paper loads them."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    m = len(queries)
    bounds = [(m * i) // p for i in range(p + 1)]
    return [list(queries[bounds[i] : bounds[i + 1]]) for i in range(p)]


def partition_queries_by_mass(
    queries: Sequence[Spectrum], p: int
) -> List[List[Spectrum]]:
    """Cut the parent-mass-sorted query list into ``p`` contiguous blocks.

    Algorithm B's decomposition: sort by parent m/z first, *then* deal
    contiguous blocks of ~m/p, so each block is one mass range and only
    touches the slice of the database its own windows cover.  The sort is
    stable; a cut between two queries with overlapping windows costs the
    candidate-major sweep at most one extra cohort, so ``p`` blocks form
    at most ``p - 1`` more cohorts than the unblocked sweep.
    """
    return partition_queries(sorted(queries, key=lambda q: q.parent_mass), p)


def effective_query_blocks(query_blocks: int, num_workers: int, num_queries: int) -> int:
    """Query blocks in the multiproc engine's task grid (one task each).

    ``query_blocks`` is a floor: it is raised to at least one task per
    worker (a grid with fewer tasks than workers leaves processes idle),
    then capped at one query per block.
    """
    if query_blocks < 1:
        raise ValueError(f"query_blocks must be >= 1, got {query_blocks}")
    return max(1, min(max(query_blocks, num_workers), num_queries))
