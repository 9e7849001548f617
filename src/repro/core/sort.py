"""Parallel counting sort of the database by parent m/z (Algorithm B, step B2).

Follows the paper's two-step scheme:

  S1. "Each processor computes the parent m/z value of each sequence in
      D_i.  The processors then compute the global maximum of the m/z
      values (m/z_max) using the MPI_Allreduce primitive."
  S2. "Each processor creates a local 'count' array of size m/z_max in
      which it records the frequency occurrence of each m/z value in
      D_i.  Subsequently, using the MPI_Allreduce primitive on the local
      count arrays, the processors compute a global count array, which
      they use as a reference to redistribute the sequences in D_i.
      Sequences with the same m/z are sent to the same processor, and
      the sum of the lengths of the sequences resulting in each
      processor is O(N/p).  This data exchange is implemented using the
      MPI_Alltoallv primitive."

Counting sort is applicable because integer parent m/z keys are bounded
by [1, 300000] (:data:`repro.constants.MZ_KEY_MAX`).  The count array is
residue-length weighted so the redistribution pivots balance *residues*
(the O(N/p) guarantee), and all ranks derive identical pivots from the
identical global array.  This is the step whose cost grows with p and
eventually sinks Algorithm B in the paper's Table IV.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.core.costmodel import CostModel
from repro.simmpi.comm import SimComm


def counting_sort_pivots(global_weights: np.ndarray, p: int) -> np.ndarray:
    """Highest key assigned to each rank, from the global count array.

    ``global_weights[k]`` is the total residue length of sequences with
    integer key ``k``.  Returns ``hi_key`` of length ``p`` (inclusive,
    non-decreasing, last entry = key-space max); rank ``j`` owns keys in
    ``(hi_key[j-1], hi_key[j]]``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    cumulative = np.cumsum(global_weights, dtype=np.float64)
    total = cumulative[-1] if len(cumulative) else 0.0
    targets = np.arange(1, p + 1, dtype=np.float64) * (total / p)
    hi = np.searchsorted(cumulative, targets, side="left")
    hi = np.minimum(hi, len(global_weights) - 1)
    hi[-1] = len(global_weights) - 1
    return hi.astype(np.int64)


def destination_of_keys(keys: np.ndarray, hi_key: np.ndarray) -> np.ndarray:
    """Owning rank of each key under the pivots (same key -> same rank)."""
    return np.searchsorted(hi_key, keys, side="left").astype(np.int64)


def parallel_counting_sort(
    comm: SimComm,
    shard: ProteinDatabase,
    cost: CostModel,
) -> Tuple[ProteinDatabase, np.ndarray, np.ndarray]:
    """Redistribute + locally sort the database by parent m/z key.

    Runs inside a rank program (``yield from``).  Returns
    ``(sorted_shard, hi_key, max_masses)`` where ``sorted_shard`` is this
    rank's O(N/p) slice of the globally sorted database, ``hi_key`` are
    the key pivots (identical on every rank) and ``max_masses[t]`` is the
    true maximum parent mass held by rank ``t`` after sorting (-inf for
    an empty rank) — the information Algorithm B's sender groups consult.
    """
    p = comm.size
    keys = shard.parent_mz_keys()
    lengths = shard.lengths.astype(np.float64)
    # computing parent m/z of every sequence is one pass over the shard
    comm.compute(cost.scan_time(shard.nbytes), detail="B2 m/z keys")

    local_max = int(keys.max()) if len(keys) else 0
    mz_max = int((yield comm.allreduce_op(local_max, "max", nbytes=8)))
    key_space = mz_max + 1

    local_counts = np.bincount(keys, weights=lengths, minlength=key_space)
    comm.compute(cost.local_sort_time(len(shard), key_space), detail="B2 local counts")
    global_counts = yield comm.allreduce_op(
        local_counts, "sum", nbytes=int(local_counts.nbytes)
    )
    # software cost of the naive (linear) count-array reduction
    comm.compute(cost.count_reduce_time(p, key_space), detail="B2 count reduce")

    hi_key = counting_sort_pivots(global_counts, p)
    dest = destination_of_keys(keys, hi_key)
    payloads: List[Tuple[ProteinDatabase, int]] = []
    for t in range(p):
        subset = shard.subset(np.nonzero(dest == t)[0])
        payloads.append((subset, cost.shard_bytes(subset)))
    comm.compute(cost.local_sort_time(len(shard), 0), detail="B2 scatter")

    parts = yield comm.alltoallv_op(payloads)
    merged = ProteinDatabase.concat(list(parts))
    sorted_shard = merged.subset(np.argsort(merged.parent_mz_keys(), kind="stable"))
    comm.compute(cost.local_sort_time(len(merged), 0), detail="B2 local sort")

    # Publish each rank's true maximum parent mass so query processing can
    # compute exact sender groups (the paper's (begin_i, end_i) tuples).
    local_vec = np.zeros(p)
    local_vec[comm.rank] = (
        float(sorted_shard.parent_masses().max()) if len(sorted_shard) else -np.inf
    )
    # -inf + 0 stays -inf under sum only if empty ranks contribute -inf once;
    # use max-reduction with -inf padding instead, which is exact.
    pad = np.full(p, -np.inf)
    pad[comm.rank] = local_vec[comm.rank]
    max_masses = yield comm.allreduce_op(pad, "max", nbytes=int(pad.nbytes))

    return sorted_shard, hi_key, max_masses
