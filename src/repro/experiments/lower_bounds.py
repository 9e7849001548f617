"""Communication lower bounds: the analytic overlap projection.

The experiments aggregate judges the simulated engines' makespans
against the theoretical floor, not just against each other.  The floor
comes from the paper's own complexity accounting for the Algorithm A
rotation — ``O(lambda*p + mu*N)`` communication against
``O((N+m)/p + m/p*r*rho)`` compute — evaluated analytically at large
simulated rank counts.

Why analytic: the event-driven simulator is O(p^2) in rotation steps
(p=512 costs ~80 s of host time, p=1024 ~500 s — measured), which is
far too slow for a per-run report.  The projection below reproduces the
same per-step charges the simulated rank program makes
(``core/algorithm_a.py``): per step, a rank computes
``iteration_overhead + scan(N/p) + eval/p^2 + overhead/p`` while the
next shard's one-sided fetch of ``N/p`` bytes is in flight; with
software RMA the step rendezvouses, so whatever wire time compute did
not cover becomes residual communication.

Reported per rank count:

* ``residual_to_compute`` — the paper's headline overlap metric
  (measured 0.36 +/- 0.11 on their testbed).
* ``overlap_efficiency`` — compute / (compute + residual): the fraction
  of the critical path doing useful work.
* ``comm_floor_s`` / ``compute_floor_s`` — the two terms of the
  lower-bound makespan ``max(compute/p, lambda*p + mu*N)``: no schedule
  can beat whichever is larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.candidates.generator import heaviest_parent_mass
from repro.core.config import SearchConfig
from repro.core.costmodel import CostModel
from repro.core.search import ShardSearcher
from repro.simmpi.network import NetworkModel

#: simulated rank counts projected when a caller names none (ROADMAP
#: item 1: "p = 128-1024 simulated ranks")
DEFAULT_PROJECTION_RANKS = (128, 512, 1024)


@dataclass(frozen=True)
class WorkloadProfile:
    """The workload quantities the projection reads, all exact."""

    num_queries: int
    db_sequences: int
    db_residues: int
    db_nbytes: int
    total_candidates: int
    relative_cost: float
    #: per-query candidate counts, in query order: rank-block skew exactly
    query_candidates: Tuple[int, ...]
    #: per-sequence residue lengths: the byte-balanced shard split
    seq_lengths: Tuple[int, ...]


def profile_workload(database, queries: Sequence, config: SearchConfig) -> WorkloadProfile:
    """Count the workload's candidates (vectorized, nothing timed)."""
    queries = list(queries)
    searcher = ShardSearcher(database, config, max_parent_mass=heaviest_parent_mass(queries))
    counts = searcher.count_each(queries)
    return WorkloadProfile(
        num_queries=len(queries),
        db_sequences=len(database),
        db_residues=int(database.total_residues),
        db_nbytes=int(database.nbytes),
        total_candidates=int(counts.sum()),
        relative_cost=config.make_scorer().relative_cost,
        query_candidates=tuple(int(c) for c in counts),
        seq_lengths=tuple(int(n) for n in database.lengths),
    )


def _rotation_skew_total(profile: WorkloadProfile, cost: CostModel, p: int) -> float:
    """Total per-rank arrival deficit over one full rotation.

    Every rotation step rendezvouses, so each step costs every rank the
    gap to the step's *slowest* rank.  Two dispersion sources feed that
    gap: uneven contiguous query blocks (``partition_queries`` deals
    ceil/floor m/p queries per rank) and uneven byte-balanced shards
    (a shard's candidate weight grows ~quadratically in sequence length,
    so equal-residue shards are not equal-work shards).  With the exact
    per-query candidate counts and sequence lengths from the profile the
    p x p step matrix is computed outright — rank r scores shard
    (r + t) mod p at step t — and the summed max-minus-mean deficit
    falls out exactly.  O(p^2) vectorized: ~8 MB at p = 1024.
    """
    import numpy as np

    m = max(profile.num_queries, 1)
    per_cand = cost.rho_base * profile.relative_cost + cost.tau_cost
    counts = np.asarray(profile.query_candidates, dtype=float)
    if counts.size == 0:
        # degenerate profile: only the ceil/floor block-size gap remains
        mean_cand = profile.total_candidates / m
        per_query_vt = mean_cand * per_cand / p + cost.query_overhead
        return per_query_vt * (math.ceil(m / p) - m / p) * p

    qb = np.array([(counts.size * i) // p for i in range(p + 1)], dtype=np.int64)
    csum = np.concatenate([[0.0], np.cumsum(counts)])
    block_cand = csum[qb[1:]] - csum[qb[:-1]]  # candidates per rank block
    block_size = np.diff(qb).astype(float)

    lengths = np.asarray(profile.seq_lengths, dtype=float)
    if lengths.size and lengths.sum() > 0:
        # reproduce the byte-balanced contiguous split, weight each
        # sequence by its ~L^2 span count, and normalize to fractions
        res = np.concatenate([[0.0], np.cumsum(lengths)])
        targets = res[-1] * np.arange(p + 1) / p
        sb = np.searchsorted(res, targets)
        wsum = np.concatenate([[0.0], np.cumsum(lengths * lengths)])
        shard_w = wsum[sb[1:]] - wsum[sb[:-1]]
        total_w = shard_w.sum()
        shard_frac = shard_w / total_w if total_w > 0 else np.full(p, 1.0 / p)
    else:
        shard_frac = np.full(p, 1.0 / p)

    steps = np.arange(p)
    shard_idx = (steps[:, None] + steps[None, :]) % p  # [step, rank]
    vt = (
        block_cand[None, :] * shard_frac[shard_idx] * per_cand
        + cost.query_overhead * block_size[None, :]
    )
    return float((vt.max(axis=1) - vt.mean(axis=1)).sum())


def _project_point(
    profile: WorkloadProfile,
    cost: CostModel,
    network: NetworkModel,
    p: int,
) -> Dict[str, Any]:
    """One rank count's overlap projection (homogeneous-rank model)."""
    # the simulated machine charges the paper's C-struct footprint, and
    # ships raw shard bytes over the rotation ring
    db_bytes = cost.database_bytes(profile.db_sequences, profile.db_residues)
    shard_bytes = db_bytes / p
    wire_bytes = profile.db_nbytes / p

    eval_vt = profile.total_candidates * (
        cost.rho_base * profile.relative_cost + cost.tau_cost
    )
    overhead_vt = cost.query_overhead * profile.num_queries

    # per rotation step: each rank holds ~m/p queries against one N/p
    # shard — 1/p^2 of the candidate work — and re-pays its block's
    # per-query bookkeeping every step (algorithm_a charges
    # query_processing_overhead per iteration), while the next shard's
    # fetch is in flight
    compute_step = (
        cost.iteration_overhead
        + cost.scan_time(wire_bytes)
        + eval_vt / (p * p)
        + overhead_vt / p
    )
    comm_step = network.transfer_time(int(wire_bytes))
    residual_step = max(comm_step - compute_step, 0.0)
    if network.software_rma and p > 1:
        # Per-step rendezvous: the dissemination barrier itself is
        # unmaskable, and so is compute *skew* — everyone waits for the
        # step's slowest rank (scheduler.py charges arrival deficit plus
        # barrier_time(p) as "wait").
        residual_step += (
            network.barrier_time(p) + _rotation_skew_total(profile, cost, p) / p
        )

    compute_total = compute_step * p
    comm_issued = comm_step * p
    residual_total = residual_step * p
    makespan = (
        cost.load_time(shard_bytes, profile.num_queries / p)
        + compute_total
        + residual_total
    )
    comm_floor = network.latency * p + network.byte_cost * profile.db_nbytes
    compute_floor = eval_vt / p
    return {
        "ranks": p,
        "compute_s": compute_total,
        "comm_issued_s": comm_issued,
        "residual_s": residual_total,
        "makespan_s": makespan,
        "residual_to_compute": residual_total / compute_total if compute_total else 0.0,
        "masking_effectiveness": 1.0 - residual_total / comm_issued
        if comm_issued
        else 1.0,
        "overlap_efficiency": compute_total / (compute_total + residual_total)
        if compute_total + residual_total
        else 1.0,
        "compute_fraction": compute_total / makespan if makespan else 0.0,
        "comm_fraction": residual_total / makespan if makespan else 0.0,
        "idle_fraction": max(
            1.0
            - (compute_total + residual_total) / makespan
            if makespan
            else 0.0,
            0.0,
        ),
        "comm_floor_s": comm_floor,
        "compute_floor_s": compute_floor,
        "floor_makespan_s": max(comm_floor, compute_floor),
    }


def overlap_projection(
    profile: WorkloadProfile,
    cost: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
    ranks: Sequence[int] = DEFAULT_PROJECTION_RANKS,
) -> Dict[str, Any]:
    """Overlap + lower-bound metrics at each simulated rank count.

    Uses the *paper-scaled* CostModel by default (the simulated
    machine's units), not the host-calibrated one: the floor is a
    property of the modeled cluster, and matching the event simulator's
    constants is what makes it comparable to a simulated run.
    """
    cost = cost if cost is not None else CostModel()
    network = network if network is not None else NetworkModel()
    return {
        "model": "algorithm_a rotation, LogGP"
        f"(lambda={network.latency:g}s, mu={network.byte_cost:g}s/B, "
        f"software_rma={network.software_rma})",
        "points": {
            str(p): _project_point(profile, cost, network, p) for p in ranks
        },
    }

