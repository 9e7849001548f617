"""The plan grid: profile the workload, enumerate what can run, prune.

A :class:`CandidatePlan` is one way of running a search on the real
engines.  The grid is small on purpose: every knob whose values were
measured to tie (or to lose everywhere) is pinned to one value
(:data:`PINNED_KNOBS`, with the spread that justified the pin), which
leaves engine x source — {serial, multiproc at the host's width} x
{direct, streamed when a partitioned store was handed in}.  The planner
profiles the workload once (exact per-query candidate counts via the
vectorized counting kernels, the store's geometry from its directory)
and prunes plans that cannot run here — more workers than cores, a
footprint over the memory budget — each with a recorded reason.  It
ranks nothing: the survivors are timed (:func:`repro.tune.tuner.time_plans`).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SearchConfig
from repro.core.search import ShardSearcher

#: multiproc pool widths the grid considers; one wider than the host is
#: pruned with a reason rather than hidden
WORKER_CHOICES = (2, 4)

#: knobs the grid does not vary, each with the measurement that pinned
#: it (every plan of the old 30-plan grid through ``run_plan``, best of 3,
#: 2-vCPU host, 800 x 400 both scorers and again at 2000 x 2000)
PINNED_KNOBS: Tuple[Dict[str, Any], ...] = (
    {
        "knob": "sweep_cohort",
        "value": 64,
        "measured": "64 vs 256: serial 0.096 vs 0.094 s, multiproc 0.154 vs "
        "0.154 s, hyperscore 0.089 vs 0.083 s; 16 is 1.2-1.45x slower than "
        "64 everywhere",
    },
    {
        "knob": "query_blocks",
        "value": 4,
        "measured": "4 vs 1: direct 0.154/0.154 vs 0.160/0.164 s, streamed "
        "0.268-0.288 vs 0.344-0.347 s; at 2000 x 2000 0.723 vs 0.798 s and "
        "1.070 vs 1.522 s",
    },
    {
        "knob": "start_method",
        "value": "fork (spawn only where the platform has no fork)",
        "measured": "spawn 1.68-2.05 s where its fork twin is 0.15-0.35 s, "
        "18-22x the best plan",
    },
)


@dataclass(frozen=True)
class CandidatePlan:
    """One point of the plan grid."""

    engine: str = "serial"  #: "serial" or "multiproc"
    sweep_cohort: int = 64  #: pinned: the ``SearchConfig`` default
    stream: bool = False  #: streamed from the partitioned store
    num_workers: int = 1
    query_blocks: int = 1
    start_method: Optional[str] = None  #: multiproc only ("fork"/"spawn")
    memory_budget_mb: Optional[float] = None

    @property
    def label(self) -> str:
        parts = [self.engine]
        if self.engine == "multiproc":
            parts.append(f"w={self.num_workers}")
            parts.append(f"blocks={self.query_blocks}")
            if self.start_method:
                parts.append(self.start_method)
        parts.append("index" if self.stream else "direct")
        parts.append(f"sweep/{self.sweep_cohort}")
        if self.stream:
            parts.append("streamed")
        return ":".join(parts)

    def to_config(self, base: SearchConfig) -> SearchConfig:
        """The plan's knobs applied onto a base SearchConfig."""
        return dataclasses.replace(base, sweep_cohort=self.sweep_cohort)


@dataclass
class WorkloadProfile:
    """What the planner, the trial and the lower bounds know of a workload."""

    num_queries: int
    query_bytes: int
    db_sequences: int
    db_residues: int
    db_nbytes: int
    total_candidates: int
    relative_cost: float
    store: Optional[Dict[str, Any]] = None  #: partitioned-store geometry
    #: exact per-query candidate counts, in query order: the trial's
    #: regressor, and what lets the lower-bound projection compute
    #: rank-block skew exactly
    query_candidates: Tuple[int, ...] = ()
    #: per-sequence residue lengths — lets the projection reproduce the
    #: byte-balanced shard split and its per-step size dispersion
    seq_lengths: Tuple[int, ...] = ()


def profile_workload(
    database,
    queries: Sequence,
    config: SearchConfig,
    *,
    store=None,
) -> WorkloadProfile:
    """Measure the workload quantities planning and timing consume.

    All exact and cheap: candidate counts via the vectorized counting
    kernels and — with a partitioned ``store`` — its geometry from the
    directory.
    """
    query_counts = ShardSearcher(database, config).count_each(list(queries))
    total_candidates = int(query_counts.sum())

    store_info = None
    if store is not None:
        store_info = {
            "row_bytes": int(store.row_bytes),
            "num_partitions": int(store.num_partitions),
            "max_partition_bytes": int(store.max_partition_bytes),
        }

    return WorkloadProfile(
        num_queries=len(queries),
        query_bytes=int(sum(q.nbytes for q in queries)),
        db_sequences=len(database),
        db_residues=int(database.total_residues),
        db_nbytes=int(database.nbytes),
        total_candidates=total_candidates,
        relative_cost=config.make_scorer().relative_cost,
        query_candidates=tuple(int(c) for c in query_counts),
        seq_lengths=tuple(int(l) for l in database.lengths),
        store=store_info,
    )


def enumerate_plans(
    profile: WorkloadProfile,
    *,
    memory_budget_mb: Optional[float] = None,
) -> Tuple[List[CandidatePlan], List[Tuple[CandidatePlan, str]]]:
    """The feasible grid plus the pruned plans with their reasons.

    {serial, multiproc at each of :data:`WORKER_CHOICES`} x {direct,
    streamed}.  Feasibility is what can run on this host: a pool no wider
    than its cores, a store to stream from, and a memory fit on real
    footprints — a direct plan must hold database + queries inside the
    budget; a streamed plan only its two-partition double buffer.
    """
    cpus = os.cpu_count() or 1
    start_method = (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    budget = memory_budget_mb * 1024 * 1024 if memory_budget_mb is not None else None

    def infeasible(plan: CandidatePlan) -> Optional[str]:
        if plan.num_workers > cpus:
            return (
                f"{plan.num_workers} workers oversubscribe a {cpus}-core "
                "host: they time-slice instead of parallelizing, and "
                "still pay the pool start"
            )
        if plan.stream:
            if profile.store is None:
                return "no partitioned store available to stream"
            # two partitions (the prefetch double buffer) plus the queries:
            # the out-of-core invariant, independent of database size
            need = 2 * profile.store["max_partition_bytes"] + profile.query_bytes
            if budget is not None and need > budget:
                return f"streamed double buffer ({need} B) exceeds budget"
        else:
            need = profile.db_nbytes + profile.query_bytes
            if budget is not None and need > budget:
                return f"resident footprint ({need} B) exceeds budget"
        return None

    engines = [("serial", 1, 1, None)] + [
        ("multiproc", workers, 4, start_method) for workers in WORKER_CHOICES
    ]
    plans: List[CandidatePlan] = []
    pruned: List[Tuple[CandidatePlan, str]] = []
    for engine, workers, blocks, method in engines:
        for stream in (False, True):
            plan = CandidatePlan(
                engine=engine,
                stream=stream,
                num_workers=workers,
                query_blocks=blocks,
                start_method=method,
                memory_budget_mb=memory_budget_mb,
            )
            reason = infeasible(plan)
            if reason is None:
                plans.append(plan)
            else:
                pruned.append((plan, reason))
    return plans, pruned
