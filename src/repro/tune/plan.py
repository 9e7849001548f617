"""Configuration search: enumerate the knob grid, predict, pick.

A :class:`CandidatePlan` is one point of the feasible grid — engine x
cohort x blocks x start method x stream.  A plan scores directly out of
the resident database unless it streams from the partitioned store the
tuner was handed (posting probes if the scorer has a posting kernel, a
budgeted direct pass over the partitions' rows if not); no plan builds
an index.  The planner profiles the workload once (exact
candidate counts via the vectorized counting kernels, scoring-block
counts via the sweep's own planner, the store's geometry from its
directory), prunes plans whose footprint exceeds the memory budget, and
scores the survivors with a wall-clock makespan
predictor built from calibrated CostModel terms — the same per-phase
decomposition the engines themselves charge, in measured seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.costmodel import CostModel
from repro.core.partition import effective_query_blocks
from repro.core.search import ShardSearcher
from repro.candidates.mass_index import plan_sweep
from repro.index import FragmentIndex

def fits_in_budget(resident_bytes: int, budget_bytes: Optional[int]) -> bool:
    """Memory-fit check; ``budget_bytes=None`` means no cap (everything fits)."""
    if budget_bytes is None:
        return True
    return resident_bytes <= budget_bytes


def streamed_residency_bytes(max_partition_bytes: int, query_bytes: int = 0) -> int:
    """Peak memory of a streamed search: two partitions (the prefetch
    double buffer) plus the queries — the out-of-core invariant,
    independent of database size."""
    return 2 * max_partition_bytes + query_bytes


@dataclass(frozen=True)
class CandidatePlan:
    """One point of the knob grid."""

    engine: str = "serial"  #: "serial" or "multiproc"
    sweep_cohort: int = 64
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

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class WorkloadProfile:
    """Everything the predictor needs to know about one workload."""

    num_queries: int
    query_bytes: int
    db_sequences: int
    db_residues: int
    db_nbytes: int
    total_candidates: int
    relative_cost: float
    scorer_indexable: bool  #: the scorer has a posting kernel
    index_served_fraction: float  #: fraction of rows posting probes serve
    cohorts: Dict[int, int] = field(default_factory=dict)  #: cap -> count
    store: Optional[Dict[str, Any]] = None  #: partitioned-store geometry
    #: exact per-query candidate counts (count_each order) — lets the
    #: lower-bound projection compute rank-block skew exactly
    query_candidates: Tuple[int, ...] = ()
    #: per-sequence residue lengths — lets the projection reproduce the
    #: byte-balanced shard split and its per-step size dispersion
    seq_lengths: Tuple[int, ...] = ()

    @property
    def context_bytes(self) -> int:
        """Bytes the multiproc spawn initializer ships per worker."""
        return self.db_nbytes + self.query_bytes

    def cohorts_for(self, cap: int) -> int:
        """Scoring blocks a serial sweep forms at ``cap`` (nearest computed cap)."""
        if cap in self.cohorts:
            return self.cohorts[cap]
        if not self.cohorts:
            return self.num_queries
        nearest = min(self.cohorts, key=lambda c: abs(c - cap))
        return self.cohorts[nearest]


def profile_workload(
    database,
    queries: Sequence,
    config: SearchConfig,
    *,
    store=None,
) -> WorkloadProfile:
    """Measure the workload quantities the predictor consumes.

    All exact and cheap: candidate totals via the vectorized counting
    kernels, scoring-block counts via the sweep's planner on the real
    query masses, and — with a partitioned ``store`` — its geometry from
    the directory plus the share of candidates its postings serve: none
    under a scorer without a posting kernel, else all but the
    out-of-envelope spans of its overflow blob, counted per query window.
    """
    query_counts = ShardSearcher(database, config).count_each(list(queries))
    total_candidates = int(query_counts.sum())

    # the engine's own planner on the engine's own windows, so the count
    # is the ``ShardStats.sweep_cohorts`` a serial sweep reports
    masses = np.sort(np.array([q.parent_mass for q in queries], dtype=np.float64))
    lows, highs = masses - config.delta, masses + config.delta
    cohorts = {
        cap: plan_sweep(lows, highs, cap).num_blocks
        for cap in (4, 16, 64, 256, 1024)
    }

    scorer = config.make_scorer()
    scorer_indexable = FragmentIndex.serves(scorer)
    fraction = 0.0
    store_info = None
    if store is not None:
        # a streamed pass decodes the sections this scorer reads, not the
        # whole partition: its decode charge and double buffer follow
        lists = FragmentIndex.lists_for(scorer)
        store_info = {
            "blob_bytes": int(store.blob_bytes),
            "decoded_bytes": sum(p.decoded_nbytes(lists) for p in store.partitions),
            "num_partitions": int(store.num_partitions),
            "max_partition_bytes": int(store.max_visit_bytes(lists)),
        }
        if scorer_indexable and total_candidates:
            overflow = store.load_overflow().mass  # mass-sorted
            first = np.searchsorted(overflow, lows, side="left")
            last = np.searchsorted(overflow, highs, side="right")
            fraction = 1.0 - int((last - first).sum()) / total_candidates

    return WorkloadProfile(
        num_queries=len(queries),
        query_bytes=int(sum(q.nbytes for q in queries)),
        db_sequences=len(database),
        db_residues=int(database.total_residues),
        db_nbytes=int(database.nbytes),
        total_candidates=total_candidates,
        relative_cost=scorer.relative_cost,
        scorer_indexable=scorer_indexable,
        index_served_fraction=float(fraction),
        query_candidates=tuple(int(c) for c in query_counts),
        seq_lengths=tuple(int(l) for l in database.lengths),
        cohorts=cohorts,
        store=store_info,
    )


@dataclass
class PredictedMakespan:
    """Per-phase wall-second prediction for one plan."""

    total: float
    phases: Dict[str, float]

    def to_dict(self) -> Dict[str, Any]:
        return {"total_s": self.total, "phases": dict(self.phases)}


def predict_makespan(
    plan: CandidatePlan, profile: WorkloadProfile, cost: CostModel
) -> PredictedMakespan:
    """Wall-clock makespan prediction from calibrated terms.

    The phase decomposition mirrors what the engines charge: candidate
    evaluation split into index-served and direct rows, per-query and
    per-block sweep overhead, streamed decode + exposed I/O, and — for
    multiproc — pool spin-up, context transport, and task dispatch.
    """
    rho = cost.rho_base * profile.relative_cost
    tau = cost.tau_cost
    m = profile.num_queries
    workers = max(plan.num_workers, 1) if plan.engine == "multiproc" else 1
    # wall-clock parallelism is bounded by the cores actually present:
    # extra workers on an oversubscribed host just time-slice, so CPU
    # work divides by the *effective* width, not the worker count
    eff = min(workers, os_cpu_count())

    # the multiproc engine's task grid: a partition range per worker
    # when streaming, the whole database as one shard when scoring
    # directly — then query blocks, floored so that every worker has a
    # task
    num_shards = workers if plan.stream else 1
    blocks = effective_query_blocks(max(plan.query_blocks, 1), num_shards, workers, m)
    # a streamed pass probes postings for the share they serve (none
    # under a posting-less scorer) and scores the rest directly
    index_rows = (
        profile.total_candidates * profile.index_served_fraction
        if plan.stream
        else 0.0
    )
    direct_rows = profile.total_candidates - index_rows
    evaluation = direct_rows * (rho + tau) + index_rows * (
        rho * cost.index_probe_discount + tau
    )
    overhead = (
        cost.sweep_setup_per_query * m
        + cost.sweep_probe_per_cohort * profile.cohorts_for(plan.sweep_cohort)
    )

    # every query meets every shard, so per-query bookkeeping is paid
    # once per shard: once in all on the direct path, once per worker
    # where each worker streams its own partition range
    overhead_wall = overhead * num_shards / eff

    phases: Dict[str, float] = {}
    if plan.stream and profile.store is not None:
        decode = cost.partition_decode_time(profile.store["decoded_bytes"])
        io = cost.partition_io_time(
            profile.store["blob_bytes"], profile.store["num_partitions"]
        )
        phases["partition_decode"] = decode / eff
        phases["evaluation"] = evaluation / eff
        phases["query_overhead"] = overhead_wall
        phases["partition_exposed_io"] = cost.partition_exposed_io(
            io / eff, (decode + evaluation) / eff
        )
    else:
        phases["evaluation"] = evaluation / eff
        phases["query_overhead"] = overhead_wall

    if plan.engine == "multiproc":
        method = plan.start_method or "fork"
        phases["worker_spinup"] = cost.worker_spinup_time(workers, method)
        if method == "spawn":
            # the spawn initializer re-ships the whole worker context to
            # every fresh interpreter; fork inherits it copy-on-write
            phases["transport"] = cost.transport_time(profile.context_bytes) * workers
        phases["task_dispatch"] = cost.task_dispatch_time(num_shards * blocks)
    return PredictedMakespan(total=sum(phases.values()), phases=phases)


def enumerate_plans(
    profile: WorkloadProfile,
    *,
    engines: Sequence[str] = ("serial", "multiproc"),
    worker_choices: Optional[Sequence[int]] = None,
    query_blocks: Sequence[int] = (1, 4),
    sweep_cohorts: Sequence[int] = (16, 64, 256),
    start_methods: Optional[Sequence[str]] = None,
    memory_budget_mb: Optional[float] = None,
    allow_stream: bool = True,
) -> Tuple[List[CandidatePlan], List[Tuple[CandidatePlan, str]]]:
    """The feasible grid plus the pruned plans with their reasons.

    Feasibility is a memory fit on real footprints: a direct plan must
    hold database + queries inside the budget; a streamed plan only its
    two-partition double buffer
    (:func:`streamed_residency_bytes`).
    """
    import multiprocessing as mp

    if start_methods is None:
        available = mp.get_all_start_methods()
        start_methods = [m for m in ("fork", "spawn") if m in available]
    cpus = os_cpu_count()
    if worker_choices is None:
        worker_choices = sorted({min(2, cpus), min(4, cpus)} - {0, 1})
    budget_bytes = (
        int(memory_budget_mb * 1024 * 1024) if memory_budget_mb is not None else None
    )

    plans: List[CandidatePlan] = []
    pruned: List[Tuple[CandidatePlan, str]] = []

    def consider(plan: CandidatePlan) -> None:
        if plan.engine == "multiproc" and plan.num_workers > cpus:
            pruned.append(
                (
                    plan,
                    f"{plan.num_workers} workers oversubscribe a {cpus}-core "
                    "host: they time-slice instead of parallelizing, and "
                    "still pay spin-up plus per-worker query bookkeeping",
                )
            )
            return
        if plan.stream:
            if profile.store is None:
                pruned.append((plan, "no partitioned store available to stream"))
                return
            need = streamed_residency_bytes(
                profile.store["max_partition_bytes"], profile.query_bytes
            )
            if not fits_in_budget(need, budget_bytes):
                pruned.append(
                    (plan, f"streamed double buffer ({need} B) exceeds budget")
                )
                return
        else:
            need = profile.db_nbytes + profile.query_bytes
            if not fits_in_budget(need, budget_bytes):
                pruned.append(
                    (plan, f"resident footprint ({need} B) exceeds budget")
                )
                return
        plans.append(plan)

    for engine in engines:
        if engine == "serial":
            worker_opts = [(1, 1, None)]
        else:
            worker_opts = [
                (w, b, s)
                for w in worker_choices
                for b in query_blocks
                for s in start_methods
            ]
            if not worker_opts:
                continue
        for workers, blocks, method in worker_opts:
            for stream in (False, True) if allow_stream else (False,):
                for cap in sweep_cohorts:
                    consider(
                        CandidatePlan(
                            engine=engine,
                            sweep_cohort=cap,
                            stream=stream,
                            num_workers=workers,
                            query_blocks=blocks,
                            start_method=method,
                            memory_budget_mb=memory_budget_mb,
                        )
                    )
    return plans, pruned


def os_cpu_count() -> int:
    import os

    return os.cpu_count() or 1


def choose_plan(
    plans: Sequence[CandidatePlan], profile: WorkloadProfile, cost: CostModel
) -> Tuple[CandidatePlan, PredictedMakespan, List[Tuple[CandidatePlan, PredictedMakespan]]]:
    """Rank the feasible grid by predicted makespan; return the winner."""
    if not plans:
        raise ValueError("no feasible plans to choose from")
    ranked = sorted(
        ((p, predict_makespan(p, profile, cost)) for p in plans),
        key=lambda pair: pair[1].total,
    )
    best, prediction = ranked[0]
    return best, prediction, ranked
