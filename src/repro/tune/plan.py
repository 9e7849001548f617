"""Configuration search: enumerate the knob grid, predict, pick.

A :class:`CandidatePlan` is one point of the feasible grid — engine x
index x cohort x blocks x start method x stream.  The planner
profiles the workload once (exact candidate counts via the vectorized
counting kernels, scoring-block counts via the sweep's own planner, index
shape via a small sample build), prunes plans whose footprint exceeds the
memory budget, and scores the survivors with a wall-clock makespan
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


#: fallback decoded-index bytes per fragment when no partitioned store
#: is at hand to read the real number from (BENCH_scale.json n=500:
#: 157.5 MB decoded / ~2.3 M fragments ~= 70 B/fragment)
DECODED_BYTES_PER_FRAGMENT = 70.0


@dataclass(frozen=True)
class CandidatePlan:
    """One point of the knob grid."""

    engine: str = "serial"  #: "serial" or "multiproc"
    use_index: bool = True
    sweep_cohort: int = 64
    stream: bool = False
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
        parts.append("index" if self.use_index else "direct")
        parts.append(f"sweep/{self.sweep_cohort}")
        if self.stream:
            parts.append("streamed")
        return ":".join(parts)

    def to_config(self, base: SearchConfig) -> SearchConfig:
        """The plan's knobs applied onto a base SearchConfig."""
        return dataclasses.replace(
            base,
            use_index=self.use_index,
            sweep_cohort=self.sweep_cohort,
        )

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
    scorer_indexable: bool
    index_served_fraction: float  #: fraction of rows the index serves
    index_fragments: int  #: estimated whole-database fragment count
    index_nbytes: int  #: estimated decoded (resident) index bytes
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


def _estimate_span_shape(lengths: np.ndarray, max_length: int) -> Tuple[int, int]:
    """Analytic (rows, fragment-weight) of the length-filtered span set.

    Prefix spans of a length-L sequence contribute lengths 2..min(L,
    max); suffixes 2..min(L-1, max); a span of length l weighs 2(l-1)
    fragments (b + y ladders).  Only *proportionality* matters: the
    profiler scales a measured sample build by the ratio of these
    weights, so constant factors in the weight cancel.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    k_pre = np.clip(lengths, 0, max_length)
    k_suf = np.clip(lengths - 1, 0, max_length)
    rows = np.clip(k_pre - 1, 0, None) + np.clip(k_suf - 1, 0, None)
    frags = k_pre * (k_pre - 1) + k_suf * (k_suf - 1)
    return int(rows.sum()), int(frags.sum())


def profile_workload(
    database,
    queries: Sequence,
    config: SearchConfig,
    *,
    sample_sequences: int = 160,
    sample_queries: int = 16,
    store=None,
) -> WorkloadProfile:
    """Measure the workload quantities the predictor consumes.

    Exact where exact is cheap (candidate totals via the vectorized
    counting kernels, scoring-block counts via the sweep's planner on the
    real query masses); sampled where exact would cost a full run (the
    index-served row fraction and index shape come from a small
    prefix-database build, scaled analytically to full size).
    """
    count_config = dataclasses.replace(config, use_index=False)
    counter = ShardSearcher(database, count_config)
    query_counts = counter.count_each(list(queries))
    total_candidates = int(query_counts.sum())

    # the engine's own planner on the engine's own windows, so the count
    # is the ``ShardStats.sweep_cohorts`` a serial sweep reports
    masses = np.sort(np.array([q.parent_mass for q in queries], dtype=np.float64))
    lows, highs = masses - config.delta, masses + config.delta
    cohorts = {
        cap: plan_sweep(lows, highs, cap).num_blocks
        for cap in (4, 16, 64, 256, 1024)
    }

    # index shape: build a small prefix-database index and scale by the
    # analytic span weights (generation-rule-exact, constant-free)
    sample_n = min(len(database), sample_sequences)
    sample_db = (
        database.slice_range(0, sample_n) if sample_n < len(database) else database
    )
    probe_config = dataclasses.replace(config, use_index=True)
    prober = ShardSearcher(sample_db, probe_config)
    scorer_indexable = prober.index is not None
    fraction = 0.0
    fragments = 0
    index_nbytes = 0
    if scorer_indexable:
        sample_rows, sample_frags = _estimate_span_shape(
            sample_db.lengths, config.index_max_length
        )
        full_rows, full_frags = _estimate_span_shape(
            database.lengths, config.index_max_length
        )
        scale = full_frags / sample_frags if sample_frags else 1.0
        fragments = int(prober.index.num_fragments * scale)
        index_nbytes = int(prober.index.nbytes * scale)
        probe_stats = prober.run(list(queries[: max(sample_queries, 1)]), {})
        if probe_stats.rows_scored:
            fraction = probe_stats.index_rows / probe_stats.rows_scored
    store_info = None
    if store is not None:
        store_info = {
            "blob_bytes": int(store.blob_bytes),
            "decoded_bytes": int(store.decoded_bytes),
            "num_partitions": int(store.num_partitions),
            "max_partition_bytes": int(store.max_partition_bytes),
        }
        index_nbytes = int(store.decoded_bytes)
    elif scorer_indexable and not index_nbytes:
        index_nbytes = int(fragments * DECODED_BYTES_PER_FRAGMENT)

    return WorkloadProfile(
        num_queries=len(queries),
        query_bytes=int(sum(q.nbytes for q in queries)),
        db_sequences=len(database),
        db_residues=int(database.total_residues),
        db_nbytes=int(database.nbytes),
        total_candidates=total_candidates,
        relative_cost=config.make_scorer(None).relative_cost,
        scorer_indexable=scorer_indexable,
        index_served_fraction=float(fraction),
        index_fragments=fragments,
        query_candidates=tuple(int(c) for c in query_counts),
        seq_lengths=tuple(int(l) for l in database.lengths),
        index_nbytes=index_nbytes,
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

    The phase decomposition mirrors what the engines charge: index build
    (amortized across workers), candidate evaluation split into
    index-served and direct rows, per-query and per-block sweep
    overhead, streamed decode + exposed I/O, and — for multiproc — pool spin-up,
    context transport, and task dispatch.
    """
    rho = cost.rho_base * profile.relative_cost
    tau = cost.tau_cost
    m = profile.num_queries
    workers = max(plan.num_workers, 1) if plan.engine == "multiproc" else 1
    # wall-clock parallelism is bounded by the cores actually present:
    # extra workers on an oversubscribed host just time-slice, so CPU
    # work divides by the *effective* width, not the worker count
    eff = min(workers, os_cpu_count())

    serves_index = plan.use_index and profile.scorer_indexable
    # the multiproc engine's task grid: a shard (or partition range) per
    # worker where a fragment index is consulted, the whole database as
    # one shard where none is — then query blocks, floored so that every
    # worker has a task
    num_shards = workers if serves_index else 1
    blocks = effective_query_blocks(max(plan.query_blocks, 1), num_shards, workers, m)
    index_rows = (
        profile.total_candidates * profile.index_served_fraction
        if serves_index
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
    # where each worker holds its own indexed shard
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
        if serves_index:
            # every worker builds its own shard's slice; the total build
            # work parallelizes like the shards do
            phases["index_build"] = (
                cost.index_build_time(profile.index_fragments) / eff
            )
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

    Feasibility is a memory fit on real footprints: a resident plan must
    hold database + decoded index + queries inside the budget; a
    streamed plan only its two-partition double buffer
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
        if plan.use_index and not profile.scorer_indexable:
            pruned.append((plan, "scorer has no index kernel; identical to direct"))
            return
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
            if plan.use_index and profile.scorer_indexable:
                need += profile.index_nbytes
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
            for use_index in (True, False):
                stream_opts = [False]
                if allow_stream and use_index:
                    stream_opts.append(True)
                for stream in stream_opts:
                    for cap in sweep_cohorts:
                        consider(
                            CandidatePlan(
                                engine=engine,
                                use_index=use_index,
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
