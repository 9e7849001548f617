"""The autotuner: enumerate -> time -> pick -> run -> compare one number.

With a grid of at most a handful of plans, ranking by a fitted model is
the expensive way to choose (FFTW/ATLAS-style empirical planning is the
cheap one): :func:`time_plans` runs every feasible plan's own
``run_search`` on two mass-stratified query samples and keeps two
measured numbers per plan — a fixed cost and seconds per candidate —
whose line, read at the workload's exact candidate count, is the plan's
predicted makespan.  :func:`autotune` picks the smallest, runs it, and
the RunReport ``tuning`` section records the one comparison that
matters (predicted vs. measured makespan of the pick) next to the
communication-lower-bound projection.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.obs.metrics import MetricsRegistry, get_metrics, use_registry
from repro.tune.cache import load_trials, save_trials
from repro.tune.lower_bounds import (
    DEFAULT_PROJECTION_RANKS,
    overlap_projection,
    simulate_anchor,
)
from repro.tune.plan import (
    PINNED_KNOBS,
    CandidatePlan,
    WorkloadProfile,
    enumerate_plans,
    profile_workload,
)

#: schema tag of the RunReport ``tuning`` section (optional section, so
#: the report schema itself does not bump — same pattern as ``service``)
TUNING_SCHEMA = "repro.tuning/3"

#: query counts of the two timed samples.  Wide apart on purpose: a
#: 32/128 pair of *random* samples picked a plan with regret 1.73 at
#: 800 x 400 — the line's slope was inside the noise of its own points
SAMPLE_SIZES = (8, 256)

#: mass strata a sample covers (the small sample is one query from each)
STRATA = 8

#: timed runs per (plan, sample); the fastest is kept
TRIAL_REPEATS = 3


@dataclass(frozen=True)
class PlanTrial:
    """One plan's timed trial: two measured terms, read at a candidate count."""

    plan: CandidatePlan
    fixed_s: float
    seconds_per_candidate: float
    candidates: int  #: the workload's exact candidate total

    @property
    def predicted_s(self) -> float:
        return self.fixed_s + self.seconds_per_candidate * self.candidates

    def terms(self) -> Dict[str, float]:
        return {
            "fixed_s": self.fixed_s,
            "seconds_per_candidate": self.seconds_per_candidate,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {"plan": self.plan.label, **self.terms(), "predicted_s": self.predicted_s}


@dataclass
class TuneResult:
    """Everything one autotune pass produced."""

    profile: WorkloadProfile
    trials: List[PlanTrial]  #: every feasible plan, fastest predicted first
    trial_info: Dict[str, Any]  #: source (measured|cache), trial_wall_s, samples
    chosen: CandidatePlan
    predicted_s: float
    pruned: List[Tuple[CandidatePlan, str]]
    report: Any = None  #: SearchReport of the verification run (if run)
    verification: Optional[Dict[str, Any]] = None
    lower_bounds: Optional[Dict[str, Any]] = None
    tuning: Dict[str, Any] = field(default_factory=dict)


def run_plan(
    plan: CandidatePlan,
    database,
    queries,
    config: SearchConfig,
    *,
    store=None,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[Any, float]:
    """Execute one plan; returns (report, wall seconds).

    Runs under a private registry so a tuned run's own metrics record the
    search it asked for, not the trials that chose its plan.
    """
    from repro.core.driver import run_search

    with use_registry(MetricsRegistry(enabled=False)):
        t0 = clock()
        report = run_search(
            database,
            queries,
            plan.engine,
            plan.num_workers,
            plan.to_config(config),
            query_blocks=plan.query_blocks,
            start_method=plan.start_method,
            index_path=str(store.path) if plan.stream else None,
            memory_budget_mb=plan.memory_budget_mb if plan.stream else None,
        )
        wall = clock() - t0
    return report, wall


def stratified_sample(masses: Sequence[float], size: int) -> np.ndarray:
    """Query positions of a mass-stratified sample, in query order.

    The queries sorted by parent mass are cut into :data:`STRATA` equal
    strata and a run of ``size / STRATA`` mass-consecutive queries is
    taken from the middle of each.  Strata, because candidates per query
    vary severalfold along the mass axis and a random handful can land
    anywhere on it; runs, because the pass shares candidate rows between
    overlapping windows, so a sample spread thinner than the workload
    costs more per candidate than the workload does (+35 % on a 256 of
    2000 sample, measured).
    """
    order = np.argsort(np.asarray(masses, dtype=np.float64), kind="stable")
    if size >= len(order):
        return np.arange(len(order))
    run = max(size // STRATA, 1)
    centres = (np.arange(STRATA) + 0.5) * len(order) / STRATA
    starts = (centres - run / 2).astype(np.int64)
    return np.sort(np.concatenate([order[s : s + run] for s in starts]))


def _fit_line(
    points: Sequence[Tuple[int, float]], min_rate: float = 0.0
) -> Tuple[float, float]:
    """(fixed_s, seconds_per_candidate) through one or two timed points.

    The line passes through the larger sample; a slope under ``min_rate``
    is raised to it.  Neither term may be negative: where noise tips the
    line below zero at the origin (or leaves it no rise at all), the
    fixed cost is 0 and the rate is the larger sample's own.  One point
    (a workload timed whole) is a fixed cost and nothing to extrapolate.
    """
    if len(points) == 1:
        return points[0][1], 0.0
    (c1, t1), (c2, t2) = points
    rate = max((t2 - t1) / (c2 - c1) if c2 > c1 else 0.0, min_rate)
    fixed = t2 - rate * c2
    if rate <= 0 or fixed < 0:
        return (0.0, t2 / c2) if c2 else (t2, 0.0)
    return fixed, rate


def time_plans(
    plans: Sequence[CandidatePlan],
    database,
    queries,
    config: SearchConfig,
    profile: WorkloadProfile,
    *,
    store=None,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[List[PlanTrial], Tuple[int, ...]]:
    """Time every plan on two query samples; returns (trials, sample sizes).

    Each plan runs its own ``run_search`` on a small and a large
    mass-stratified sample (best of :data:`TRIAL_REPEATS`, rounds
    interleaved across plans so a load spike inflates one round, not one
    plan); the regressor is the samples' exact candidate counts from the
    profile.  A workload no larger than the small sample is timed whole,
    one no larger than the large sample has its large sample be itself:
    in both the prediction is a measurement, not an extrapolation.
    """
    queries = list(queries)
    m = len(queries)
    small, large = SAMPLE_SIZES
    sizes = (m,) if m <= small else (small, min(large, m))
    masses = [q.parent_mass for q in queries]
    counts = np.asarray(profile.query_candidates, dtype=np.int64)
    samples = []
    for size in sizes:
        picks = stratified_sample(masses, size)
        samples.append(([queries[i] for i in picks], int(counts[picks].sum())))

    best: Dict[Tuple[CandidatePlan, int], float] = {}
    for _ in range(TRIAL_REPEATS):
        for plan in plans:
            for s, (sample, _) in enumerate(samples):
                _, wall = run_plan(
                    plan, database, sample, config, store=store, clock=clock
                )
                best[plan, s] = min(wall, best.get((plan, s), wall))

    # a pool of w workers cannot score faster than w serial passes: a
    # multiproc rate under its serial twin's / w is the noise of two
    # fixed-cost-dominated points, which an 8x extrapolation would turn
    # into a pick (it did: regret 1.55 in 2 of 8 trials at 2000 x 2000)
    lines: Dict[CandidatePlan, Tuple[float, float]] = {}
    for plan in sorted(plans, key=lambda plan: plan.num_workers):  # twins first
        twin = dataclasses.replace(
            plan, engine="serial", num_workers=1, query_blocks=1, start_method=None
        )
        floor = lines[twin][1] / plan.num_workers if twin in lines else 0.0
        points = [(cands, best[plan, s]) for s, (_, cands) in enumerate(samples)]
        lines[plan] = _fit_line(points, floor)
    trials = [PlanTrial(plan, *lines[plan], profile.total_candidates) for plan in plans]
    return trials, sizes


def choose_plan(trials: Sequence[PlanTrial]) -> List[PlanTrial]:
    """The trials fastest predicted first; the pick is the head.

    Ties keep grid order, so the simpler plan (serial before multiproc,
    direct before streamed) wins one.
    """
    if not trials:
        raise ValueError("no feasible plans to choose from")
    return sorted(trials, key=lambda trial: trial.predicted_s)


def trial_key(config: SearchConfig, profile: WorkloadProfile, store=None) -> Dict[str, Any]:
    """What a plan's two rates depend on, besides the machine."""
    return {
        "scorer": config.scorer,
        "delta": float(config.delta),
        "fragment_tolerance": float(config.fragment_tolerance),
        "db_residues": profile.db_residues,
        "store": store.fingerprint if store is not None else None,
    }


def _trials(
    plans: Sequence[CandidatePlan],
    database,
    queries,
    config: SearchConfig,
    profile: WorkloadProfile,
    store,
    cache_path: Optional[str],
    retune: bool,
) -> Tuple[List[PlanTrial], Dict[str, Any]]:
    """Cached rates if they cover every feasible plan, else a timed trial."""
    obs = get_metrics()
    key = trial_key(config, profile, store)
    if cache_path and not retune:
        cached = (load_trials(cache_path, key) or {}).get("trials", {})
        if all(plan.label in cached for plan in plans):
            obs.count("tune.trial_cache_hits")
            trials = [
                PlanTrial(plan, **cached[plan.label], candidates=profile.total_candidates)
                for plan in plans
            ]
            path = os.path.expanduser(cache_path)
            return trials, {"source": "cache", "cache_path": path, "trial_wall_s": 0.0}
    with obs.span("tune.trial", category="tune"):
        t0 = time.perf_counter()
        trials, sizes = time_plans(plans, database, queries, config, profile, store=store)
        wall = time.perf_counter() - t0
    obs.gauge("tune.trial_wall_s", wall)
    timing = {"trial_wall_s": wall, "samples": list(sizes)}
    info = {"source": "measured", "cache_path": None, **timing}
    # one timed point has no rate to carry to another workload
    if cache_path and len(sizes) == 2:
        obs.count("tune.trial_cache_misses")
        info["cache_path"] = save_trials(
            cache_path, key, {t.plan.label: t.terms() for t in trials}, details=timing
        )
    return trials, info


def build_tuning_section(result: TuneResult, top_k: int = 8) -> Dict[str, Any]:
    """The RunReport ``tuning`` section (schema ``repro.tuning/3``)."""
    section: Dict[str, Any] = {
        "schema": TUNING_SCHEMA,
        "workload": {
            "queries": result.profile.num_queries,
            "candidates": result.profile.total_candidates,
        },
        "trial": {**result.trial_info, "plans": [t.to_dict() for t in result.trials]},
        "grid": {
            "feasible": len(result.trials),
            "pruned": len(result.pruned),
            "pruned_reasons": [
                {"plan": plan.label, "reason": reason}
                for plan, reason in result.pruned[:top_k]
            ],
            "pinned": [dict(knob) for knob in PINNED_KNOBS],
        },
        "chosen": dataclasses.asdict(result.chosen),
        "chosen_label": result.chosen.label,
        "predicted_s": result.predicted_s,
    }
    if result.verification is not None:
        section["verification"] = result.verification
    if result.lower_bounds is not None:
        section["lower_bounds"] = result.lower_bounds
    return section


def autotune(
    database,
    queries,
    config: Optional[SearchConfig] = None,
    *,
    cache_path: Optional[str] = None,
    retune: bool = False,
    store=None,
    memory_budget_mb: Optional[float] = None,
    run: bool = True,
    lower_bounds: bool = True,
    projection_ranks: Sequence[int] = DEFAULT_PROJECTION_RANKS,
    anchor_ranks: Optional[int] = None,
) -> TuneResult:
    """Full autotune pass; see the module docstring for the shape.

    ``store`` is an opened partitioned store: handing one in adds the
    streamed plans.  ``cache_path`` keeps the trial's rates on disk
    (``retune=True`` times again over a valid cache).  ``run=False``
    stops after the pick (used by ``search --autotune``, where the search
    itself is the run).  ``anchor_ranks`` additionally runs the event
    simulator once at that rank count and reports it next to the analytic
    projection.
    """
    config = config if config is not None else SearchConfig()
    obs = get_metrics()
    with obs.span("tune.autotune", category="tune"):
        with obs.span("tune.plan", category="tune"):
            profile = profile_workload(database, queries, config, store=store)
            plans, pruned = enumerate_plans(profile, memory_budget_mb=memory_budget_mb)
        obs.count("tune.plans_feasible", len(plans))
        obs.count("tune.plans_pruned", len(pruned))
        trials, trial_info = _trials(
            plans, database, queries, config, profile, store, cache_path, retune
        )
        trials = choose_plan(trials)  # raises when nothing was feasible
        pick = trials[0]
        obs.gauge("tune.predicted_makespan_s", pick.predicted_s)

        result = TuneResult(
            profile=profile,
            trials=trials,
            trial_info=trial_info,
            chosen=pick.plan,
            predicted_s=pick.predicted_s,
            pruned=pruned,
        )
        if run:
            with obs.span("tune.verify", category="tune"):
                result.report, wall = run_plan(
                    pick.plan, database, queries, config, store=store
                )
            result.verification = {
                "measured_makespan_s": wall,
                "predicted_makespan_s": pick.predicted_s,
                "rel_error": (pick.predicted_s - wall) / wall if wall > 0 else None,
            }
            obs.gauge("tune.measured_makespan_s", wall)
        if lower_bounds:
            bounds = overlap_projection(profile, ranks=projection_ranks)
            if anchor_ranks:
                with obs.span("tune.anchor", category="tune"):
                    bounds["simulated_anchor"] = simulate_anchor(
                        database, queries, config, num_ranks=anchor_ranks
                    )
            result.lower_bounds = bounds
        result.tuning = build_tuning_section(result)
    return result
