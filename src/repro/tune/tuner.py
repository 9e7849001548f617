"""The autotuner: calibrate -> plan -> run -> verify -> report.

:func:`autotune` closes the loop the ROADMAP asked for: fitted CostModel
terms pick the configuration with the smallest predicted makespan, the
chosen configuration actually runs, and the RunReport ``tuning`` section
records how well the model predicted reality — per phase, per term —
next to the communication-lower-bound projection that every future perf
PR is judged against.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SearchConfig
from repro.obs.metrics import MetricsRegistry, get_metrics, use_registry
from repro.tune.calibrate import Calibration, CalibrationSpec, calibrate
from repro.tune.lower_bounds import (
    DEFAULT_PROJECTION_RANKS,
    overlap_projection,
    simulate_anchor,
)
from repro.tune.plan import (
    CandidatePlan,
    PredictedMakespan,
    WorkloadProfile,
    choose_plan,
    enumerate_plans,
    predict_makespan,
    profile_workload,
)

#: schema tag of the RunReport ``tuning`` section (optional section, so
#: the report schema itself does not bump — same pattern as ``service``)
TUNING_SCHEMA = "repro.tuning/1"


@dataclass
class TuneResult:
    """Everything one autotune pass produced."""

    calibration: Calibration
    profile: WorkloadProfile
    chosen: CandidatePlan
    prediction: PredictedMakespan
    ranking: List[Tuple[CandidatePlan, PredictedMakespan]]
    pruned: List[Tuple[CandidatePlan, str]]
    report: Any = None  #: SearchReport of the verification run (if run)
    measured_wall_s: Optional[float] = None
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
    store_path: Optional[str] = None,
) -> Tuple[Any, float, MetricsRegistry]:
    """Execute one plan; returns (report, wall seconds, span registry).

    Runs under a private enabled registry so the measured spans are
    attributable to this run alone; multiproc worker snapshots merge in
    through the engine's normal fork/spawn-safe path.
    """
    from repro.core.driver import run_search

    if plan.stream and store_path is None:
        store_path = str(store.path)
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        t0 = time.perf_counter()
        report = run_search(
            database,
            queries,
            plan.engine,
            plan.num_workers if plan.engine == "multiproc" else 1,
            plan.to_config(config),
            query_blocks=plan.query_blocks,
            start_method=plan.start_method,
            index_path=store_path if plan.stream else None,
            memory_budget_mb=plan.memory_budget_mb if plan.stream else None,
        )
        wall = time.perf_counter() - t0
    return report, wall, registry


def _span_total(registry: MetricsRegistry, *names: str) -> float:
    wanted = set(names)
    return sum(s["dur"] for s in registry.spans if s["name"] in wanted)


def _rel_error(predicted: float, measured: Optional[float]) -> Optional[float]:
    if measured is None or measured <= 0:
        return None
    return (predicted - measured) / measured


def build_verification(
    plan: CandidatePlan,
    prediction: PredictedMakespan,
    wall_s: float,
    registry: MetricsRegistry,
    calibration: Calibration,
) -> Dict[str, Any]:
    """Span-by-span comparison of predicted vs. measured phase times.

    Spans measure what they measure: ``search.shard``/``search.stream``
    cover evaluation *plus* per-query overhead, so those two predicted
    phases are compared against the span jointly; decode and stall have
    their own spans; pool spin-up / transport / dispatch have no span of
    their own and are compared as the wall-time remainder.

    Worker span sums convert to wall-clock by dividing by the
    *effective* parallel width (workers clamped to host cores) — the
    same clamp the predictor applies: oversubscribed workers time-slice,
    so their span durations overlap CPU time, not wall time.
    """
    from repro.tune.plan import os_cpu_count

    workers = max(plan.num_workers, 1) if plan.engine == "multiproc" else 1
    workers = min(workers, os_cpu_count())
    pred = prediction.phases

    search_span = _span_total(registry, "search.shard", "search.stream") / workers
    decode_span = _span_total(registry, "stream.decode") / workers
    stall_span = _span_total(registry, "stream.stall") / workers
    if plan.stream:
        # the stream span wraps decode + stall + scoring; peel the
        # separately-spanned parts off to leave the evaluation side
        search_span = max(search_span - decode_span - stall_span, 0.0)

    phases: Dict[str, Dict[str, Any]] = {}

    def phase(name: str, predicted: float, measured: Optional[float]) -> None:
        phases[name] = {
            "predicted_s": predicted,
            "measured_s": measured,
            "rel_error": _rel_error(predicted, measured),
        }

    phase(
        "evaluation+query_overhead",
        pred.get("evaluation", 0.0) + pred.get("query_overhead", 0.0),
        search_span,
    )
    if plan.stream:
        phase("partition_decode", pred.get("partition_decode", 0.0), decode_span)
        phase(
            "partition_exposed_io", pred.get("partition_exposed_io", 0.0), stall_span
        )
    engine_overhead_pred = (
        pred.get("worker_spinup", 0.0)
        + pred.get("transport", 0.0)
        + pred.get("task_dispatch", 0.0)
    )
    accounted = search_span + (decode_span + stall_span if plan.stream else 0.0)
    phase(
        "engine_overhead",
        engine_overhead_pred,
        max(wall_s - accounted, 0.0),
    )

    # per-term implied measurements, where a counter pins the work count
    terms: Dict[str, Dict[str, Any]] = {}
    candidates = registry.counter_value("search.candidates")
    if candidates:
        pred_per_cand = phases["evaluation+query_overhead"]["predicted_s"] / candidates
        meas_per_cand = search_span / candidates
        terms["evaluation_seconds_per_candidate"] = {
            "predicted": pred_per_cand,
            "measured": meas_per_cand,
            "rel_error": _rel_error(pred_per_cand, meas_per_cand),
        }
    decoded = registry.counter_value("stream.bytes_decoded")
    if decoded and decode_span:
        implied = decode_span * workers / decoded
        calibrated = calibration.terms.get("partition_decode_per_byte")
        terms["partition_decode_per_byte"] = {
            "predicted": calibrated,
            "measured": implied,
            "rel_error": _rel_error(calibrated, implied)
            if calibrated is not None
            else None,
        }

    return {
        "measured_makespan_s": wall_s,
        "predicted_makespan_s": prediction.total,
        "makespan_rel_error": _rel_error(prediction.total, wall_s),
        "phases": phases,
        "terms": terms,
    }


def build_tuning_section(result: TuneResult, top_k: int = 8) -> Dict[str, Any]:
    """The RunReport ``tuning`` section (schema ``repro.tuning/1``)."""
    section: Dict[str, Any] = {
        "schema": TUNING_SCHEMA,
        "calibration": {
            "source": result.calibration.source,
            "cache_path": result.calibration.cache_path,
            "terms": dict(result.calibration.terms),
            "vs_defaults": result.calibration.details.get("vs_defaults"),
        },
        "grid": {
            "feasible": len(result.ranking),
            "pruned": len(result.pruned),
            "pruned_reasons": [
                {"plan": plan.label, "reason": reason}
                for plan, reason in result.pruned[:top_k]
            ],
        },
        "chosen": result.chosen.to_dict(),
        "chosen_label": result.chosen.label,
        "predicted": result.prediction.to_dict(),
        "ranking": [
            {"plan": plan.label, "predicted_s": pred.total}
            for plan, pred in result.ranking[:top_k]
        ],
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
    force_calibrate: bool = False,
    spec: Optional[CalibrationSpec] = None,
    store=None,
    store_path: Optional[str] = None,
    memory_budget_mb: Optional[float] = None,
    engines: Sequence[str] = ("serial", "multiproc"),
    worker_choices: Optional[Sequence[int]] = None,
    query_blocks: Sequence[int] = (1, 4),
    sweep_cohorts: Sequence[int] = (16, 64, 256),
    start_methods: Optional[Sequence[str]] = None,
    run: bool = True,
    lower_bounds: bool = True,
    projection_ranks: Sequence[int] = DEFAULT_PROJECTION_RANKS,
    anchor_ranks: Optional[int] = None,
) -> TuneResult:
    """Full autotune pass; see the module docstring for the shape.

    ``run=False`` stops after planning (used by ``search --autotune``,
    where the search itself is the verification run).  ``anchor_ranks``
    additionally runs the event simulator once at that rank count and
    reports it next to the analytic projection.
    """
    config = config if config is not None else SearchConfig()
    obs = get_metrics()
    with obs.span("tune.autotune", category="tune"):
        calibration = calibrate(spec=spec, cache_path=cache_path, force=force_calibrate)
        cost = calibration.cost_model(config.cost)
        with obs.span("tune.plan", category="tune"):
            profile = profile_workload(database, queries, config, store=store)
            plans, pruned = enumerate_plans(
                profile,
                engines=engines,
                worker_choices=worker_choices,
                query_blocks=query_blocks,
                sweep_cohorts=sweep_cohorts,
                start_methods=start_methods,
                memory_budget_mb=memory_budget_mb,
                allow_stream=store is not None,
            )
            chosen, prediction, ranking = choose_plan(plans, profile, cost)
        obs.count("tune.plans_feasible", len(plans))
        obs.count("tune.plans_pruned", len(pruned))
        obs.gauge("tune.predicted_makespan_s", prediction.total)

        result = TuneResult(
            calibration=calibration,
            profile=profile,
            chosen=chosen,
            prediction=prediction,
            ranking=ranking,
            pruned=pruned,
        )
        if run:
            with obs.span("tune.verify", category="tune"):
                report, wall, registry = run_plan(
                    chosen,
                    database,
                    queries,
                    config,
                    store=store,
                    store_path=store_path,
                )
            result.report = report
            result.measured_wall_s = wall
            result.verification = build_verification(
                chosen, prediction, wall, registry, calibration
            )
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
