"""RunReport: the versioned, engine-independent run record.

Every engine already returns a :class:`~repro.core.results.SearchReport`
whose shape diverges per engine — trace present or not, fault stats
under different extras keys, metrics nowhere.  A :class:`RunReport`
merges all of it into one schema-versioned JSON document:

* run identity (algorithm, engine, rank count, schema version);
* headline results (virtual time, candidate counts, hit summary);
* the full :class:`~repro.simmpi.trace.TraceSummary` — totals *and*
  per-rank category breakdowns — when the engine produced one;
* a normalized fault/recovery block with the same keys regardless of
  which engine the faults happened in;
* the engine extras (canonical names, see ``repro.obs.naming``);
* a metrics-registry snapshot (see ``repro.obs.metrics``).

This is the file ``repro search --report-out report.json`` writes, the
input ``benchmarks/regression.py`` gates on, and the schema documented
in ``docs/observability.md``.  ``SCHEMA`` is bumped on breaking shape
changes; readers reject unknown majors rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.scoring.hits import as_hit_columns

if TYPE_CHECKING:  # pragma: no cover - typing only; runtime import would
    # close the cycle core.results -> simmpi -> faults -> obs -> here
    from repro.core.results import SearchReport
    from repro.simmpi.trace import TraceSummary

#: schema identifier; bump the trailing integer on breaking changes
SCHEMA = "repro.run_report/1"

#: normalized fault-block defaults: "nothing went wrong"
_FAULT_DEFAULTS: Dict[str, Any] = {
    "failed_ranks": [],
    "failed_tasks": [],
    "failed_units": 0,
    "recovery_retries": 0,
    "recovery_timeouts": 0,
    "recovery_fetches": 0,
    "recovery_time": 0.0,
    "degraded": False,
}

_REQUIRED_KEYS = (
    "schema",
    "algorithm",
    "engine",
    "num_ranks",
    "virtual_time",
    "candidates_evaluated",
    "results",
    "trace",
    "faults",
    "extras",
    "metrics",
)


def engine_of(report: "SearchReport") -> str:
    """Classify which substrate produced a SearchReport."""
    if report.algorithm == "multiprocess":
        return "multiproc"
    if report.algorithm == "serial":
        return "serial"
    if report.algorithm == "service":
        return "service"
    return "simmpi"


def _trace_payload(trace: "Optional[TraceSummary]") -> Optional[Dict[str, Any]]:
    if trace is None:
        return None
    return {
        "makespan": trace.makespan,
        "total_compute": trace.total_compute,
        "total_wait": trace.total_wait,
        "total_collective": trace.total_collective,
        "total_comm_issued": trace.total_comm_issued,
        "total_recovery": trace.total_recovery,
        "total_sweep": trace.total_sweep,
        "mean_residual_to_compute": trace.mean_residual_to_compute,
        "masking_effectiveness": trace.masking_effectiveness,
        "per_rank": {
            str(rank): {
                "compute": t.compute,
                "wait": t.wait,
                "collective": t.collective,
                "comm_issued": t.comm_issued,
                "recovery": t.recovery,
                "sweep": t.sweep,
            }
            for rank, t in trace.per_rank.items()
        },
    }


def _fault_payload(extras: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize fault/recovery stats from engine extras."""
    faults = dict(_FAULT_DEFAULTS)
    for key in faults:
        if key in extras:
            faults[key] = extras[key]
    faults["failed_units"] = len(faults["failed_ranks"]) + len(faults["failed_tasks"])
    faults["degraded"] = bool(faults["degraded"] or faults["failed_units"])
    return faults


@dataclass
class RunReport:
    """One run, one schema — see the module docstring."""

    algorithm: str
    engine: str
    num_ranks: int
    virtual_time: float
    candidates_evaluated: int
    results: Dict[str, Any]
    trace: Optional[Dict[str, Any]] = None
    faults: Dict[str, Any] = field(default_factory=lambda: dict(_FAULT_DEFAULTS))
    extras: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: long-lived-service section (admission/health/counters); None for
    #: batch runs, so the schema version needs no bump — readers treat a
    #: missing key as "not a service run"
    service: Optional[Dict[str, Any]] = None
    #: autotune section (the rule's inputs, the plan that ran, the flags
    #: that overrode it); None unless the run was autotuned — optional
    #: like ``service``, so no schema bump
    tuning: Optional[Dict[str, Any]] = None
    schema: str = SCHEMA

    @property
    def candidates_per_second(self) -> float:
        if self.virtual_time <= 0:
            return 0.0
        return self.candidates_evaluated / self.virtual_time

    # -- construction ----------------------------------------------------

    @classmethod
    def from_search_report(
        cls,
        report: "SearchReport",
        metrics: Optional[Dict[str, Any]] = None,
        service: Optional[Dict[str, Any]] = None,
        tuning: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Merge a SearchReport (+ optional metrics snapshot) into one record.

        ``service`` attaches a :meth:`SearchService.service_report`
        payload for runs served by the long-lived service; ``tuning``
        attaches :meth:`repro.core.driver.Plan.tuning_section` for
        autotuned runs."""
        extras = dict(report.extras)
        peak = report.max_peak_memory
        hit_counts = as_hit_columns(report.hits).counts  # counted, never built
        return cls(
            algorithm=report.algorithm,
            engine=engine_of(report),
            num_ranks=report.num_ranks,
            virtual_time=report.virtual_time,
            candidates_evaluated=report.candidates_evaluated,
            results={
                "queries": len(report.hits),
                "queries_with_hits": int(np.count_nonzero(hit_counts)),
                "hits_reported": int(hit_counts.sum()),
                "max_peak_memory": peak,
            },
            trace=_trace_payload(report.trace),
            faults=_fault_payload(extras),
            extras=extras,
            metrics=dict(metrics) if metrics else {},
            service=dict(service) if service else None,
            tuning=dict(tuning) if tuning else None,
        )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema": self.schema,
            "algorithm": self.algorithm,
            "engine": self.engine,
            "num_ranks": self.num_ranks,
            "virtual_time": self.virtual_time,
            "candidates_evaluated": self.candidates_evaluated,
            "candidates_per_second": self.candidates_per_second,
            "results": dict(self.results),
            "trace": self.trace,
            "faults": dict(self.faults),
            "extras": dict(self.extras),
            "metrics": dict(self.metrics),
        }
        if self.service is not None:
            payload["service"] = dict(self.service)
        if self.tuning is not None:
            payload["tuning"] = dict(self.tuning)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        problems = cls.validate(payload)
        if problems:
            raise ValueError(
                "not a valid RunReport: " + "; ".join(problems)
            )
        return cls(
            algorithm=payload["algorithm"],
            engine=payload["engine"],
            num_ranks=int(payload["num_ranks"]),
            virtual_time=float(payload["virtual_time"]),
            candidates_evaluated=int(payload["candidates_evaluated"]),
            results=dict(payload["results"]),
            trace=payload["trace"],
            faults=dict(payload["faults"]),
            extras=dict(payload["extras"]),
            metrics=dict(payload["metrics"]),
            service=dict(payload["service"]) if payload.get("service") else None,
            tuning=dict(payload["tuning"]) if payload.get("tuning") else None,
            schema=payload["schema"],
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "RunReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # -- validation ------------------------------------------------------

    @staticmethod
    def validate(payload: Any) -> List[str]:
        """Schema check; returns a list of problems (empty == valid)."""
        if not isinstance(payload, dict):
            return ["payload is not a JSON object"]
        problems = [f"missing key {k!r}" for k in _REQUIRED_KEYS if k not in payload]
        if problems:
            return problems
        schema = payload["schema"]
        if not isinstance(schema, str) or not schema.startswith("repro.run_report/"):
            problems.append(f"unrecognized schema {schema!r}")
        elif schema != SCHEMA:
            problems.append(f"unsupported schema version {schema!r} (expected {SCHEMA})")
        if not isinstance(payload["num_ranks"], int) or payload["num_ranks"] < 1:
            problems.append(f"num_ranks must be a positive int, got {payload['num_ranks']!r}")
        if payload["trace"] is not None and not isinstance(payload["trace"], dict):
            problems.append("trace must be null or an object")
        for key in ("results", "faults", "extras", "metrics"):
            if not isinstance(payload[key], dict):
                problems.append(f"{key} must be an object")
        if "service" in payload and payload["service"] is not None:
            if not isinstance(payload["service"], dict):
                problems.append("service must be null or an object")
        if "tuning" in payload and payload["tuning"] is not None:
            if not isinstance(payload["tuning"], dict):
                problems.append("tuning must be null or an object")
        return problems
