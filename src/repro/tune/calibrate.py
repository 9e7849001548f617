"""Calibration: fit CostModel terms to this host from measured spans.

A short, seeded battery of microbenchmarks exercises each hot path the
engines run — the shard pass on the direct block kernels and on the
fragment-index probe, partition read + decode, persisted-index load,
process transport and pool spin-up — under an enabled
:class:`~repro.obs.metrics.MetricsRegistry`.  The measured span
durations become the right-hand side of small least-squares systems
whose solutions are the CostModel terms, in *wall seconds on this
machine* (the shipped defaults are deliberately paper-scaled; see
``core/costmodel.py``).

The result is cached on disk (:mod:`repro.tune.cache`) behind a machine
fingerprint, so only the first ``repro tune`` on a host pays the
benchmark cost.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.costmodel import CostModel
from repro.core.search import ShardSearcher
from repro.errors import ConfigError
from repro.index import IndexBuilder
from repro.obs.metrics import MetricsRegistry, get_metrics, use_registry
from repro.tune.cache import load_calibration, save_calibration
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

#: CostModel fields a calibration is allowed to refit.  Anything else
#: (paper-scaled simulation constants like ``iteration_overhead`` and
#: the per-query ``query_overhead`` MODELED runs charge) is out of scope
#: on purpose: those model the paper's machine, not ours.
CALIBRATABLE_TERMS = (
    "rho_base",
    "tau_cost",
    "index_probe_discount",
    "index_load_per_byte",
    "index_open_overhead",
    "sweep_setup_per_query",
    "sweep_probe_per_cohort",
    "partition_read_per_byte",
    "partition_decode_per_byte",
    "partition_open_overhead",
    "transport_ship_per_byte",
    "worker_spinup_fork",
    "worker_spinup_spawn",
    "task_dispatch_overhead",
)


@dataclass(frozen=True)
class CalibrationSpec:
    """Sizes and repeats of the microbenchmark battery.

    Defaults run the full battery in a few seconds; tests shrink them.
    """

    seed: int = 202
    db_size: int = 240  #: shard-pass benchmark database
    num_queries: int = 160
    store_db_size: int = 120  #: partition + persisted-store benchmarks
    repeats: int = 2  #: timed repetitions per point (min is kept)
    sweep_cohorts: Tuple[int, ...] = (4, 32, 128)
    partition_mb: float = 2.0
    transport_bytes: int = 1 << 22
    dispatch_tasks: int = 12
    include_spawn: bool = True  #: spawn spin-up costs ~0.5s to measure
    scorers: Tuple[str, ...] = ("likelihood", "shared_peaks")


@dataclass
class Calibration:
    """Fitted terms + fit diagnostics."""

    terms: Dict[str, float]
    details: Dict[str, Any] = field(default_factory=dict)
    source: str = "measured"  #: "measured" or "cache"
    cache_path: Optional[str] = None

    def cost_model(self, base: Optional[CostModel] = None) -> CostModel:
        """A CostModel with every fitted term replacing the default."""
        base = base if base is not None else CostModel()
        known = {f.name for f in dataclasses.fields(CostModel)}
        updates = {k: v for k, v in self.terms.items() if k in known}
        return dataclasses.replace(base, **updates)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "cache_path": self.cache_path,
            "terms": dict(self.terms),
            "details": dict(self.details),
        }


def _noop(_: int = 0) -> int:
    """Module-level so spawn can pickle it."""
    return 0


def _span_dur(registry: MetricsRegistry, name: str) -> float:
    """Total duration of all spans named ``name`` in ``registry``."""
    return sum(s["dur"] for s in registry.spans if s["name"] == name)


def _nonneg_lstsq(design: Sequence[Sequence[float]], rhs: Sequence[float]) -> np.ndarray:
    """Least squares with coefficients clipped to >= 0.

    Microbenchmark noise can pull a small coefficient slightly negative;
    a negative cost term is meaningless, so the fit is clipped.
    """
    a = np.asarray(design, dtype=np.float64)
    b = np.asarray(rhs, dtype=np.float64)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(x, 0.0, None)


def _timed_search(
    db, queries, config: SearchConfig, repeats: int, index=None
) -> Tuple[float, Any]:
    """Run one searcher workload ``repeats`` times; keep the fastest.

    Returns ``(search_dur, stats)`` with the duration read off the
    ``search.shard`` obs span — the same span the verification layer
    later compares against.
    """
    best = None
    for _ in range(max(repeats, 1)):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            stats = ShardSearcher(db, config, index=index).run(queries, {})
        dur = _span_dur(registry, "search.shard")
        if best is None or dur < best[0]:
            best = (dur, stats)
    return best


def _relative_cost(config: SearchConfig) -> float:
    return config.make_scorer(None).relative_cost


def _fit_sweep_terms(db, queries, spec: CalibrationSpec, details: Dict) -> Dict[str, float]:
    """rho_base / tau_cost / sweep setup / sweep probe from direct shard passes.

    Each run obeys ``t = cand * (rho_base * rc + tau_cost) + setup * m +
    probe * blocks``.  Candidate counts scale linearly with the query
    count, so varying m would leave the candidate and query columns
    collinear (least squares then splits per-candidate time arbitrarily
    into ``setup``, which poisons every downstream fit that subtracts
    it).  Instead the runs vary the scorer (different ``rc``) and the
    mass window ``delta`` (candidates-per-query change severalfold) at a
    *fixed* query and block count.  The per-block term
    (``stats.sweep_cohorts`` counts packed scoring blocks, about
    ``m / cap`` of them whatever the window layout) is identified by the
    cap alone, so the scorer x delta ladder at the widest cap is joined
    by one run per narrower cap, and a joint least squares separates all
    four terms.
    """
    m = spec.num_queries

    def run(scorer: str, cap: int, delta: float) -> Dict[str, float]:
        config = SearchConfig(delta=delta, tau=25, scorer=scorer, sweep_cohort=cap)
        dur, stats = _timed_search(db, queries[:m], config, spec.repeats)
        return {
            "scorer": scorer,
            "relative_cost": _relative_cost(config),
            "cohort_cap": cap,
            "delta": delta,
            "queries": m,
            "cohorts": stats.sweep_cohorts,
            "candidates": stats.candidates_evaluated,
            "seconds": dur,
        }

    wide_cap = spec.sweep_cohorts[-1]
    rows = [
        run(scorer, wide_cap, delta)
        for scorer in spec.scorers
        for delta in (1.0, 1.5, 3.0, 6.0)
    ]
    rows += [run(spec.scorers[0], cap, 3.0) for cap in spec.sweep_cohorts[:-1]]
    rho_base, tau_cost, probe, setup = _nonneg_lstsq(
        [
            [r["candidates"] * r["relative_cost"], r["candidates"], r["cohorts"], r["queries"]]
            for r in rows
        ],
        [r["seconds"] for r in rows],
    )
    if rho_base <= 0.0:
        # degenerate fit (all scorers equal-cost): fall back to raw rate
        r = rows[0]
        rho_base = r["seconds"] / max(r["candidates"] * r["relative_cost"], 1)
    details["sweep_runs"] = rows
    return {
        "rho_base": float(rho_base),
        "tau_cost": float(tau_cost),
        "sweep_setup_per_query": float(setup),
        "sweep_probe_per_cohort": float(probe),
    }


def _fit_index_terms(
    db, queries, spec: CalibrationSpec, terms: Dict[str, float], details: Dict
) -> Dict[str, float]:
    """index_probe_discount from a posting-served pass over a view built here.

    The term prices posting probes, so it is fitted on a scorer that
    probes (hyperscore); a pass that served no index row would leave it
    unmeasured, which is an error, not a reason to keep the default.
    """
    config = SearchConfig(
        delta=3.0, tau=25, scorer="hyperscore", sweep_cohort=spec.sweep_cohorts[-1]
    )
    rho = terms["rho_base"] * _relative_cost(config)
    index = IndexBuilder(fragment_tolerance=config.fragment_tolerance).build(db).view()
    dur, stats = _timed_search(db, queries, config, spec.repeats, index=index)
    index_rows = stats.index_rows
    if not index_rows:
        raise ConfigError(
            f"calibration cannot fit index_probe_discount: the "
            f"{config.scorer!r} pass over the fragment index served no row "
            f"from it ({stats.candidates_evaluated} candidates; db_size="
            f"{spec.db_size}, num_queries={spec.num_queries})"
        )
    residual = (
        dur
        - terms["sweep_setup_per_query"] * len(queries)
        - terms["sweep_probe_per_cohort"] * stats.sweep_cohorts
        - terms["tau_cost"] * stats.candidates_evaluated
        - rho * (stats.candidates_evaluated - index_rows)
    )
    details["index_run"] = {
        "scorer": config.scorer,
        "seconds": dur,
        "num_fragments": index.num_fragments,
        "index_rows": index_rows,
        "candidates": stats.candidates_evaluated,
    }
    return {
        "index_probe_discount": float(np.clip(residual / (rho * index_rows), 0.05, 1.5))
    }


def _fit_partition_terms(db_small, spec: CalibrationSpec, details: Dict) -> Dict[str, float]:
    """Partition read/open/decode costs from a throwaway partitioned store."""
    from repro.store import save_partitioned_index

    out: Dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-tune-pstore-") as tmp:
        store = save_partitioned_index(
            db_small, os.path.join(tmp, "pstore"), partition_mb=spec.partition_mb
        )
        entries = store.partitions
        if not entries:
            return out
        # warm pass so the fit measures steady-state (page-cache) reads,
        # which is what repeated searches on one host actually see
        for i in range(len(entries)):
            store.read_partition_blob(i)
        read_rows: List[Tuple[float, float]] = []
        decode_rows: List[Tuple[float, float]] = []
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            for i, entry in enumerate(entries):
                t0 = time.perf_counter()
                blob = store.read_partition_blob(i)
                read_rows.append((float(entry.blob_bytes), time.perf_counter() - t0))
                t0 = time.perf_counter()
                store.decode_partition_blob(i, blob)
                decode_rows.append(
                    (float(entry.decoded_bytes), time.perf_counter() - t0)
                )
        open_overhead, read_per_byte = _nonneg_lstsq(
            [[1.0, nbytes] for nbytes, _ in read_rows],
            [dur for _, dur in read_rows],
        )
        decoded_total = sum(nbytes for nbytes, _ in decode_rows)
        if decoded_total:
            out["partition_decode_per_byte"] = float(
                sum(dur for _, dur in decode_rows) / decoded_total
            )
        out["partition_open_overhead"] = float(open_overhead)
        out["partition_read_per_byte"] = float(read_per_byte)
        details["partition_bench"] = {
            "num_partitions": len(entries),
            "blob_bytes": store.blob_bytes,
            "decoded_bytes": store.decoded_bytes,
        }
    return out


def _fit_store_load_terms(db_small, spec: CalibrationSpec, details: Dict) -> Dict[str, float]:
    """Persisted-index open + load costs from a throwaway resident store."""
    from repro.store import open_any_index, save_index

    out: Dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-tune-store-") as tmp:
        path = os.path.join(tmp, "store")
        save_index(db_small, path, num_shards=1)
        open_any_index(path).load_shard(0)  # warm the page cache
        t0 = time.perf_counter()
        store = open_any_index(path)
        open_dur = time.perf_counter() - t0
        t0 = time.perf_counter()
        loaded = store.load_shard(0)
        load_dur = time.perf_counter() - t0
        out["index_open_overhead"] = float(open_dur)
        if loaded.nbytes:
            out["index_load_per_byte"] = float(load_dur / loaded.nbytes)
        details["store_load_bench"] = {
            "open_seconds": open_dur,
            "load_seconds": load_dur,
            "nbytes": loaded.nbytes,
        }
    return out


def _fit_transport_terms(spec: CalibrationSpec, details: Dict) -> Dict[str, float]:
    """Pickle transport, pool spin-up (per start method), task dispatch."""
    import multiprocessing as mp

    out: Dict[str, float] = {}
    payload = np.random.default_rng(spec.seed).bytes(spec.transport_bytes)
    best = float("inf")
    for _ in range(max(spec.repeats, 1)):
        t0 = time.perf_counter()
        pickle.loads(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        best = min(best, time.perf_counter() - t0)
    out["transport_ship_per_byte"] = best / spec.transport_bytes

    available = mp.get_all_start_methods()
    spinups: Dict[str, float] = {}
    methods = [m for m in ("fork", "spawn") if m in available]
    if not spec.include_spawn:
        methods = [m for m in methods if m != "spawn"]
    for method in methods:
        ctx = mp.get_context(method)
        t0 = time.perf_counter()
        with ctx.Pool(1) as pool:
            pool.apply(_noop)
            spinups[method] = time.perf_counter() - t0
            # dispatch cost measured on the warm pool (fork preferred,
            # but whichever method ran last works)
            t0 = time.perf_counter()
            for _ in range(spec.dispatch_tasks):
                pool.apply(_noop)
            out["task_dispatch_overhead"] = (
                time.perf_counter() - t0
            ) / spec.dispatch_tasks
    if "fork" in spinups:
        out["worker_spinup_fork"] = spinups["fork"]
    if "spawn" in spinups:
        out["worker_spinup_spawn"] = spinups["spawn"]
    details["transport_bench"] = {
        "payload_bytes": spec.transport_bytes,
        "spinup_seconds": spinups,
        "start_methods": methods,
    }
    return out


def run_calibration(spec: Optional[CalibrationSpec] = None) -> Calibration:
    """Run the full microbenchmark battery and fit every term."""
    spec = spec or CalibrationSpec()
    obs = get_metrics()
    t_start = time.perf_counter()
    details: Dict[str, Any] = {"spec": dataclasses.asdict(spec)}
    with obs.span("tune.calibrate", category="tune"):
        db = generate_database(spec.db_size, seed=spec.seed)
        db_small = generate_database(spec.store_db_size, seed=spec.seed)
        queries = generate_queries(spec.num_queries, seed=spec.seed + 1)
        terms = _fit_sweep_terms(db, queries, spec, details)
        terms.update(_fit_index_terms(db, queries, spec, terms, details))
        terms.update(_fit_partition_terms(db_small, spec, details))
        terms.update(_fit_store_load_terms(db_small, spec, details))
        terms.update(_fit_transport_terms(spec, details))
    details["calibration_seconds"] = time.perf_counter() - t_start
    obs.observe("tune.calibrate_seconds", details["calibration_seconds"])
    defaults = CostModel()
    details["vs_defaults"] = {
        name: {
            "default": getattr(defaults, name),
            "calibrated": terms[name],
            "ratio": terms[name] / getattr(defaults, name)
            if getattr(defaults, name)
            else None,
        }
        for name in terms
        if hasattr(defaults, name)
    }
    return Calibration(terms=terms, details=details, source="measured")


def calibrate(
    spec: Optional[CalibrationSpec] = None,
    cache_path: Optional[str] = None,
    force: bool = False,
) -> Calibration:
    """Calibration with the on-disk cache in front.

    A valid cache (same schema, same machine fingerprint, well-formed
    terms) short-circuits the benchmarks; anything else — including a
    torn or corrupt file — falls back to measuring and rewrites the
    cache atomically.
    """
    if cache_path and not force:
        payload = load_calibration(cache_path)
        if payload is not None:
            get_metrics().count("tune.calibration_cache_hits")
            return Calibration(
                terms=dict(payload["terms"]),
                details=dict(payload.get("details", {})),
                source="cache",
                cache_path=os.path.expanduser(cache_path),
            )
    result = run_calibration(spec)
    if cache_path:
        get_metrics().count("tune.calibration_cache_misses")
        result.cache_path = save_calibration(
            cache_path, result.terms, details={"calibration_seconds": result.details.get("calibration_seconds")}
        )
    return result
