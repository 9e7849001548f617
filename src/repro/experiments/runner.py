"""Grid runner: execute every cell of a scenario, checkpointed, in parallel.

The runner owns everything between a parsed
:class:`~repro.experiments.spec.ExperimentSpec` and the aggregate report:

* **one directory per run** (``out_dir``)::

      spec.json              # canonical spec copy + digest (provenance)
      checkpoint.json        # PR 2 CheckpointManager state (grid progress)
      cells/<id>.json        # one schema-versioned RunReport per cell
      cells/<id>.trace.json  # optional Chrome trace (spec: trace: true)
      report.json            # the aggregate (repro.experiment_report/1)
      report.txt             # ascii rendering of the aggregate

* **process fan-out**: cells are independent, so ``workers > 1`` runs
  them through a :class:`~concurrent.futures.ProcessPoolExecutor`
  (non-daemonic workers — a cell may itself be a multiproc engine run).
  Cell *order* in reports is spec order regardless of completion order.

* **checkpoint/resume**: grid progress rides the same
  :class:`~repro.faults.checkpoint.CheckpointManager` the supervised
  engine uses — atomic tmp-sibling writes, orphan sweeping, and a
  fingerprint (spec digest + cell count) that refuses to resume a
  different scenario.  A cell is *completed* when its RunReport file is
  fully written (atomic rename); resume skips completed cells, so a run
  killed mid-grid finishes the remainder and the aggregate — built only
  from the on-disk cell reports — is bitwise identical to an
  uninterrupted run.

* **failure handling**: a failing cell is recorded (typed error string)
  and does not stop the grid; it stays out of the checkpoint so a later
  ``resume`` retries exactly the failed/missing cells.  The aggregate
  lists failed cells and the CLI exits non-zero.

Determinism note: simulated-engine cells report *virtual* time, so their
RunReports — and therefore the whole aggregate — are reproducible
byte-for-byte; real-engine cells (serial/multiproc/autotune) report wall
time and vary run to run.  Scenario files that feed checked-in tables
use MODELED simulated cells for exactly this reason.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ExperimentSpecError, ReproError
from repro.experiments.aggregate import build_aggregate, format_ascii
from repro.experiments.spec import GROUP_FIELDS, CellSpec, ExperimentSpec
from repro.faults.checkpoint import CheckpointManager
from repro.obs.report import RunReport

#: checkpoint counter keys (grid progress, reported on resume)
_COUNTER_CELLS = "cells_completed"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".cell-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _hits_digest(hits: Dict[int, List[Any]]) -> str:
    """Deterministic digest of a hit set (the identity-check currency).

    Hashes exactly the fields :class:`~repro.scoring.hits.Hit` equality
    compares — ``mass`` stays out because span masses legitimately
    differ in the last float bits across database partitionings.
    ``repr`` keeps scores full-precision: two cells agree iff their hits
    are bitwise identical, the same bar the engine-equality tests use.
    """
    blob = json.dumps(
        {
            str(qid): [
                [h.protein_id, h.start, h.stop, repr(h.mod_delta), repr(h.score)]
                for h in hit_list
            ]
            for qid, hit_list in sorted(hits.items())
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_workload(params: Dict[str, Any]):
    """(database, queries) for one cell's ``workload.*`` params."""
    from repro.workloads.queries import QueryWorkload
    from repro.workloads.synthetic import generate_database

    db = generate_database(
        int(params.get("workload.database_size", 1000)),
        seed=int(params.get("workload.seed", 202)),
    )
    workload_kwargs: Dict[str, Any] = {
        "num_queries": int(params.get("workload.queries", 100)),
        "seed": int(params.get("workload.query_seed", 17)),
    }
    for knob in ("min_length", "max_length"):
        key = f"workload.{knob}"
        if key in params:
            workload_kwargs[knob] = int(params[key])
    spectra, _targets = QueryWorkload(**workload_kwargs).build()
    return db, spectra


def build_config(params: Dict[str, Any]):
    """A :class:`~repro.core.config.SearchConfig` from ``config.*`` params."""
    from repro.core.config import SearchConfig

    kwargs: Dict[str, Any] = {}
    for knob in GROUP_FIELDS["config"]:
        key = f"config.{knob}"
        if key in params:
            kwargs[knob] = params[key]
    return SearchConfig(**kwargs)


def store_key(params: Dict[str, Any]) -> str:
    """Stable directory name for the persisted store a cell streams from.

    Cells sharing a database and build geometry share one store under
    ``out_dir/stores/`` — built once by the runner (warm path), opened
    read-only by every cell that names it.
    """
    relevant = {
        k: params[k]
        for k in (
            "workload.database_size",
            "workload.seed",
            "index.mode",
            "index.partition_mb",
        )
        if k in params
    }
    blob = json.dumps(relevant, sort_keys=True, separators=(",", ":"))
    return "store-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def prebuild_store(params: Dict[str, Any], stores_dir: str) -> str:
    """Build (once) the persisted index a resident/partitioned cell uses."""
    from repro.workloads.synthetic import generate_database

    path = os.path.join(stores_dir, store_key(params))
    if os.path.isdir(path):
        return path  # fingerprint-validated at open; rebuilds never race
    os.makedirs(stores_dir, exist_ok=True)
    db = generate_database(
        int(params.get("workload.database_size", 1000)),
        seed=int(params.get("workload.seed", 202)),
    )
    if params.get("index.mode") == "partitioned":
        from repro.store import save_partitioned_index

        save_partitioned_index(
            db, path, partition_mb=float(params.get("index.partition_mb", 4.0))
        )
    else:
        from repro.store import save_index

        save_index(db, path)
    return path


def execute_cell(
    spec: ExperimentSpec, cell: CellSpec, out_dir: str, trace: bool = False
) -> Dict[str, Any]:
    """Run one cell and write its RunReport; returns a small summary.

    The cell's parameters ride inside the report
    (``extras.experiment_cell``) so every cell file is self-describing,
    and a ``hits_digest`` lands in extras for the identity checks.
    """
    from repro.obs.metrics import enable_metrics

    params = cell.params
    db, queries = build_workload(params)
    config = build_config(params)
    algorithm = params.get("engine.algorithm", "algorithm_a")
    ranks = int(params.get("engine.ranks", 1))
    plan = None
    plan_ref = params.get("faults.plan")
    if plan_ref is not None:
        plan = spec.fault_plans[plan_ref]

    registry = enable_metrics()
    registry.reset()
    trace_events: Optional[List[Dict[str, Any]]] = None
    tuning = None
    try:
        from repro.core.driver import choose_plan, run_search
        from repro.simmpi.scheduler import ClusterConfig

        index_path = None
        if params.get("index.mode", "none") != "none":
            index_path = prebuild_store(params, os.path.join(out_dir, "stores"))
        speeds = params.get("engine.rank_speeds")
        budget = params.get("index.memory_budget_mb")
        budget = float(budget) if budget is not None else None
        # a floor, like --query-blocks: multiproc widens the grid to a
        # task per worker, so an injected crash at task id < ranks
        # always lands
        query_blocks = int(params.get("engine.query_blocks", 1))
        start_method = None
        if algorithm == "autotune":
            from repro.store import open_any_index

            store = open_any_index(index_path) if index_path else None
            chosen = choose_plan(db, queries, config, store=store, memory_budget_mb=budget)
            tuning = chosen.tuning_section()
            algorithm, ranks = chosen.algorithm, chosen.num_workers
            query_blocks, start_method = chosen.query_blocks, chosen.start_method
            if chosen.source == "direct":
                index_path = budget = None
        report = run_search(
            db,
            queries,
            algorithm,
            ranks,
            config,
            cluster_config=ClusterConfig(
                num_ranks=ranks,
                record_events=trace,
                rank_speeds=tuple(float(s) for s in speeds) if speeds else None,
            ),
            index_path=index_path,
            memory_budget_mb=budget,
            fault_plan=plan,
            query_blocks=query_blocks,
            start_method=start_method,
        )
        if trace and report.trace is not None:
            from repro.obs.chrome_trace import events_from_summary

            trace_events = events_from_summary(report.trace)
    finally:
        enable_metrics(False)

    extras = {
        **report.extras,
        "experiment_cell": {"id": cell.cell_id, "params": dict(params)},
    }
    if report.hits:  # MODELED cells score nothing; no digest to compare
        extras["hits_digest"] = _hits_digest(report.hits)
    report = dataclasses.replace(report, extras=extras)
    run_report = RunReport.from_search_report(
        report, metrics=registry.snapshot(), tuning=tuning
    )
    cells_dir = os.path.join(out_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    trace_path = None
    if trace_events:
        from repro.obs.chrome_trace import write_chrome_trace

        trace_path = os.path.join(cells_dir, f"{cell.cell_id}.trace.json")
        write_chrome_trace(
            trace_path,
            trace_events,
            {"cell": cell.cell_id, "algorithm": report.algorithm, "ranks": ranks},
        )
    report_path = os.path.join(cells_dir, f"{cell.cell_id}.json")
    _atomic_write(report_path, run_report.to_json() + "\n")
    return {
        "cell_id": cell.cell_id,
        "index": cell.index,
        "report_path": report_path,
        "trace_path": trace_path,
        "virtual_time": report.virtual_time,
        "candidates_evaluated": report.candidates_evaluated,
    }


def _cell_task(spec_payload: Dict[str, Any], cell_index: int, out_dir: str, trace: bool):
    """Top-level (picklable) pool entry point: rebuild the spec, run one cell."""
    spec = ExperimentSpec.from_dict(spec_payload)
    return execute_cell(spec, spec.cell(cell_index), out_dir, trace=trace)


def _grid_fingerprint(spec: ExperimentSpec) -> Dict[str, object]:
    return {"kind": "experiment_grid", "spec_digest": spec.digest(), "num_cells": len(spec.cells())}


def _load_cell_report(path: str) -> Optional[RunReport]:
    try:
        return RunReport.load(path)
    except (OSError, ValueError):
        return None


def run_experiment(
    spec: ExperimentSpec,
    out_dir: str,
    workers: int = 1,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Execute the grid and return the aggregate report (also persisted).

    ``resume=True`` continues a previous run of the *same* spec in
    ``out_dir``: completed cells (checkpointed **and** on disk) are not
    re-executed.  Fresh runs refuse an out_dir holding another grid's
    checkpoint — pass a new directory or resume the old one.
    """
    say = progress or (lambda line: None)
    if workers < 1:
        raise ExperimentSpecError(f"workers must be >= 1, got {workers}")
    cells = spec.cells()
    os.makedirs(out_dir, exist_ok=True)
    fingerprint = _grid_fingerprint(spec)
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    if resume and os.path.exists(checkpoint_path):
        manager = CheckpointManager.resume(checkpoint_path, fingerprint, tau=1)
    else:
        if not resume and os.path.exists(checkpoint_path):
            # a different spec's leftovers must not be silently merged;
            # the same spec's leftovers are what `resume` is for
            raise ExperimentSpecError(
                f"{out_dir} already holds a grid checkpoint; "
                f"run `repro experiments resume` to continue it or choose "
                f"a fresh --out directory"
            )
        manager = CheckpointManager(checkpoint_path, fingerprint, tau=1)
    _atomic_write(
        os.path.join(out_dir, "spec.json"),
        json.dumps(
            {"digest": spec.digest(), "source": spec.source, "spec": spec.to_payload()},
            indent=2,
            sort_keys=True,
        )
        + "\n",
    )

    # completed = checkpointed AND the report file still loads; a cell
    # whose file was deleted or torn re-runs rather than silently
    # missing from the aggregate
    completed: Dict[int, str] = {}
    for cell in cells:
        if cell.index not in manager.completed_tasks:
            continue
        path = os.path.join(out_dir, "cells", f"{cell.cell_id}.json")
        if _load_cell_report(path) is not None:
            completed[cell.index] = path
        else:
            manager.completed_tasks.discard(cell.index)
    pending = [cell for cell in cells if cell.index not in completed]
    if completed:
        say(f"resumed {len(completed)} completed cell(s) from {checkpoint_path}")

    # warm stores are shared across cells; build them once, serially,
    # before the fan-out so parallel cells never race a builder
    for cell in pending:
        if cell.params.get("index.mode", "none") != "none":
            prebuild_store(cell.params, os.path.join(out_dir, "stores"))

    failures: Dict[int, str] = {}

    def record_done(cell: CellSpec, summary: Dict[str, Any]) -> None:
        manager.record(cell.index, {}, counters={_COUNTER_CELLS: 1})  # flushes atomically
        completed[cell.index] = summary["report_path"]
        say(
            f"cell {len(completed) + len(failures)}/{len(cells)} "
            f"{cell.cell_id}: t={summary['virtual_time']:.3f}s "
            f"candidates={summary['candidates_evaluated']}"
        )

    def record_failed(cell: CellSpec, exc: BaseException) -> None:
        failures[cell.index] = f"{type(exc).__name__}: {exc}"
        say(f"cell {cell.cell_id} FAILED: {failures[cell.index]}")

    if workers == 1 or len(pending) <= 1:
        for cell in pending:
            try:
                summary = execute_cell(spec, cell, out_dir, trace=spec.trace)
            except ReproError as exc:
                record_failed(cell, exc)
            else:
                record_done(cell, summary)
    else:
        import concurrent.futures

        payload = spec.to_payload()
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_cell_task, payload, cell.index, out_dir, spec.trace): cell
                for cell in pending
            }
            for future in concurrent.futures.as_completed(futures):
                cell = futures[future]
                try:
                    summary = future.result()
                except (ReproError, concurrent.futures.process.BrokenProcessPool) as exc:
                    record_failed(cell, exc)
                else:
                    record_done(cell, summary)

    manager.flush()
    aggregate = aggregate_run(spec, out_dir, failures=failures)
    return aggregate


def aggregate_run(
    spec: ExperimentSpec,
    out_dir: str,
    failures: Optional[Dict[int, str]] = None,
) -> Dict[str, Any]:
    """(Re)build the aggregate purely from the on-disk cell reports.

    Called at the end of every run *and* by ``repro experiments report``
    — the same inputs (spec + cell files) always produce the same bytes,
    which is what makes the killed-and-resumed grid's aggregate bitwise
    identical to an uninterrupted run's.
    """
    failures = failures or {}
    entries: List[Dict[str, Any]] = []
    for cell in spec.cells():
        path = os.path.join(out_dir, "cells", f"{cell.cell_id}.json")
        report = _load_cell_report(path)
        trace_path = os.path.join(out_dir, "cells", f"{cell.cell_id}.trace.json")
        entries.append(
            {
                "cell": cell,
                "report": report,
                "report_path": os.path.join("cells", f"{cell.cell_id}.json"),
                "trace_path": (
                    os.path.join("cells", f"{cell.cell_id}.trace.json")
                    if os.path.exists(trace_path)
                    else None
                ),
                "error": failures.get(
                    cell.index, None if report is not None else "report missing"
                ),
            }
        )
    aggregate = build_aggregate(spec, entries)
    _atomic_write(
        os.path.join(out_dir, "report.json"),
        json.dumps(aggregate, indent=2, sort_keys=True) + "\n",
    )
    _atomic_write(os.path.join(out_dir, "report.txt"), format_ascii(aggregate) + "\n")
    return aggregate
