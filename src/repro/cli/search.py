"""``repro search`` and ``repro trace``: run one search, print or export it."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import tempfile

from repro.cli.options import (
    add_db_options,
    add_search_args,
    existing_file,
    explicit_cli_options,
    load_database,
    make_config,
    positive_float,
    positive_int,
)
from repro.core.config import ExecutionMode
from repro.core.driver import ALGORITHMS, run_search
from repro.utils.format import format_si
from repro.workloads.queries import generate_queries

_ENGINES = sorted(ALGORITHMS) + ["multiproc"]

#: ``repro search``'s exit status when multiproc quarantined tasks: the
#: outputs are written, and hold only the tasks that completed
EXIT_PARTIAL = 3


def _apply_autotune(args: argparse.Namespace, explicit: set, plan, index_path, store):
    """Adopt the rule's pick; explicitly typed flags win.

    Mutates ``args`` in place for every knob the user did not type,
    warns (stderr) for each explicit flag that contradicts the rule's
    pick, and returns the RunReport ``tuning`` section of the plan that
    runs, with the overriding flags.
    """
    knobs = [
        ("algorithm", ("--algorithm", "-a"), plan.algorithm),
        ("ranks", ("--ranks", "-p"), plan.num_workers),
        ("query_blocks", ("--query-blocks",), plan.query_blocks),
        ("start_method", ("--start-method",), plan.start_method),
    ]
    overrides = []
    for attr, options, value in knobs:
        if not explicit.intersection(options):
            setattr(args, attr, value)
        elif getattr(args, attr) != value:
            overrides.append(options[0])
    # a store is only ever named explicitly: --stream / --index-path
    # serve the search from it whatever the rule says
    source = "direct"
    if index_path is not None:
        source = "streamed" if store.partitioned else "resident"
        if source != plan.source:
            overrides.append("--stream" if args.stream else "--index-path")
    for option in overrides:
        print(
            f"warning: explicit {option} overrides the autotuned choice "
            f"({plan.label})",
            file=sys.stderr,
        )
    ran = dataclasses.replace(
        plan,
        algorithm=args.algorithm,
        num_workers=args.ranks,
        query_blocks=args.query_blocks,
        start_method=args.start_method,
        source=source,
    )
    inputs = plan.inputs
    print(
        f"autotune: chose {plan.label} ({inputs['candidates']} candidates "
        f"vs crossover {inputs['crossover']}, {inputs['cpus']} cpu(s))"
    )
    return ran.tuning_section(overrides)


def cmd_search(args: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlan

    db = load_database(args)
    queries = generate_queries(args.queries, seed=args.query_seed)
    explicit = explicit_cli_options(getattr(args, "_cli_argv", []))
    tuning_section = None
    config = make_config(args)
    fault_plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    index_path = args.index_path
    store = None
    registry = None
    # the stack owns the throwaway store of --stream and the metrics
    # registry of --report-out: a typed error anywhere below still
    # removes the one and switches the other off
    with contextlib.ExitStack() as stack:
        if index_path and (args.stream or args.autotune):
            from repro.store import open_any_index

            store = open_any_index(index_path)
            if args.stream and not store.partitioned:
                from repro.errors import IndexCompatError

                raise IndexCompatError(
                    f"--stream needs a partitioned store "
                    f"(`repro index build --partition-mb ...`); "
                    f"{index_path} holds a resident-format store"
                )
        elif args.stream:
            # --stream without a store: build a throwaway partitioned
            # store in a temp dir and stream the search from it — a
            # self-contained out-of-core run with no separate build step
            from repro.store import save_partitioned_index

            index_path = os.path.join(
                stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-pstore-")),
                "index",
            )
            store = save_partitioned_index(db, index_path, partition_mb=args.partition_mb)
        if args.autotune:
            from repro.core.driver import choose_plan

            plan = choose_plan(
                db, queries, config, store=store, memory_budget_mb=args.memory_budget_mb
            )
            tuning_section = _apply_autotune(args, explicit, plan, index_path, store)
        if args.algorithm == "serial" and not {"--ranks", "-p"} & explicit:
            args.ranks = 1  # the only count the serial engine takes
        if args.report_out:
            # collect runtime telemetry for the RunReport; search results
            # are bitwise identical with or without it
            from repro.obs.metrics import enable_metrics

            registry = enable_metrics()
            registry.reset()
            stack.callback(enable_metrics, False)
        report = run_search(
            db,
            queries,
            args.algorithm,
            args.ranks,
            config,
            index_path=index_path,
            memory_budget_mb=args.memory_budget_mb,
            fault_plan=fault_plan,
            query_blocks=args.query_blocks,
            start_method=args.start_method,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
    if report.extras.get("degraded"):
        print(
            f"warning: {len(report.extras['failed_tasks'])} task(s) quarantined "
            f"after retries; results are partial",
            file=sys.stderr,
        )
    if report.extras.get("tasks_resumed"):
        print(
            f"resumed {report.extras['tasks_resumed']} completed task(s) from "
            f"{args.checkpoint}"
        )
    if report.extras.get("failed_ranks"):
        print(
            f"survived rank failure(s) {report.extras['failed_ranks']}: "
            f"{report.extras['recovery_fetches']} recovery fetches, "
            f"{report.extras['recovery_time']:.3f}s recovery time"
        )
    if registry is not None:
        from repro.obs.report import RunReport

        RunReport.from_search_report(
            report, metrics=registry.snapshot(), tuning=tuning_section
        ).write(args.report_out)
        print(f"wrote run report to {args.report_out}")
    if args.output:
        from repro.core.results import write_tsv

        write_tsv(report, args.output, database=db)
        print(f"wrote identifications to {args.output}")
    # a multiproc report's virtual_time is the wall clock it ran for
    clock = "wall" if args.algorithm == "multiproc" else "simulated"
    print(
        f"{report.algorithm} p={report.num_ranks}: {clock} time "
        f"{report.virtual_time:.2f}s, {report.candidates_evaluated} candidate "
        f"evaluations ({report.candidates_per_second:.0f}/s)"
    )
    stream = report.extras.get("stream")
    if stream:
        print(
            f"  streamed {stream['partitions']} partition(s): "
            f"{format_si(stream['bytes_read'])}B of rows read, "
            f"{stream['prefetch_hits']} prefetch hit(s) / "
            f"{stream['prefetch_stalls']} stall(s), "
            f"exposed I/O {stream['partition_exposed_io']:.3f}s"
        )
    shown = 0
    for qid in sorted(report.hits):
        if shown >= args.show:
            break  # a query not printed is not indexed: its Hits are never built
        top = report.top_hit(qid)
        if top is None:
            continue
        print(
            f"  query {qid}: protein {top.protein_id} span "
            f"[{top.start},{top.stop}) mass {top.mass:.3f} score {top.score:.3f}"
        )
        shown += 1
    return EXIT_PARTIAL if report.extras.get("degraded") else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export one run's timeline for chrome://tracing / Perfetto.

    Simulated engines replay in MODELED execution with per-rank event
    recording on (one lane per rank, virtual time); the multiproc engine
    runs for real with the metrics registry enabled (one lane per worker
    process, wall time).
    """
    from repro.obs.chrome_trace import (
        events_from_metrics,
        events_from_summary,
        write_chrome_trace,
    )

    db = load_database(args)
    queries = generate_queries(args.queries, seed=args.query_seed)
    if args.algorithm == "multiproc":
        if args.format == "ascii":
            print(
                "error: --format ascii needs a simulated engine "
                "(per-rank virtual timelines); multiproc exports chrome only",
                file=sys.stderr,
            )
            return 2
        from repro.obs.metrics import enable_metrics

        registry = enable_metrics()
        registry.reset()
        try:
            report = run_search(db, queries, "multiproc", args.ranks, make_config(args))
        finally:
            enable_metrics(False)
        events = events_from_metrics(registry.snapshot())
        metadata = {
            "algorithm": report.algorithm,
            "engine": "multiproc",
            "ranks": report.num_ranks,
            "wall_time": report.virtual_time,
        }
    else:
        from repro.simmpi.scheduler import ClusterConfig

        report = run_search(
            db, queries, args.algorithm, args.ranks,
            make_config(args, ExecutionMode.MODELED),
            cluster_config=ClusterConfig(num_ranks=args.ranks, record_events=True),
        )
        if report.trace is None:
            print(
                f"error: {args.algorithm} produced no per-rank trace",
                file=sys.stderr,
            )
            return 2
        if args.format == "ascii":
            from repro.analysis.timeline import ascii_gantt, utilization_table

            print(utilization_table(report.trace))
            print()
            print(ascii_gantt(report.trace, width=args.width))
            return 0
        events = events_from_summary(report.trace)
        metadata = {
            "algorithm": report.algorithm,
            "engine": "simmpi",
            "ranks": report.num_ranks,
            "virtual_time": report.virtual_time,
        }
    write_chrome_trace(args.out, events, metadata)
    print(
        f"wrote {len(events)} trace events to {args.out} "
        f"(open in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def register(sub) -> None:
    p_search = sub.add_parser(
        "search",
        help="run one search and print top hits",
        epilog=f"exit status: 0 on success; 2 on a usage or typed error; "
        f"{EXIT_PARTIAL} when multiproc quarantined tasks after retries "
        f"(the hits, TSV and report are written, but partial)",
    )
    add_db_options(p_search, "search")
    add_search_args(p_search)
    p_search.add_argument("--algorithm", "-a", choices=_ENGINES, default="algorithm_a")
    p_search.add_argument(
        "--ranks", "-p", type=positive_int, default=4,
        help="processor count (the serial engine runs on 1 unless you type another)",
    )
    p_search.add_argument("--show", type=int, default=5, help="queries to print")
    p_search.add_argument("--output", "-o", default=None, help="write hits as TSV")
    p_search.add_argument(
        "--fault-plan", type=existing_file, default=None,
        help="JSON fault plan injected into the run (see docs/fault_tolerance.md)",
    )
    p_search.add_argument(
        "--checkpoint", default=None,
        help="multiproc: persist completed-task state to this path",
    )
    p_search.add_argument(
        "--resume", action="store_true",
        help="multiproc: resume from --checkpoint, skipping completed tasks",
    )
    p_search.add_argument(
        "--max-retries", type=int, default=2,
        help="multiproc: retries per failing task before quarantine",
    )
    p_search.add_argument(
        "--task-timeout", type=positive_float, default=None,
        help="multiproc: seconds before a hung task is resubmitted",
    )
    p_search.add_argument(
        "--index-path", default=None,
        help="serve the search from a persisted index directory built with "
        "`repro index build` (real engines only; fingerprint-validated "
        "against the database); a partitioned store streams out-of-core",
    )
    p_search.add_argument(
        "--stream", action="store_true",
        help="stream the search out-of-core from a partitioned store: with "
        "--index-path the store must be partitioned (built with "
        "--partition-mb); without it a temporary partitioned store is "
        "built first and discarded after the run",
    )
    p_search.add_argument(
        "--partition-mb", type=positive_float, default=32.0,
        help="partition size (MiB of rows) for the temporary store that "
        "--stream builds when no --index-path is given",
    )
    p_search.add_argument(
        "--memory-budget-mb", type=positive_float, default=None,
        help="bound each streaming reader's resident partition bytes (the "
        "rows it holds); the prefetch thread blocks rather than exceed it",
    )
    p_search.add_argument(
        "--report-out", default=None,
        help="write a schema-versioned RunReport (JSON) with trace, fault "
        "stats and a metrics snapshot (see docs/observability.md)",
    )
    p_search.add_argument(
        "--query-blocks", type=positive_int, default=1,
        help="multiproc: cut the mass-sorted queries into at least this "
        "many contiguous blocks, one task each (a floor: raised until "
        "every worker has a task; finer tasks, better balance)",
    )
    p_search.add_argument(
        "--start-method", choices=["fork", "spawn", "forkserver"], default=None,
        help="multiproc: worker start method (default: platform choice)",
    )
    p_search.add_argument(
        "--autotune", action="store_true",
        help="pick serial or multiproc, direct or streamed, from the "
        "workload's candidate count, the host's cores and the memory "
        "budget (docs/search_pipeline.md); flags you type explicitly win",
    )
    p_search.set_defaults(func=cmd_search)

    p_trace = sub.add_parser(
        "trace", help="export one run's timeline as Chrome trace-event JSON"
    )
    add_db_options(p_trace)
    add_search_args(p_trace)
    p_trace.add_argument("--algorithm", "-a", choices=_ENGINES, default="algorithm_a")
    p_trace.add_argument("--ranks", "-p", type=positive_int, default=4)
    p_trace.add_argument(
        "--format", choices=["chrome", "ascii"], default="chrome",
        help="chrome: trace-event JSON for chrome://tracing/Perfetto; "
        "ascii: per-rank utilization table and gantt on stdout "
        "(simulated engines only)",
    )
    p_trace.add_argument("--out", default="trace.json", help="chrome output path")
    p_trace.add_argument("--width", type=int, default=80, help="ascii gantt width")
    p_trace.set_defaults(func=cmd_trace)
