"""Command-line interface: ``python -m repro <command>`` or ``repro <command>``.

Commands:

* ``generate`` — write a synthetic database as FASTA.
* ``search``   — run a search with any engine and print the top hits
  (``--index-path`` serves it from a persisted index, see below).
* ``index``    — ``index build`` persists a fragment index to a
  directory (build once); ``index inspect`` prints its header.  A
  persisted index is fingerprint-bound to the exact database and build
  options that produced it and is memory-mapped read-only at search
  time (load many); see docs/index_persistence.md.
* ``scaling``  — regenerate a Table II-style run-time/speedup grid.
* ``validate`` — check that Algorithms A and B reproduce the serial
  engine's output exactly (the paper's validation experiment).
* ``calibrate`` — measure this host's per-candidate scoring cost.
* ``tune``     — calibrate the cost model against this host, search the
  configuration grid for the lowest predicted makespan, run the pick,
  and report predicted-vs-measured phase times plus overlap lower
  bounds (docs/autotuning.md).  ``search --autotune`` applies the same
  planner to a search; explicitly typed flags always win.
* ``trace``    — export one run's timeline as Chrome trace-event JSON
  (open in chrome://tracing or Perfetto) or an ascii gantt.
* ``serve``    — start the long-lived search service and replay a
  deterministic multi-client request storm against it (admission
  control, coalescing, deadlines, fault injection; docs/service.md).
* ``experiments`` — run/resume/report a declarative scenario grid
  (``scenarios/*.yaml``): every cell a checkpointed RunReport, one
  aggregate with speedup/efficiency tables and identity checks
  (docs/experiments.md).  ``repro experiments run
  scenarios/paper_tables.yaml`` reproduces the paper's tables.

``search --report-out report.json`` writes the schema-versioned
:class:`~repro.obs.report.RunReport` (trace, fault stats, extras and a
metrics snapshot in one document); see docs/observability.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

from repro.analysis.calibration import calibrate_rho
from repro.analysis.metrics import scaling_table
from repro.analysis.tables import format_runtime_table, format_scaling_rows
from repro.chem.fasta import read_fasta, write_fasta
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.driver import ALGORITHMS, run_search
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.errors import ReproError
from repro.utils.format import format_si
from repro.workloads.datasets import load_dataset
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a value > 0, got {value}")
    return value


def _existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"file not found: {text}")
    return text


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--database-size", "-n", type=_positive_int, default=2000, help="number of synthetic proteins")
    p.add_argument("--queries", "-m", type=_positive_int, default=100, help="number of query spectra")
    p.add_argument("--seed", type=int, default=202, help="database seed")
    p.add_argument("--query-seed", type=int, default=17, help="query workload seed")
    p.add_argument("--delta", type=_positive_float, default=3.0, help="parent-mass tolerance (Da)")
    p.add_argument("--tau", type=_positive_int, default=50, help="top hits kept per query")
    p.add_argument("--scorer", default="likelihood", help="scoring model")
    p.add_argument(
        "--use-index",
        dest="use_index",
        action="store_true",
        default=True,
        help="serve unmodified candidates from the fragment-ion index (default)",
    )
    p.add_argument(
        "--no-index",
        dest="use_index",
        action="store_false",
        help="disable the fragment-ion index (direct batch scoring only)",
    )
    p.add_argument(
        "--sweep-cohort",
        type=_positive_int,
        default=64,
        help="max queries packed into one scoring block",
    )


def _explicit_cli_options(argv: List[str]) -> set:
    """Option strings the user actually typed (``--flag`` / ``--flag=x`` / ``-f``).

    argparse cannot distinguish a default from an explicitly passed
    default, so ``--autotune`` precedence ("explicit wins") scans the
    raw argv instead.
    """
    seen = set()
    for token in argv:
        if token == "--":
            break
        if token.startswith("--"):
            seen.add(token.split("=", 1)[0])
        elif token.startswith("-") and len(token) > 1 and not token[1].isdigit():
            seen.add(token[:2])
    return seen


def _apply_autotune(args: argparse.Namespace, db, queries):
    """Let the autotuner pick engine/knobs; explicitly typed flags win.

    Mutates ``args`` in place for every knob the user did not type,
    warns (stderr) for each explicit flag that contradicts the
    autotuned choice, and returns the RunReport ``tuning`` section.
    """
    from repro.tune import autotune

    result = autotune(
        db,
        queries,
        _make_config(args),
        cache_path=args.tune_cache,
        run=False,
        lower_bounds=False,
    )
    plan = result.chosen
    explicit = _explicit_cli_options(getattr(args, "_cli_argv", []))
    knobs = [
        ("algorithm", {"--algorithm", "-a"},
         "multiproc" if plan.engine == "multiproc" else "serial"),
        ("ranks", {"--ranks", "-p"},
         plan.num_workers if plan.engine == "multiproc" else 1),
        ("use_index", {"--use-index", "--no-index"}, plan.use_index),
        ("sweep_cohort", {"--sweep-cohort"}, plan.sweep_cohort),
        ("query_blocks", {"--query-blocks"}, plan.query_blocks),
        ("start_method", {"--start-method"}, plan.start_method),
    ]
    for attr, options, value in knobs:
        typed = options & explicit
        if typed:
            if getattr(args, attr) != value:
                print(
                    f"warning: explicit {sorted(typed)[0]} overrides the "
                    f"autotuned choice ({value!r}); the predicted makespan "
                    f"no longer applies",
                    file=sys.stderr,
                )
        else:
            setattr(args, attr, value)
    print(
        f"autotune: chose {plan.label} (predicted "
        f"{result.prediction.total:.3f}s over {len(result.ranking)} "
        f"feasible configuration(s), calibration {result.calibration.source})"
    )
    return result.tuning


def _make_config(args: argparse.Namespace, execution: ExecutionMode = ExecutionMode.REAL) -> SearchConfig:
    return SearchConfig(
        delta=args.delta,
        tau=args.tau,
        scorer=args.scorer,
        execution=execution,
        use_index=getattr(args, "use_index", True),
        sweep_cohort=getattr(args, "sweep_cohort", 64),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    db = (
        load_dataset(args.dataset, n=args.database_size)
        if args.dataset
        else generate_database(args.database_size, seed=args.seed)
    )
    write_fasta(args.output, db)
    print(f"wrote {len(db)} sequences ({format_si(db.total_residues)} residues) to {args.output}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    db = (
        read_fasta(args.database)
        if args.database
        else generate_database(args.database_size, seed=args.seed)
    )
    queries = generate_queries(args.queries, seed=args.query_seed)
    tuning_section = None
    if args.autotune:
        tuning_section = _apply_autotune(args, db, queries)
    if args.memory_budget_mb is not None and not args.stream and not args.index_path:
        from repro.errors import ConfigError

        raise ConfigError(
            "--memory-budget-mb bounds streamed partition residency and is "
            "silently meaningless for resident runs; add --stream, or point "
            "--index-path at a partitioned store"
        )
    config = _make_config(args)
    index_path = args.index_path
    stream_tmp = None
    if args.stream and not index_path:
        # --stream without a store: build a throwaway partitioned store
        # next to nothing (temp dir) and stream the search from it — a
        # self-contained out-of-core run with no separate build step.
        import tempfile

        from repro.errors import IndexCompatError
        from repro.store import save_partitioned_index

        if args.algorithm not in ("serial", "multiproc"):
            raise IndexCompatError(
                f"--stream is served by the real engines (serial, multiproc); "
                f"the simulated engine {args.algorithm!r} models execution"
            )
        stream_tmp = tempfile.TemporaryDirectory(prefix="repro-pstore-")
        index_path = os.path.join(stream_tmp.name, "index")
        save_partitioned_index(
            db,
            index_path,
            partition_mb=args.partition_mb,
            fragment_tolerance=config.fragment_tolerance,
            max_length=config.index_max_length,
        )
    index_store = None
    if index_path:
        # Every misuse below is a *typed* ReproError: main() turns it
        # into a one-line `error: ...` message, never a traceback.
        from repro.core.search import index_compat_problems
        from repro.errors import IndexCompatError
        from repro.store import open_any_index
        from repro.store.partitioned import PartitionedIndex

        if args.algorithm not in ("serial", "multiproc"):
            raise IndexCompatError(
                f"--index-path is served by the real engines (serial, "
                f"multiproc); the simulated engine {args.algorithm!r} models "
                f"execution and cannot memory-map a persisted index"
            )
        # opened here so a missing/corrupt path fails before any work;
        # the engines fingerprint-validate it against the database
        store = open_any_index(index_path)
        if isinstance(store, PartitionedIndex):
            from repro.core.streaming import streaming_compat_problems

            problems = streaming_compat_problems(config)
            if problems:
                raise IndexCompatError(
                    "this search cannot be streamed from the partitioned "
                    "index: " + "; ".join(problems)
                )
        else:
            if args.stream:
                raise IndexCompatError(
                    f"--stream needs a partitioned store "
                    f"(`repro index build --partition-mb ...`); "
                    f"{index_path} holds a resident-format store"
                )
            if args.memory_budget_mb is not None:
                from repro.errors import ConfigError

                raise ConfigError(
                    f"--memory-budget-mb bounds streamed partition residency; "
                    f"{index_path} holds a resident-format store that is "
                    f"memory-mapped whole"
                )
            problems = index_compat_problems(config)
            if problems:
                raise IndexCompatError(
                    "this search cannot be served from the persisted index: "
                    + "; ".join(problems)
                )
        if args.algorithm == "serial":
            index_store = store
    registry = None
    if args.report_out:
        # collect runtime telemetry for the RunReport; search results are
        # bitwise identical with or without it
        from repro.obs.metrics import enable_metrics

        registry = enable_metrics()
        registry.reset()
    if args.algorithm == "multiproc":
        from repro.engines.multiproc import run_multiprocess_search
        from repro.faults.injector import FaultInjector, TaskFault

        injector = None
        if args.fault_plan:
            from repro.faults.plan import FaultPlan

            plan = FaultPlan.from_file(args.fault_plan)
            # map simulated rank crashes onto task crashes: a crash of
            # rank r becomes a single injected crash of task r
            injector = FaultInjector(
                tuple(TaskFault(c.rank, "crash", attempts=1) for c in plan.crashes)
            )
        report = run_multiprocess_search(
            db,
            queries,
            num_workers=args.ranks,
            config=config,
            query_blocks=args.query_blocks,
            start_method=args.start_method,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            fault_injector=injector,
            index_path=index_path,
            memory_budget_mb=args.memory_budget_mb,
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
    elif index_store is not None:
        from repro.errors import ConfigError

        if args.ranks != 1:
            raise ConfigError(
                f"serial engine requires num_ranks == 1, got {args.ranks}"
            )
        report = search_serial(
            db,
            queries,
            config,
            index_store=index_store,
            memory_budget_mb=args.memory_budget_mb,
        )
    else:
        cluster_config = None
        if args.fault_plan:
            from repro.faults.plan import FaultPlan
            from repro.simmpi.scheduler import ClusterConfig

            cluster_config = ClusterConfig(
                num_ranks=args.ranks, fault_plan=FaultPlan.from_file(args.fault_plan)
            )
        report = run_search(
            db, queries, args.algorithm, args.ranks, config, cluster_config=cluster_config
        )
        if report.extras.get("failed_ranks"):
            print(
                f"survived rank failure(s) {report.extras['failed_ranks']}: "
                f"{report.extras['recovery_fetches']} recovery fetches, "
                f"{report.extras['recovery_time']:.3f}s recovery time"
            )
    if registry is not None:
        from repro.obs.metrics import enable_metrics
        from repro.obs.report import RunReport

        enable_metrics(False)
        RunReport.from_search_report(
            report, metrics=registry.snapshot(), tuning=tuning_section
        ).write(args.report_out)
        print(f"wrote run report to {args.report_out}")
    if args.output:
        from repro.core.results import write_tsv

        write_tsv(report, args.output, database=db)
        print(f"wrote identifications to {args.output}")
    print(
        f"{report.algorithm} p={report.num_ranks}: simulated time "
        f"{report.virtual_time:.2f}s, {report.candidates_evaluated} candidate "
        f"evaluations ({report.candidates_per_second:.0f}/s)"
    )
    stream = report.extras.get("stream")
    if stream:
        print(
            f"  streamed {stream['partitions']} partition(s): "
            f"{format_si(stream['bytes_read'])}B read -> "
            f"{format_si(stream['bytes_decoded'])}B decoded, "
            f"{stream['prefetch_hits']} prefetch hit(s) / "
            f"{stream['prefetch_stalls']} stall(s), "
            f"exposed I/O {stream['partition_exposed_io']:.3f}s"
        )
    shown = 0
    for qid in sorted(report.hits):
        top = report.top_hit(qid)
        if top is None or shown >= args.show:
            continue
        print(
            f"  query {qid}: protein {top.protein_id} span "
            f"[{top.start},{top.stop}) mass {top.mass:.3f} score {top.score:.3f}"
        )
        shown += 1
    if stream_tmp is not None:
        stream_tmp.cleanup()
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    """Build a persistent fragment-index store (build once, load many).

    With ``--partition-mb`` the store is the *partitioned* out-of-core
    format instead: mass-contiguous compressed partitions streamed at
    search time (``search --stream`` / ``--index-path``).
    """
    db = (
        read_fasta(args.database)
        if args.database
        else generate_database(args.database_size, seed=args.seed)
    )
    if args.partition_mb is not None:
        from repro.store import save_partitioned_index

        store = save_partitioned_index(
            db,
            args.output,
            partition_mb=args.partition_mb,
            fragment_tolerance=args.fragment_tolerance,
            max_length=args.index_max_length,
            overwrite=args.overwrite,
        )
        info = store.describe()
        print(
            f"built partitioned index for {len(db)} sequences "
            f"({format_si(db.total_residues)} residues): "
            f"{info['num_partitions']} partition(s), "
            f"{format_si(info['blob_bytes'])}B compressed "
            f"({format_si(info['decoded_bytes'])}B decoded, "
            f"{format_si(info['max_partition_bytes'])}B double-buffer unit) "
            f"at {args.output}"
        )
        print(f"fingerprint {store.fingerprint}")
        return 0
    from repro.store import save_index

    store = save_index(
        db,
        args.output,
        num_shards=args.shards,
        fragment_tolerance=args.fragment_tolerance,
        max_length=args.index_max_length,
        overwrite=args.overwrite,
    )
    info = store.describe()
    print(
        f"built index for {len(db)} sequences "
        f"({format_si(db.total_residues)} residues): {info['num_shards']} "
        f"shard(s), {format_si(info['total_bytes'])}B at {args.output}"
    )
    print(f"fingerprint {store.fingerprint}")
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """Print a persisted index's header: schema, fingerprint, manifests.

    Dispatches on the on-disk schema: resident stores list shards,
    partitioned stores list per-partition m/z ranges, postings counts
    and compressed/decoded sizes.
    """
    from repro.store import open_any_index
    from repro.store.partitioned import PartitionedIndex

    store = open_any_index(args.path)
    info = store.describe()
    if isinstance(store, PartitionedIndex):
        build = info["build"]
        print(f"partitioned index store {info['path']}")
        print(f"  schema       {info['schema']}")
        print(f"  fingerprint  {info['fingerprint']}")
        print(
            f"  build        fragment_tolerance={build['fragment_tolerance']} "
            f"max_length={build['max_length']} "
            f"monoisotopic={build['monoisotopic']} "
            f"partition_mb={build['partition_mb']}"
        )
        print(
            f"  bytes        compressed={format_si(info['blob_bytes'])}B "
            f"decoded={format_si(info['decoded_bytes'])}B "
            f"double_buffer_unit={format_si(info['max_partition_bytes'])}B"
        )
        print(
            f"  rows         {info['num_rows']} in {info['num_partitions']} "
            f"partition(s) + {info['overflow_spans']} overflow span(s)"
        )
        for p in info["partitions"]:
            print(
                f"  {p['name']}  m/z [{p['mass_lo']:.3f}, {p['mass_hi']:.3f}] "
                f"rows={p['num_rows']} postings={p['postings']} "
                f"compressed={format_si(p['blob_bytes'])}B "
                f"decoded={format_si(p['decoded_bytes'])}B"
            )
        return 0
    build = info["build"]
    print(f"index store {info['path']}")
    print(f"  schema       {info['schema']}")
    print(f"  fingerprint  {info['fingerprint']}")
    print(
        f"  build        fragment_tolerance={build['fragment_tolerance']} "
        f"max_length={build['max_length']} "
        f"monoisotopic={build['monoisotopic']} "
        f"shards={build['num_shards']}"
    )
    print(
        f"  bytes        total={format_si(info['total_bytes'])}B "
        f"index={format_si(info['index_bytes'])}B"
    )
    for shard in info["shards"]:
        print(
            f"  {shard['dir']}  rows={shard['num_rows']} "
            f"fragments={shard['num_fragments']} "
            f"bytes={format_si(shard['bytes'])}B"
        )
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    queries = generate_queries(args.queries, seed=args.query_seed)
    config = _make_config(args, ExecutionMode.MODELED)
    sizes = [int(s) for s in args.sizes.split(",")]
    ranks = [int(p) for p in args.ranks_list.split(",")]
    run_times = {}
    for n in sizes:
        db = generate_database(n, seed=args.seed)
        run_times[n] = {}
        for p in ranks:
            rep = run_search(db, queries, args.algorithm, p, config)
            run_times[n][p] = rep.virtual_time
    print(format_runtime_table(run_times, ranks, title=f"{args.algorithm} run-times (s)"))
    print()
    print(format_scaling_rows(scaling_table(run_times), title="speedup / efficiency"))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    db = generate_database(args.database_size, seed=args.seed)
    queries = generate_queries(args.queries, seed=args.query_seed)
    config = _make_config(args)
    reference = search_serial(db, queries, config)
    failed = False
    for algorithm in ("algorithm_a", "algorithm_b", "master_worker"):
        report = run_search(db, queries, algorithm, args.ranks, config)
        ok = reports_equal(reference, report)
        print(f"{algorithm} p={args.ranks}: {'OK — output identical to serial' if ok else 'MISMATCH'}")
        failed |= not ok
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run several engines on one workload; compare time, memory, quality."""
    from repro.analysis.quality import recovery
    from repro.workloads.queries import QueryWorkload

    db = generate_database(args.database_size, seed=args.seed)
    spectra, targets = QueryWorkload(
        num_queries=args.queries, seed=args.query_seed, source=db
    ).build()
    config = _make_config(args)
    algorithms = args.algorithms.split(",")
    rows = []
    for algorithm in algorithms:
        report = run_search(db, spectra, algorithm, args.ranks, config)
        quality = recovery(db, report, spectra, targets, k=min(args.tau, 10))
        rows.append(
            [
                algorithm,
                f"{report.virtual_time:.3f}",
                format_si(report.max_peak_memory),
                f"{report.candidates_evaluated}",
                f"{quality.recall_at_1:.2f}",
            ]
        )
    from repro.utils.format import render_table

    print(
        render_table(
            ["algorithm", "sim time (s)", "peak rank mem", "candidates", "recall@1"],
            rows,
            title=f"{args.database_size}-sequence DB, {args.queries} queries, p={args.ranks}",
        )
    )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Render a per-rank gantt of one simulated run."""
    from repro.analysis.timeline import ascii_gantt, utilization_table
    from repro.simmpi.scheduler import ClusterConfig

    db = generate_database(args.database_size, seed=args.seed)
    queries = generate_queries(args.queries, seed=args.query_seed)
    config = _make_config(args, ExecutionMode.MODELED)
    report = run_search(
        db, queries, args.algorithm, args.ranks, config,
        cluster_config=ClusterConfig(num_ranks=args.ranks, record_events=True),
    )
    assert report.trace is not None
    print(utilization_table(report.trace))
    print()
    print(ascii_gantt(report.trace, width=args.width))
    return 0


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

    db = generate_database(args.database_size, seed=args.seed)
    queries = generate_queries(args.queries, seed=args.query_seed)
    if args.algorithm == "multiproc":
        if args.format == "ascii":
            print(
                "error: --format ascii needs a simulated engine "
                "(per-rank virtual timelines); multiproc exports chrome only",
                file=sys.stderr,
            )
            return 2
        from repro.engines.multiproc import run_multiprocess_search
        from repro.obs.metrics import enable_metrics

        registry = enable_metrics()
        registry.reset()
        try:
            report = run_multiprocess_search(
                db, queries, num_workers=args.ranks, config=_make_config(args)
            )
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

        config = _make_config(args, ExecutionMode.MODELED)
        report = run_search(
            db, queries, args.algorithm, args.ranks, config,
            cluster_config=ClusterConfig(num_ranks=args.ranks, record_events=True),
        )
        if report.trace is None:
            print(
                f"error: {args.algorithm} produced no per-rank trace",
                file=sys.stderr,
            )
            return 2
        if args.format == "ascii":
            from repro.analysis.timeline import ascii_gantt

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


def cmd_advise(args: argparse.Namespace) -> int:
    """Recommend an engine for a workload (paper Section III.A guidance)."""
    from repro.core.advisor import advise

    advice = advise(
        num_sequences=args.sequences,
        total_residues=args.residues if args.residues > 0 else int(args.sequences * 314.44),
        num_ranks=args.ranks,
        ram_per_rank=args.ram,
    )
    print(f"recommended engine: {advice.summary}")
    for reason in advice.reasons:
        print(f"  - {reason}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Assemble benchmarks/output/*.txt into one reproduction report."""
    from pathlib import Path

    out_dir = Path(args.output_dir)
    if not out_dir.is_dir():
        print(
            f"{out_dir} not found - run `pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    order = [
        "table1", "table2", "fig4", "table3", "table4", "fig1a", "fig1b",
        "masking", "memory", "validation", "xbang", "models", "extensions",
        "sensitivity",
    ]
    def section(name: str, path) -> str:
        body = path.read_text().rstrip()
        return f"## {name}\n\n```\n{body}\n```\n"

    sections = []
    for name in order:
        path = out_dir / f"{name}.txt"
        if path.exists():
            sections.append(section(name, path))
    for path in sorted(out_dir.glob("*.txt")):
        if path.stem not in order:
            sections.append(section(path.stem, path))
    report = (
        "# Reproduction report\n\n"
        "Regenerated tables/figures for Kulkarni et al., ICPP Workshops 2009.\n"
        "See EXPERIMENTS.md for the paper-vs-measured discussion.\n\n"
        + "\n".join(sections)
    )
    target = Path(args.output)
    if target.exists():
        # generated experiment-grid blocks survive a bench-report rebuild:
        # they are owned by `repro experiments report --update`, not by us
        report = _preserve_experiment_blocks(target.read_text(), report)
    target.write_text(report)
    print(f"wrote {target} ({len(sections)} sections)")
    return 0


def _preserve_experiment_blocks(old: str, new: str) -> str:
    """Carry ``<!-- experiments:NAME begin/end -->`` blocks from old to new."""
    import re

    from repro.experiments import extract_markdown, splice_markdown

    for name in re.findall(r"<!-- experiments:([\w.+-]+) begin -->", old):
        content = extract_markdown(old, name)
        if content is not None:
            new = splice_markdown(new, name, content)
    return new


def _experiments_out_dir(args: argparse.Namespace, spec) -> str:
    return args.out or os.path.join("runs", spec.name)


def _experiments_finish(args: argparse.Namespace, spec, out_dir: str, aggregate) -> int:
    """Shared tail of run/resume/report: emit, splice, decide exit status."""
    from repro.experiments import format_ascii, format_markdown, splice_markdown

    fmt = getattr(args, "format", "ascii")
    if fmt == "json":
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    elif fmt == "markdown":
        print(format_markdown(aggregate))
    else:
        print(format_ascii(aggregate))
    if getattr(args, "report_out", None):
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.report_out}")
    for target in getattr(args, "update", None) or []:
        try:
            with open(target, "r", encoding="utf-8") as fh:
                document = fh.read()
        except FileNotFoundError:
            document = ""
        section = getattr(args, "section", None) or spec.name
        document = splice_markdown(document, section, format_markdown(aggregate))
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(document)
        print(f"updated {target} (section experiments:{section})")
    bad_checks = [c["name"] for c in aggregate["checks"] if not c["ok"]]
    if aggregate["failed"]:
        print(
            f"\n{len(aggregate['failed'])} cell(s) FAILED; "
            f"`repro experiments resume {args.scenario} --out {out_dir}` retries them",
            file=sys.stderr,
        )
        return 1
    if bad_checks:
        print(f"\nidentity check(s) FAILED: {', '.join(bad_checks)}", file=sys.stderr)
        return 1
    return 0


def cmd_experiments_run(args: argparse.Namespace) -> int:
    """Execute a scenario grid (fresh, or continuing with ``resume``)."""
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec.from_file(args.scenario)
    out_dir = _experiments_out_dir(args, spec)
    say = (lambda line: None) if args.quiet else print
    say(
        f"scenario {spec.name}: {len(spec.cells())} cells -> {out_dir} "
        f"(workers={args.workers})"
    )
    aggregate = run_experiment(
        spec,
        out_dir,
        workers=args.workers,
        resume=args.resume,
        progress=say,
    )
    say("")
    return _experiments_finish(args, spec, out_dir, aggregate)


def cmd_experiments_report(args: argparse.Namespace) -> int:
    """Rebuild and print the aggregate from an existing run directory."""
    from repro.experiments import ExperimentSpec, aggregate_run

    spec = ExperimentSpec.from_file(args.scenario)
    out_dir = _experiments_out_dir(args, spec)
    if not os.path.isdir(os.path.join(out_dir, "cells")):
        print(
            f"error: {out_dir} holds no cell reports; run "
            f"`repro experiments run {args.scenario}` first",
            file=sys.stderr,
        )
        return 2
    aggregate = aggregate_run(spec, out_dir)
    return _experiments_finish(args, spec, out_dir, aggregate)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident search service under a deterministic storm.

    The storm comes from ``--fault-plan``'s ``service.storm`` section
    when present, else from the ``--clients``/``--requests`` flags; the
    plan's other service faults (worker crashes, stragglers, store
    outages) are injected into the run.  Exit status is non-zero if any
    admitted request failed to reach a terminal response (the soak
    criterion); typed rejections under overload are expected and
    reported, not errors.
    """
    from repro.faults.plan import FaultPlan, RequestStorm
    from repro.service import SearchService, ServiceConfig, run_storm
    from repro.store import open_any_index
    from repro.store.partitioned import PartitionedIndex

    config = _make_config(args)
    plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    storm = None
    if plan is not None and plan.service is not None:
        storm = plan.service.storm
    if storm is None:
        storm = RequestStorm(
            clients=args.clients,
            requests_per_client=args.requests,
            queries_per_request=args.queries_per_request,
            interval=args.interval,
            seed=args.storm_seed,
        )
    service_config = ServiceConfig(
        workers=args.workers,
        queue_limit=args.queue_limit,
        backpressure=args.policy,
        admission_timeout=args.admission_timeout,
        default_deadline=args.deadline,
        coalesce=args.coalesce,
        chunk_queries=args.chunk_queries,
        max_worker_restarts=args.max_worker_restarts,
    )
    db = None
    if args.index_path:
        store = open_any_index(args.index_path)
        shards = (
            store.num_partitions
            if isinstance(store, PartitionedIndex)
            else store.num_shards
        )
        service = SearchService(
            config,
            service_config,
            store=store,
            fault_plan=plan,
            memory_budget_mb=args.memory_budget_mb,
        )
    else:
        db = (
            read_fasta(args.database)
            if args.database
            else generate_database(args.database_size, seed=args.seed)
        )
        service = SearchService(config, service_config, database=db, fault_plan=plan)
        shards = 1
    pool = generate_queries(args.queries, seed=args.query_seed, source=db)
    registry = None
    if args.report_out:
        from repro.obs.metrics import enable_metrics

        registry = enable_metrics()
        registry.reset()
    import time as _time

    t0 = _time.perf_counter()
    with service:
        result = run_storm(service, storm, pool, deadline=args.deadline or None)
        health = service.health()
        stats = service.stats()
    final_state = service.health()["state"]
    wall = _time.perf_counter() - t0
    counts = result.counts
    print(
        f"service: {args.workers} worker(s) over {shards} shard(s), "
        f"policy={args.policy} queue_limit={args.queue_limit} "
        f"coalesce={service_config.coalesce}"
    )
    print(
        f"storm: {storm.clients} client(s) x {storm.requests_per_client} "
        f"request(s) x {storm.queries_per_request} queries -> "
        f"{len(result.outcomes)} submissions in {result.wall_s:.2f}s "
        f"({result.completed_queries} queries completed)"
    )
    for status in sorted(counts):
        print(f"  {status}: {counts[status]}")
    print(
        f"supervision: {int(stats['batches'])} batches, "
        f"{int(stats['batch_retries'])} retries, "
        f"{int(stats['batches_failed'])} quarantined, "
        f"{int(stats['worker_restarts'])} worker restart(s), "
        f"max queue depth {int(stats['max_queue_depth'])}"
    )
    print(
        f"drained: state={final_state} degraded={health['degraded']} "
        f"({wall:.2f}s wall total)"
    )
    if registry is not None:
        from repro.core.results import SearchReport
        from repro.obs.metrics import enable_metrics
        from repro.obs.report import RunReport

        enable_metrics(False)
        snapshot = registry.snapshot()
        merged_hits = {}
        for o in result.admitted:
            if o.response is not None:
                merged_hits.update(o.response.hits)
        report = SearchReport(
            algorithm="service",
            num_ranks=args.workers,
            hits=merged_hits,
            candidates_evaluated=int(snapshot["counters"].get("search.candidates", 0)),
            virtual_time=wall,
            extras={"storm_counts": counts, "storm_wall": result.wall_s},
        )
        RunReport.from_search_report(
            report, metrics=snapshot, service={"health": health, "counters": stats,
                                               "config": service.service_report()["config"]}
        ).write(args.report_out)
        print(f"wrote run report to {args.report_out}")
    unanswered = [o for o in result.admitted if o.response is None]
    return 1 if unanswered else 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Calibrate, search the configuration grid, run the pick, verify.

    Prints the calibrated terms that moved furthest off their defaults,
    the predicted-makespan ranking, the chosen run's predicted-vs-
    measured phase table, and the overlap lower bounds at simulated
    rank counts.  ``--report-out`` writes the full RunReport with the
    ``tuning`` section attached.
    """
    from repro.tune import autotune
    from repro.tune.calibrate import CalibrationSpec

    db = (
        read_fasta(args.database)
        if args.database
        else generate_database(args.database_size, seed=args.seed)
    )
    queries = generate_queries(args.queries, seed=args.query_seed)
    config = _make_config(args)
    store = None
    if args.index_path:
        from repro.errors import IndexCompatError
        from repro.store import open_any_index
        from repro.store.partitioned import PartitionedIndex

        store = open_any_index(args.index_path)
        if not isinstance(store, PartitionedIndex):
            raise IndexCompatError(
                f"repro tune streams only from partitioned stores "
                f"(`repro index build --partition-mb ...`); "
                f"{args.index_path} holds a resident-format store"
            )
    spec = (
        CalibrationSpec(
            db_size=120, num_queries=80, store_db_size=60,
            repeats=1, include_spawn=False,
        )
        if args.quick
        else CalibrationSpec()
    )
    result = autotune(
        db,
        queries,
        config,
        cache_path=args.tune_cache,
        force_calibrate=args.force_calibrate,
        spec=spec,
        store=store,
        store_path=args.index_path,
        memory_budget_mb=args.memory_budget_mb,
        run=not args.plan_only,
        anchor_ranks=args.anchor_ranks if args.anchor_ranks > 0 else None,
    )

    cal = result.calibration
    print(f"calibration: {cal.source}" + (f" ({cal.cache_path})" if cal.cache_path else ""))
    vs = cal.details.get("vs_defaults") or {}
    moved = sorted(
        (k for k in vs if vs[k].get("ratio") is not None),
        key=lambda k: abs(math.log10(max(vs[k]["ratio"], 1e-12))),
        reverse=True,
    )
    for key in moved[: args.show_terms]:
        entry = vs[key]
        print(
            f"  {key:<26} {entry['calibrated']:.3e}  "
            f"(default {entry['default']:.3e}, x{entry['ratio']:.2f})"
        )
    print(
        f"grid: {len(result.ranking)} feasible, {len(result.pruned)} pruned; "
        f"chose {result.chosen.label} (predicted {result.prediction.total:.3f}s)"
    )
    for plan, pred in result.ranking[: args.show_plans]:
        marker = "->" if plan == result.chosen else "  "
        print(f"  {marker} {pred.total:9.3f}s  {plan.label}")
    if result.verification is not None:
        ver = result.verification
        err = ver["makespan_rel_error"]
        print(
            f"verification: measured {ver['measured_makespan_s']:.3f}s vs "
            f"predicted {ver['predicted_makespan_s']:.3f}s"
            + (f" ({err:+.0%})" if err is not None else "")
        )
        for name, phase in ver["phases"].items():
            measured = (
                f"{phase['measured_s']:.4f}s" if phase["measured_s"] is not None else "n/a"
            )
            rel = f" ({phase['rel_error']:+.0%})" if phase["rel_error"] is not None else ""
            print(f"  {name:<28} predicted {phase['predicted_s']:.4f}s measured {measured}{rel}")
        for name, term in ver["terms"].items():
            rel = f" ({term['rel_error']:+.0%})" if term["rel_error"] is not None else ""
            predicted = (
                f"{term['predicted']:.3e}" if term["predicted"] is not None else "n/a"
            )
            print(f"  {name:<34} predicted {predicted} measured {term['measured']:.3e}{rel}")
    if result.lower_bounds is not None:
        print(f"lower bounds: {result.lower_bounds['model']}")
        for p, point in result.lower_bounds["points"].items():
            print(
                f"  p={p:>5}: residual/compute {point['residual_to_compute']:.3f}, "
                f"overlap efficiency {point['overlap_efficiency']:.3f}, "
                f"floor {point['floor_makespan_s']:.3f}s "
                f"({'comm' if point['comm_floor_s'] >= point['compute_floor_s'] else 'compute'}-bound)"
            )
        anchor = result.lower_bounds.get("simulated_anchor")
        if anchor:
            print(
                f"  anchor (event simulator, p={anchor['ranks']}): makespan "
                f"{anchor['makespan_s']:.3f}s, residual/compute "
                f"{anchor['residual_to_compute']:.3f}"
            )
    if args.report_out:
        from repro.obs.report import RunReport

        if result.report is None:
            print(
                "error: --report-out needs the verification run; "
                "drop --plan-only",
                file=sys.stderr,
            )
            return 2
        RunReport.from_search_report(result.report, tuning=result.tuning).write(
            args.report_out
        )
        print(f"wrote run report to {args.report_out}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate_rho()
    print(
        f"measured rho = {result.rho_measured * 1e6:.1f} us/candidate over "
        f"{result.candidates_timed} candidates ({result.wall_time:.2f}s wall)"
    )
    print(f"fitted CostModel.rho_base = {result.model.rho_base * 1e6:.2f} us")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable parallel peptide identification (ICPP 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic protein database as FASTA")
    p_gen.add_argument("output", help="output FASTA path")
    p_gen.add_argument("--database-size", "-n", type=_positive_int, default=2000)
    p_gen.add_argument("--seed", type=int, default=202)
    p_gen.add_argument("--dataset", choices=["human", "microbial"], default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_search = sub.add_parser("search", help="run one search and print top hits")
    _add_search_args(p_search)
    p_search.add_argument(
        "--algorithm", "-a", choices=sorted(ALGORITHMS) + ["multiproc"], default="algorithm_a"
    )
    p_search.add_argument("--ranks", "-p", type=_positive_int, default=4)
    p_search.add_argument("--show", type=int, default=5, help="queries to print")
    p_search.add_argument("--output", "-o", default=None, help="write hits as TSV")
    p_search.add_argument(
        "--database", type=_existing_file, default=None,
        help="search a FASTA file instead of a synthetic database",
    )
    p_search.add_argument(
        "--fault-plan", type=_existing_file, default=None,
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
        "--task-timeout", type=_positive_float, default=None,
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
        "--partition-mb", type=_positive_float, default=32.0,
        help="decoded partition size (MiB) for the temporary store that "
        "--stream builds when no --index-path is given",
    )
    p_search.add_argument(
        "--memory-budget-mb", type=_positive_float, default=None,
        help="bound each streaming reader's resident partition bytes "
        "(compressed + decoded); the prefetch thread blocks rather than "
        "exceed it",
    )
    p_search.add_argument(
        "--report-out", default=None,
        help="write a schema-versioned RunReport (JSON) with trace, fault "
        "stats and a metrics snapshot (see docs/observability.md)",
    )
    p_search.add_argument(
        "--query-blocks", type=_positive_int, default=1,
        help="multiproc: cut the mass-sorted queries into at least this "
        "many contiguous blocks per shard (a floor: raised until every "
        "worker has a task; finer tasks, better balance)",
    )
    p_search.add_argument(
        "--start-method", choices=["fork", "spawn", "forkserver"], default=None,
        help="multiproc: worker start method (default: platform choice)",
    )
    p_search.add_argument(
        "--autotune", action="store_true",
        help="pick engine/knobs with the cost-model autotuner "
        "(docs/autotuning.md); flags you type explicitly always win",
    )
    p_search.add_argument(
        "--tune-cache", default=None,
        help="autotune calibration cache path (default: "
        "~/.cache/repro/calibration.json)",
    )
    p_search.set_defaults(func=cmd_search)

    p_index = sub.add_parser(
        "index", help="build or inspect a persistent fragment-index store"
    )
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_ib = index_sub.add_parser(
        "build", help="build an index store directory (build once, load many)"
    )
    p_ib.add_argument("output", help="index store directory to create")
    p_ib.add_argument(
        "--database", type=_existing_file, default=None,
        help="index a FASTA file instead of a synthetic database",
    )
    p_ib.add_argument("--database-size", "-n", type=_positive_int, default=2000)
    p_ib.add_argument("--seed", type=int, default=202)
    p_ib.add_argument(
        "--shards", type=_positive_int, default=1,
        help="shard count (1 for the serial engine; any count for multiproc)",
    )
    p_ib.add_argument(
        "--fragment-tolerance", type=_positive_float, default=0.5,
        help="fragment m/z tolerance the index bins are sized for (Da)",
    )
    p_ib.add_argument(
        "--index-max-length", type=_positive_int, default=48,
        help="longest candidate span the index covers",
    )
    p_ib.add_argument(
        "--partition-mb", type=_positive_float, default=None,
        help="build the *partitioned* out-of-core format instead: "
        "mass-contiguous compressed partitions of ~this decoded size "
        "(MiB), streamed with prefetch at search time",
    )
    p_ib.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing store at the output path",
    )
    p_ib.set_defaults(func=cmd_index_build)
    p_ii = index_sub.add_parser(
        "inspect", help="print a persisted index's header and manifests"
    )
    p_ii.add_argument("path", help="index store directory")
    p_ii.set_defaults(func=cmd_index_inspect)

    p_scaling = sub.add_parser("scaling", help="regenerate a run-time/speedup grid")
    _add_search_args(p_scaling)
    p_scaling.add_argument("--algorithm", "-a", choices=sorted(ALGORITHMS), default="algorithm_a")
    p_scaling.add_argument("--sizes", default="1000,2000,4000", help="comma-separated DB sizes")
    p_scaling.add_argument("--ranks-list", default="1,2,4,8,16", help="comma-separated rank counts")
    p_scaling.set_defaults(func=cmd_scaling)

    p_val = sub.add_parser("validate", help="check parallel output equals serial output")
    _add_search_args(p_val)
    p_val.add_argument("--ranks", "-p", type=_positive_int, default=4)
    p_val.set_defaults(func=cmd_validate)

    p_cal = sub.add_parser("calibrate", help="measure this host's scoring cost")
    p_cal.set_defaults(func=cmd_calibrate)

    p_tune = sub.add_parser(
        "tune",
        help="calibrate the cost model, pick the best configuration, verify it",
    )
    _add_search_args(p_tune)
    p_tune.add_argument(
        "--database", type=_existing_file, default=None,
        help="tune against a FASTA file instead of a synthetic database",
    )
    p_tune.add_argument(
        "--index-path", default=None,
        help="partitioned store to consider streamed plans against "
        "(resident-format stores are rejected)",
    )
    p_tune.add_argument(
        "--memory-budget-mb", type=_positive_float, default=None,
        help="prune configurations whose resident footprint exceeds this",
    )
    p_tune.add_argument(
        "--tune-cache", default=None,
        help="calibration cache path (default: ~/.cache/repro/calibration.json)",
    )
    p_tune.add_argument(
        "--force-calibrate", action="store_true",
        help="re-measure even when a valid cache exists",
    )
    p_tune.add_argument(
        "--quick", action="store_true",
        help="smaller calibration battery (seconds, less precise)",
    )
    p_tune.add_argument(
        "--plan-only", action="store_true",
        help="stop after planning; skip the verification run",
    )
    p_tune.add_argument(
        "--anchor-ranks", type=int, default=0,
        help="also run the event simulator once at this rank count as a "
        "lower-bound validation anchor (0 = off; 128 costs ~2s)",
    )
    p_tune.add_argument(
        "--show-terms", type=_positive_int, default=8,
        help="calibrated terms to print (furthest from defaults first)",
    )
    p_tune.add_argument(
        "--show-plans", type=_positive_int, default=5,
        help="ranked configurations to print",
    )
    p_tune.add_argument(
        "--report-out", default=None,
        help="write the verification run's RunReport with the tuning section",
    )
    p_tune.set_defaults(func=cmd_tune)

    p_rep = sub.add_parser("report", help="assemble bench outputs into one report")
    p_rep.add_argument("--output-dir", default="benchmarks/output")
    p_rep.add_argument("--output", default="REPRODUCTION_REPORT.md")
    p_rep.set_defaults(func=cmd_report)

    p_exp = sub.add_parser(
        "experiments",
        help="run/resume/report a declarative scenario grid (docs/experiments.md)",
    )
    exp_sub = p_exp.add_subparsers(dest="experiments_command", required=True)

    def _exp_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario file (YAML or JSON)")
        p.add_argument(
            "--out", default=None,
            help="run directory (default: runs/<scenario name>)",
        )
        p.add_argument(
            "--format", choices=["ascii", "markdown", "json"], default="ascii",
            help="aggregate rendering printed to stdout",
        )
        p.add_argument(
            "--report-out", default=None,
            help="also write the aggregate JSON to this path",
        )
        p.add_argument(
            "--update", action="append", default=None, metavar="FILE",
            help="splice the markdown rendering into FILE between "
            "'<!-- experiments:NAME begin/end -->' markers (repeatable)",
        )
        p.add_argument(
            "--section", default=None,
            help="marker name for --update (default: the scenario name)",
        )

    p_exp_run = exp_sub.add_parser(
        "run", help="execute every cell of a scenario and aggregate"
    )
    _exp_common(p_exp_run)
    p_exp_run.add_argument(
        "--workers", "-j", type=_positive_int, default=1,
        help="cells executed concurrently (separate OS processes)",
    )
    p_exp_run.add_argument("--quiet", action="store_true", help="no per-cell progress")
    p_exp_run.set_defaults(func=cmd_experiments_run, resume=False)

    p_exp_res = exp_sub.add_parser(
        "resume",
        help="continue a killed/partial run; completed cells are not rerun",
    )
    _exp_common(p_exp_res)
    p_exp_res.add_argument(
        "--workers", "-j", type=_positive_int, default=1,
        help="cells executed concurrently (separate OS processes)",
    )
    p_exp_res.add_argument("--quiet", action="store_true", help="no per-cell progress")
    p_exp_res.set_defaults(func=cmd_experiments_run, resume=True)

    p_exp_rep = exp_sub.add_parser(
        "report", help="rebuild the aggregate from an existing run directory"
    )
    _exp_common(p_exp_rep)
    p_exp_rep.set_defaults(func=cmd_experiments_report)

    p_adv = sub.add_parser("advise", help="recommend an engine for a workload")
    p_adv.add_argument("--sequences", type=int, required=True, help="database sequence count")
    p_adv.add_argument("--residues", type=int, default=-1, help="total residues (default: 314.44/seq)")
    p_adv.add_argument("--ranks", "-p", type=_positive_int, default=8)
    p_adv.add_argument("--ram", type=int, default=1 << 30, help="bytes of RAM per rank")
    p_adv.set_defaults(func=cmd_advise)

    p_cmp = sub.add_parser("compare", help="compare engines on time/memory/quality")
    _add_search_args(p_cmp)
    p_cmp.add_argument(
        "--algorithms",
        default="algorithm_a,algorithm_b,master_worker,xbang",
        help="comma-separated engine names",
    )
    p_cmp.add_argument("--ranks", "-p", type=_positive_int, default=4)
    p_cmp.set_defaults(func=cmd_compare)

    p_tl = sub.add_parser("timeline", help="render a per-rank gantt of one run")
    _add_search_args(p_tl)
    p_tl.add_argument("--algorithm", "-a", choices=sorted(ALGORITHMS), default="algorithm_a")
    p_tl.add_argument("--ranks", "-p", type=_positive_int, default=4)
    p_tl.add_argument("--width", type=int, default=80)
    p_tl.set_defaults(func=cmd_timeline)

    p_trace = sub.add_parser(
        "trace", help="export one run's timeline as Chrome trace-event JSON"
    )
    _add_search_args(p_trace)
    p_trace.add_argument(
        "--algorithm", "-a", choices=sorted(ALGORITHMS) + ["multiproc"],
        default="algorithm_a",
    )
    p_trace.add_argument("--ranks", "-p", type=_positive_int, default=4)
    p_trace.add_argument(
        "--format", choices=["chrome", "ascii"], default="chrome",
        help="chrome: trace-event JSON for chrome://tracing/Perfetto; "
        "ascii: per-rank gantt on stdout (simulated engines only)",
    )
    p_trace.add_argument("--out", default="trace.json", help="chrome output path")
    p_trace.add_argument("--width", type=int, default=80, help="ascii gantt width")
    p_trace.set_defaults(func=cmd_trace)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived search service under a request storm",
    )
    _add_search_args(p_serve)
    p_serve.add_argument(
        "--database", type=_existing_file, default=None,
        help="serve a FASTA file instead of a synthetic database",
    )
    p_serve.add_argument(
        "--index-path", default=None,
        help="serve from a persisted index directory (each worker memory-maps "
        "it; a partitioned store is streamed out-of-core per worker)",
    )
    p_serve.add_argument(
        "--memory-budget-mb", type=_positive_float, default=None,
        help="partitioned stores: bound each worker's resident partition "
        "bytes (compressed + decoded)",
    )
    p_serve.add_argument("--workers", type=_positive_int, default=2, help="worker threads")
    p_serve.add_argument(
        "--queue-limit", type=_positive_int, default=64,
        help="bounded admission queue depth",
    )
    p_serve.add_argument(
        "--policy", choices=["block", "shed"], default="block",
        help="backpressure at the queue bound: block (bounded wait) or "
        "shed (typed immediate rejection)",
    )
    p_serve.add_argument(
        "--admission-timeout", type=_positive_float, default=5.0,
        help="block policy: seconds to wait for queue space before rejecting",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=0.0,
        help="per-request deadline in seconds (0 = none); completed queries "
        "keep their hits when it expires (partial results)",
    )
    p_serve.add_argument(
        "--no-coalesce", dest="coalesce", action="store_false", default=True,
        help="execute each request alone instead of coalescing across requests",
    )
    p_serve.add_argument(
        "--chunk-queries", type=_positive_int, default=32,
        help="queries per execution chunk (deadline check granularity)",
    )
    p_serve.add_argument(
        "--max-worker-restarts", type=int, default=2,
        help="worker resurrections before degrading to reduced concurrency",
    )
    p_serve.add_argument(
        "--clients", type=_positive_int, default=8, help="storm client threads"
    )
    p_serve.add_argument(
        "--requests", type=_positive_int, default=4, help="requests per client"
    )
    p_serve.add_argument(
        "--queries-per-request", type=_positive_int, default=4,
        help="spectra per request (drawn seeded from the query pool)",
    )
    p_serve.add_argument(
        "--interval", type=float, default=0.0, help="client pause between requests (s)"
    )
    p_serve.add_argument("--storm-seed", type=int, default=0, help="storm workload seed")
    p_serve.add_argument(
        "--fault-plan", type=_existing_file, default=None,
        help="JSON fault plan; its service section drives injection and "
        "(if present) the storm spec (see docs/service.md)",
    )
    p_serve.add_argument(
        "--report-out", default=None,
        help="write a RunReport with a service section (health, counters)",
    )
    p_serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw_argv)
    # raw argv lets --autotune tell typed flags from argparse defaults
    args._cli_argv = raw_argv
    try:
        return args.func(args)
    except ReproError as exc:
        # typed library failures (bad FASTA, bad fault plan, checkpoint
        # mismatch, ...) become a clean one-line message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
