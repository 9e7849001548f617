"""``repro serve``: the long-lived search service under a request storm."""

from __future__ import annotations

import argparse
import time

from repro.cli.options import (
    add_db_options,
    add_search_args,
    existing_file,
    load_database,
    make_config,
    positive_float,
    positive_int,
)
from repro.workloads.queries import generate_queries


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

    config = make_config(args)
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
        service = SearchService(
            config,
            service_config,
            store=open_any_index(args.index_path),
            fault_plan=plan,
            memory_budget_mb=args.memory_budget_mb,
        )
    else:
        db = load_database(args)
        service = SearchService(config, service_config, database=db, fault_plan=plan)
    pool = generate_queries(args.queries, seed=args.query_seed, source=db)
    registry = None
    if args.report_out:
        from repro.obs.metrics import enable_metrics

        registry = enable_metrics()
        registry.reset()
    t0 = time.perf_counter()
    with service:
        result = run_storm(service, storm, pool, deadline=args.deadline or None)
        health = service.health()
        stats = service.stats()
    final_state = service.health()["state"]
    wall = time.perf_counter() - t0
    counts = result.counts
    print(
        f"service: one scorer over {args.index_path or 'the database'}, "
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
        f"{int(stats['worker_restarts'])} scorer restart(s), "
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
            num_ranks=1,
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


def register(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived search service under a request storm",
    )
    add_db_options(p_serve, "serve")
    add_search_args(p_serve)
    p_serve.add_argument(
        "--index-path", default=None,
        help="serve from a persisted index directory (memory-mapped; a "
        "partitioned store is streamed out-of-core)",
    )
    p_serve.add_argument(
        "--memory-budget-mb", type=positive_float, default=None,
        help="partitioned stores: bound the scorer's resident partition "
        "bytes (the rows it holds); a resident store refuses it",
    )
    p_serve.add_argument(
        "--queue-limit", type=positive_int, default=64,
        help="bounded admission queue depth",
    )
    p_serve.add_argument(
        "--policy", choices=["block", "shed"], default="block",
        help="backpressure at the queue bound: block (bounded wait) or "
        "shed (typed immediate rejection)",
    )
    p_serve.add_argument(
        "--admission-timeout", type=positive_float, default=5.0,
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
        "--chunk-queries", type=positive_int, default=32,
        help="queries per execution chunk (deadline check granularity)",
    )
    p_serve.add_argument(
        "--max-worker-restarts", type=int, default=2,
        help="scorer rebuilds after a crash before the service reports degraded",
    )
    p_serve.add_argument(
        "--clients", type=positive_int, default=8, help="storm client threads"
    )
    p_serve.add_argument(
        "--requests", type=positive_int, default=4, help="requests per client"
    )
    p_serve.add_argument(
        "--queries-per-request", type=positive_int, default=4,
        help="spectra per request (drawn seeded from the query pool)",
    )
    p_serve.add_argument(
        "--interval", type=float, default=0.0, help="client pause between requests (s)"
    )
    p_serve.add_argument("--storm-seed", type=int, default=0, help="storm workload seed")
    p_serve.add_argument(
        "--fault-plan", type=existing_file, default=None,
        help="JSON fault plan; its service section drives injection and "
        "(if present) the storm spec (see docs/service.md)",
    )
    p_serve.add_argument(
        "--report-out", default=None,
        help="write a RunReport with a service section (health, counters)",
    )
    p_serve.set_defaults(func=cmd_serve)
