"""Service benchmark: cross-request coalescing under concurrent clients.

Measures the long-lived :class:`repro.service.SearchService` under a
deterministic request storm at 1 / 8 / 64 concurrent clients, with
cross-request coalescing on and off.  Coalescing merges queued requests
into one mass-sorted sweep batch, so the candidate-major kernel shares
cohort work *across* clients — the per-request engine pays the sweep
setup once per request instead.  The headline number is
``coalesce_speedup`` at each client count: uncoalesced wall time over
coalesced wall time (>1 means coalescing wins), which the ISSUE
acceptance gate requires to exceed 1 at >= 8 clients.

Every response's hits are checked bitwise against the serial reference
— a perf number from a wrong answer is worthless.

Run ``python benchmarks/bench_service.py`` to (re)generate
``BENCH_service.json``; ``--smoke`` runs a tiny workload and exits
non-zero if any response diverges from the serial reference or fails to
complete.
"""

import statistics
import time

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.faults.plan import RequestStorm
from repro.service import SearchService, ServiceConfig, run_storm
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

#: concurrent-client sweep; the acceptance gate reads the >= 8 points
_CLIENT_POINTS = (1, 8, 64)


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(int(q * (len(ordered) - 1) + 0.5), len(ordered) - 1)
    return ordered[idx]


def _check_hits(hits, reference, where):
    for qid, found in hits.items():
        if [h.sort_key() for h in found] != reference[qid]:
            raise AssertionError(
                f"query {qid} diverged from serial reference ({where})"
            )


def _run_point(database, pool, config, clients, coalesce, requests_per_client,
               queries_per_request, reference):
    storm = RequestStorm(
        clients=clients,
        requests_per_client=requests_per_client,
        queries_per_request=queries_per_request,
        seed=29 + clients,
    )
    service_config = ServiceConfig(
        queue_limit=max(2 * clients, 16),
        coalesce=coalesce,
    )
    with SearchService(config, service_config, database=database) as service:
        result = run_storm(service, storm, pool)
        stats = service.stats()
    total = clients * requests_per_client
    if result.counts != {"ok": total}:
        raise AssertionError(f"storm did not complete cleanly: {result.counts}")
    for outcome in result.admitted:
        _check_hits(
            outcome.response.hits, reference, f"clients={clients}, coalesce={coalesce}"
        )
    latencies = [o.response.latency_s for o in result.admitted]
    queue_waits = [o.response.queue_wait_s for o in result.admitted]
    queries_done = result.completed_queries
    return {
        "clients": clients,
        "coalesce": coalesce,
        "requests": total,
        "queries": queries_done,
        "wall_s": result.wall_s,
        "throughput_qps": queries_done / result.wall_s if result.wall_s > 0 else 0.0,
        "mean_latency_s": statistics.fmean(latencies),
        "p95_latency_s": _quantile(latencies, 0.95),
        "mean_queue_wait_s": statistics.fmean(queue_waits),
        "batches": int(stats["batches"]),
        "coalesced_requests": int(stats["coalesced_requests"]),
        "max_queue_depth": int(stats["max_queue_depth"]),
    }


def measure_service(
    num_proteins=600,
    num_queries=48,
    requests_per_client=4,
    queries_per_request=4,
    client_points=_CLIENT_POINTS,
):
    """Client sweep, coalesced vs uncoalesced -> BENCH_service.json payload."""
    import platform

    database = generate_database(num_proteins, seed=202)
    pool = generate_queries(num_queries, seed=17, source=database)
    config = SearchConfig(tau=10)
    serial = search_serial(database, pool, config)
    reference = {qid: [h.sort_key() for h in hs] for qid, hs in serial.hits.items()}

    points = []
    for clients in client_points:
        for coalesce in (False, True):
            points.append(
                _run_point(
                    database, pool, config, clients, coalesce,
                    requests_per_client, queries_per_request, reference,
                )
            )

    by_clients = {}
    for clients in client_points:
        un = next(p for p in points if p["clients"] == clients and not p["coalesce"])
        co = next(p for p in points if p["clients"] == clients and p["coalesce"])
        by_clients[str(clients)] = {
            "uncoalesced": un,
            "coalesced": co,
            "coalesce_speedup": un["wall_s"] / co["wall_s"] if co["wall_s"] > 0 else 0.0,
            "batch_reduction": un["batches"] / co["batches"] if co["batches"] else 0.0,
        }
    return {
        "benchmark": "service_coalescing_under_concurrent_clients",
        "python": platform.python_version(),
        "num_proteins": num_proteins,
        "num_queries": num_queries,
        "requests_per_client": requests_per_client,
        "queries_per_request": queries_per_request,
        "clients": by_clients,
    }


def main(argv=None):
    """Emit BENCH_service.json so future PRs have a perf trajectory."""
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--output",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
        ),
    )
    parser.add_argument("--proteins", type=int, default=600)
    parser.add_argument("--queries", type=int, default=48)
    parser.add_argument("--requests-per-client", type=int, default=4)
    parser.add_argument("--queries-per-request", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; exit non-zero unless every response is "
        "bitwise-correct and completes",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if args.smoke:
        payload = measure_service(
            num_proteins=120,
            num_queries=12,
            requests_per_client=2,
            queries_per_request=3,
            client_points=(1, 4),
        )
    else:
        payload = measure_service(
            num_proteins=args.proteins,
            num_queries=args.queries,
            requests_per_client=args.requests_per_client,
            queries_per_request=args.queries_per_request,
        )
    payload["bench_wall_s"] = time.perf_counter() - t0

    for clients, point in payload["clients"].items():
        print(
            f"clients={clients:>3}: coalesced {point['coalesced']['wall_s']:.3f}s "
            f"({point['coalesced']['throughput_qps']:.0f} q/s, "
            f"{point['coalesced']['batches']} batches) vs uncoalesced "
            f"{point['uncoalesced']['wall_s']:.3f}s "
            f"({point['uncoalesced']['batches']} batches) -> "
            f"speedup {point['coalesce_speedup']:.2f}x"
        )

    if args.smoke:
        print("smoke: all responses bitwise-identical to serial reference")
        return 0

    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
