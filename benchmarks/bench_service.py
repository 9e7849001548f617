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

The second section is the concurrency ladder of docs/service.md
("Concurrency model"): closed-loop clients {1, 2, 4, 8, 16} against
``workers`` {1, 2} on the end-to-end benchmark's service inputs (2000
proteins, hyperscore, 4-query requests).  The service has one scoring
turn, so a second worker is a standby and must never cost: the ladder
records q/s, p95 and requests per batch at every point, and
``two_over_one_qps`` at 8 clients is the number the smoke run gates.

Every response's hits are checked bitwise against the serial reference
— a perf number from a wrong answer is worthless.

Run ``python benchmarks/bench_service.py`` to (re)generate
``BENCH_service.json``; ``--smoke`` runs a tiny workload and exits
non-zero if any response diverges from the serial reference or fails to
complete, or if two workers serve fewer than 0.9x the q/s of one at 8
clients.
"""

import statistics
import threading
import time

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.faults.plan import RequestStorm
from repro.service import SearchService, ServiceConfig, run_storm
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

#: concurrent-client sweep; the acceptance gate reads the >= 8 points
_CLIENT_POINTS = (1, 8, 64)

#: the concurrency ladder; the smoke run gates the 8-client column
_LADDER_WORKERS = (1, 2)
_LADDER_CLIENTS = (1, 2, 4, 8, 16)
_GATED_CLIENTS = 8
#: two workers must serve at least this share of one worker's q/s
_MIN_TWO_OVER_ONE = 0.9


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


def _run_point(database, pool, config, clients, coalesce, workers, requests_per_client,
               queries_per_request, reference):
    storm = RequestStorm(
        clients=clients,
        requests_per_client=requests_per_client,
        queries_per_request=queries_per_request,
        seed=29 + clients,
    )
    service_config = ServiceConfig(
        workers=workers,
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


def _closed_loop_point(database, pool, config, workers, clients, seconds,
                       queries_per_request, reference):
    """``clients`` threads each keep one request outstanding for ``seconds``."""
    latencies, done = [], []
    service_config = ServiceConfig(workers=workers, queue_limit=max(2 * clients, 16))
    with SearchService(config, service_config, database=database) as service:
        service.search(pool[:queries_per_request])  # first-call costs stay untimed
        before = service.stats()
        t0 = time.perf_counter()

        def client(c):
            mine, at = [], c * queries_per_request
            while time.perf_counter() - t0 < seconds:
                request = [pool[(at + j) % len(pool)] for j in range(queries_per_request)]
                at += clients * queries_per_request + 1
                mine.append(service.search(request, timeout=60.0))
            done.append(mine)  # list.append is atomic

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        after = service.stats()
    queries = 0
    for response in (r for mine in done for r in mine):
        if not response.ok:
            raise AssertionError(f"closed loop request ended {response.status}")
        _check_hits(response.hits, reference, f"workers={workers}, clients={clients}")
        queries += len(response.hits)
        latencies.append(response.latency_s)
    return {
        "workers": workers,
        "clients": clients,
        "throughput_qps": queries / wall,
        "p95_latency_s": _quantile(latencies, 0.95),
        "requests_per_batch": (after["admitted"] - before["admitted"])
        / max(after["batches"] - before["batches"], 1),
    }


def measure_ladder(
    num_proteins=2000,
    num_queries=480,
    seconds=4.0,
    queries_per_request=4,
    client_points=_LADDER_CLIENTS,
    rounds=1,
):
    """workers x clients closed-loop ladder -> the ``workers_ladder`` section.

    Every point is run ``rounds`` times, worker counts alternating, and
    the best round kept.  ``two_over_one_qps`` is the median over rounds
    of the two-worker q/s over the one-worker q/s *of the same round*: a
    host whose speed drifts moves both sides of a round together.
    """
    database = generate_database(num_proteins, seed=17)
    pool = generate_queries(num_queries, seed=17)
    config = SearchConfig(scorer="hyperscore", tau=10)
    serial = search_serial(database, pool, config)
    reference = {qid: [h.sort_key() for h in hs] for qid, hs in serial.hits.items()}
    best, ratios = {}, []
    for clients in client_points:
        for _ in range(rounds):
            qps = {}
            for workers in _LADDER_WORKERS:
                point = _closed_loop_point(
                    database, pool, config, workers, clients, seconds,
                    queries_per_request, reference,
                )
                qps[workers] = point["throughput_qps"]
                kept = best.get((workers, clients))
                if kept is None or point["throughput_qps"] > kept["throughput_qps"]:
                    best[workers, clients] = point
            if clients == _GATED_CLIENTS:
                ratios.append(qps[2] / qps[1])
    return {
        "num_proteins": num_proteins,
        "num_queries": num_queries,
        "scorer": config.scorer,
        "queries_per_request": queries_per_request,
        "seconds_per_point": seconds,
        "points": [best[w, c] for w in _LADDER_WORKERS for c in client_points],
        "gated_clients": _GATED_CLIENTS,
        "two_over_one_qps": statistics.median(ratios),
    }


def measure_service(
    num_proteins=600,
    num_queries=48,
    workers=2,
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
                    database, pool, config, clients, coalesce, workers,
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
        "workers": workers,
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
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests-per-client", type=int, default=4)
    parser.add_argument("--queries-per-request", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; exit non-zero unless every response is "
        "bitwise-correct and completes and two workers serve >= "
        f"{_MIN_TWO_OVER_ONE}x the q/s of one at {_GATED_CLIENTS} clients",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    if args.smoke:
        payload = measure_service(
            num_proteins=120,
            num_queries=12,
            workers=2,
            requests_per_client=2,
            queries_per_request=3,
            client_points=(1, 4),
        )
        payload["workers_ladder"] = measure_ladder(
            num_proteins=300, num_queries=96, seconds=1.0,
            client_points=(_GATED_CLIENTS,), rounds=5,
        )
    else:
        payload = measure_service(
            num_proteins=args.proteins,
            num_queries=args.queries,
            workers=args.workers,
            requests_per_client=args.requests_per_client,
            queries_per_request=args.queries_per_request,
        )
        payload["workers_ladder"] = measure_ladder()
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

    ladder = payload["workers_ladder"]
    for point in ladder["points"]:
        print(
            f"workers={point['workers']} clients={point['clients']:>2}: "
            f"{point['throughput_qps']:.0f} q/s, p95 "
            f"{1e3 * point['p95_latency_s']:.1f} ms, "
            f"{point['requests_per_batch']:.2f} requests a batch"
        )
    print(
        f"two workers serve {ladder['two_over_one_qps']:.2f}x the q/s of one "
        f"at {ladder['gated_clients']} clients"
    )

    if args.smoke:
        print("smoke: all responses bitwise-identical to serial reference")
        if ladder["two_over_one_qps"] < _MIN_TWO_OVER_ONE:
            print(f"smoke: FAILED, the second worker costs (< {_MIN_TWO_OVER_ONE}x)")
            return 1
        return 0

    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
