"""Scale benchmark: direct vs. streamed search as N grows.

The paper's real target was a 2.65M-protein microbial database; a search
that holds the whole database and its mass index resident grows with N.
This benchmark walks a prefix-consistent slice of the Table I size grid
(``repro.workloads.synthetic`` ``SCALE_TIERS``) and, at every size, runs
the same query workload two ways in *separate fresh processes*:

* **resident** — ``search_serial`` with no store: the whole database
  in RAM, every candidate scored directly (the baseline);
* **streamed** — ``search_serial`` over a partitioned store
  (``save_partitioned_index``: the raw row table and a partition
  directory) under a memory budget of four partitions: double-buffered
  prefetch, each partition's rows read and scored directly, ~two
  partitions resident regardless of N.

Both run ``hyperscore``.  Per size it verifies the two variants' hits
are bitwise identical (sha256 over exact float hex — any drift fails the
run before any number is reported), then records queries/s, each
child's own peak RSS, and the stream telemetry (prefetch hits/stalls,
stall and score seconds).  The headline numbers:

* ``partition_residency_bytes`` — what a streamed pass holds beside the
  mmapped database (``StreamingSearcher.nbytes - database.nbytes``: two
  partitions of rows).  Out-of-core means it does not grow with N:
  within 10 % of constant across the sizes, and under the budget.
* ``streamed_over_direct`` — direct q/s over streamed q/s: what reading
  the rows from disk costs over holding the mass index in memory.
* ``stall_fraction`` — prefetch stall seconds over score seconds.
  Overlap quality: < 0.25 means I/O is essentially masked by
  compute, the disk analogue of the paper's MPI_Get masking.

Run ``python benchmarks/bench_scale.py`` to (re)generate
``BENCH_scale.json``; ``--smoke`` runs one tiny size and exits non-zero
on an identity mismatch, a residency over the budget, or a streamed
pass more than 2x slower than the direct one.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: child process template: one search variant in a fresh address space.
#: Its peak RSS is read from VmHWM, which belongs to that address space;
#: ``ru_maxrss`` does not — it survives exec, so a child reports the
#: high-water mark of the process that launched it (here the parent that
#: just built a store: both variants used to read the same number)
_CHILD_CODE = """
import hashlib, json, sys, time
from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import tier_database

params = json.loads(sys.argv[1])
db = tier_database(params["num_proteins"])
queries = generate_queries(params["num_queries"], seed=17, source=db)
config = SearchConfig(tau=params["tau"], scorer="hyperscore")
store = None
if params["store_path"]:
    from repro.store import open_any_index
    store = open_any_index(params["store_path"])
t0 = time.perf_counter()
report = search_serial(
    db, queries, config, index_store=store, memory_budget_mb=params["memory_budget_mb"]
)
wall = time.perf_counter() - t0
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
digest = hashlib.sha256()
for qid in sorted(report.hits):
    for h in report.hits[qid]:
        digest.update(repr((qid, h.score.hex(), int(h.protein_id),
                            int(h.start), int(h.stop), h.mass.hex(),
                            h.mod_delta.hex())).encode())
print(json.dumps({
    "wall_s": wall,
    "qps": len(queries) / wall if wall > 0 else 0.0,
    "rss_mb": hwm_kb / 1024.0,
    "hits_sha256": digest.hexdigest(),
    "candidates": report.candidates_evaluated,
    "stream": report.extras.get("stream"),
}))
"""


def _run_child(num_proteins, num_queries, tau, store_path=None, memory_budget_mb=None):
    """One search variant in a fresh process; returns its JSON payload."""
    params = json.dumps(
        {
            "num_proteins": num_proteins,
            "num_queries": num_queries,
            "tau": tau,
            "store_path": str(store_path) if store_path else None,
            "memory_budget_mb": memory_budget_mb,
        }
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_CODE, params],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"scale child failed (n={num_proteins}, "
            f"store={bool(store_path)}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_scale(sizes, num_queries=48, tau=25, partition_mb=1.0):
    """Resident-vs-streamed grid -> BENCH_scale.json payload."""
    import platform

    import numpy as np

    from repro.core.config import SearchConfig
    from repro.core.streaming import StreamingSearcher
    from repro.store import save_partitioned_index
    from repro.workloads.synthetic import tier_database

    budget_mb = 4.0 * partition_mb
    workdir = Path(tempfile.mkdtemp(prefix="bench_scale_"))
    points = []
    try:
        for n in sizes:
            db = tier_database(n)
            store_path = workdir / f"pstore_{n}"
            t0 = time.perf_counter()
            store = save_partitioned_index(
                db, store_path, partition_mb=partition_mb
            )
            build_s = time.perf_counter() - t0
            resident = _run_child(n, num_queries, tau)
            streamed = _run_child(n, num_queries, tau, store_path, budget_mb)
            identical = resident["hits_sha256"] == streamed["hits_sha256"]
            stream = streamed["stream"] or {}
            compute_s = stream.get("score_seconds", 0.0)
            searcher = StreamingSearcher(store, SearchConfig(), database=db)
            points.append(
                {
                    "num_proteins": n,
                    "database_bytes": int(db.nbytes),
                    "store_row_bytes": int(store.row_bytes),
                    "num_partitions": store.num_partitions,
                    "store_build_s": build_s,
                    "identical": identical,
                    "partition_residency_bytes": searcher.nbytes - int(db.nbytes),
                    "resident": {
                        "qps": resident["qps"],
                        "wall_s": resident["wall_s"],
                        "peak_rss_mb": resident["rss_mb"],
                    },
                    "streamed": {
                        "qps": streamed["qps"],
                        "wall_s": streamed["wall_s"],
                        "peak_rss_mb": streamed["rss_mb"],
                        "partitions_visited": stream.get("partitions", 0),
                        "prefetch_hits": stream.get("prefetch_hits", 0),
                        "prefetch_stalls": stream.get("prefetch_stalls", 0),
                        "stall_seconds": stream.get("stall_seconds", 0.0),
                        "score_seconds": stream.get("score_seconds", 0.0),
                    },
                    "stall_fraction": (
                        stream.get("stall_seconds", 0.0) / compute_s
                        if compute_s > 0
                        else 0.0
                    ),
                    "streamed_over_direct": (
                        resident["qps"] / streamed["qps"]
                        if streamed["qps"] > 0
                        else float("inf")
                    ),
                    "rss_ratio": resident["rss_mb"] / streamed["rss_mb"],
                }
            )
            # free the store before the next (larger) size
            shutil.rmtree(store_path, ignore_errors=True)
        largest = points[-1]
        residency = [p["partition_residency_bytes"] for p in points]
        return {
            "benchmark": "scale_resident_vs_streamed",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sizes": list(sizes),
            "num_queries": num_queries,
            "tau": tau,
            "scorer": "hyperscore",
            "partition_mb": partition_mb,
            "memory_budget_mb": budget_mb,
            "all_identical": all(p["identical"] for p in points),
            "max_partition_residency_bytes": max(residency),
            "partition_residency_spread": max(residency) / min(residency) - 1.0,
            "max_size_streamed_over_direct": largest["streamed_over_direct"],
            "max_size_stall_fraction": largest["stall_fraction"],
            "max_size_streamed_qps": largest["streamed"]["qps"],
            "points": points,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _gate(payload, stall_limit=None):
    """Acceptance checks; returns a list of failure strings."""
    failures = []
    if not payload["all_identical"]:
        failures.append("streamed hits are NOT bitwise-identical to resident")
    budget = payload["memory_budget_mb"] * (1 << 20)
    if payload["max_partition_residency_bytes"] > budget:
        failures.append(
            f"partition residency {payload['max_partition_residency_bytes']} B "
            f"over the {budget:.0f} B budget"
        )
    if payload["partition_residency_spread"] > 0.10:
        failures.append(
            f"partition residency grows with N: spread "
            f"{payload['partition_residency_spread']:.2f} across sizes, bar 0.10"
        )
    if payload["max_size_streamed_over_direct"] > 2.0:
        failures.append(
            f"streamed pass {payload['max_size_streamed_over_direct']:.2f}x "
            f"slower than direct, bar 2.0x"
        )
    if stall_limit is not None and payload["max_size_stall_fraction"] > stall_limit:
        failures.append(
            f"prefetch stall fraction {payload['max_size_stall_fraction']:.2f} "
            f"above {stall_limit:.2f}"
        )
    return failures


def main(argv=None):
    """Emit BENCH_scale.json so future PRs have a perf trajectory."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--output", default=str(_REPO_ROOT / "BENCH_scale.json")
    )
    parser.add_argument(
        "--sizes",
        default="500,1000,2000",
        help="comma-separated protein counts (prefixes of the Table I set)",
    )
    parser.add_argument("--queries", type=int, default=48)
    parser.add_argument("--tau", type=int, default=25)
    parser.add_argument("--partition-mb", type=float, default=1.0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one tiny size for CI; fails on identity mismatch, a partition "
        "residency over the budget or a streamed pass over 2x slower than "
        "direct, and does not overwrite results",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = measure_scale(
            (300,), num_queries=12, tau=10, partition_mb=0.5
        )
        print(json.dumps(payload, indent=2))
        # stall fraction is timing-noisy on shared CI runners; the smoke
        # gate checks identity, the memory claim and the cost over direct,
        # the full run also records stalls for the regression gate to track
        failures = _gate(payload)
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        sys.exit(1 if failures else 0)
    payload = measure_scale(
        tuple(int(s) for s in args.sizes.split(",")),
        num_queries=args.queries,
        tau=args.tau,
        partition_mb=args.partition_mb,
    )
    failures = _gate(payload, stall_limit=0.25)
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
