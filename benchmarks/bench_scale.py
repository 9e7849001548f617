"""Scale benchmark: resident vs. streamed search as N grows.

The paper's real target was a 2.65M-protein microbial database; the
resident fragment index hits a memory wall orders of magnitude earlier
(~0.6 MB RSS per protein).  This benchmark walks a prefix-consistent
slice of the Table I size grid (``repro.workloads.synthetic``
``SCALE_TIERS``) and, at every size, runs the same query workload two
ways in *separate fresh processes* so ``ru_maxrss`` is an honest
per-variant high-water mark:

* **resident** — ``search_serial`` with no store: the whole database
  in RAM, every candidate scored directly (the baseline);
* **streamed** — ``search_serial`` over the partitioned store
  (``repro.index_store_partitioned/2``): double-buffered prefetch,
  peak index residency ~two partitions regardless of N.

Both run ``hyperscore``: a scorer the partitions' posting lists serve,
so the streamed variant measures decode + posting probes (the default
likelihood scorer would be scored directly on both sides and never read
a posting).

Per size it verifies the two variants' hits are bitwise identical
(sha256 over exact float hex — any drift fails the run before any
number is reported), then records queries/s, peak RSS, and the stream
telemetry (prefetch hits/stalls, decode/stall seconds).  The headline
numbers:

* ``out_of_core_factor`` — decoded index bytes over the streamed
  path's index residency (directory + double buffer).  This is how
  many times larger than its RAM footprint the streamed index is; the
  acceptance bar is >= 20x.
* ``stall_fraction`` — prefetch stall seconds over decode + score
  seconds.  Overlap quality: < 0.25 means I/O is essentially masked by
  compute, the disk analogue of the paper's MPI_Get masking.

Run ``python benchmarks/bench_scale.py`` to (re)generate
``BENCH_scale.json``; ``--smoke`` runs one tiny size and exits
non-zero on identity mismatch or an out-of-core factor below 20x.
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

#: child process template: one search variant, fresh address space, so
#: ru_maxrss is this variant's high-water mark and nothing else's
_CHILD_CODE = """
import hashlib, json, resource, sys, time
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
report = search_serial(db, queries, config, index_store=store)
wall = time.perf_counter() - t0
digest = hashlib.sha256()
for qid in sorted(report.hits):
    for h in report.hits[qid]:
        digest.update(repr((qid, h.score.hex(), int(h.protein_id),
                            int(h.start), int(h.stop), h.mass.hex(),
                            h.mod_delta.hex())).encode())
print(json.dumps({
    "wall_s": wall,
    "qps": len(queries) / wall if wall > 0 else 0.0,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "hits_sha256": digest.hexdigest(),
    "candidates": report.candidates_evaluated,
    "stream": report.extras.get("stream"),
}))
"""


def _run_child(num_proteins, num_queries, tau, store_path):
    """One search variant in a fresh process; returns its JSON payload."""
    params = json.dumps(
        {
            "num_proteins": num_proteins,
            "num_queries": num_queries,
            "tau": tau,
            "store_path": str(store_path) if store_path else None,
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

    from repro.store import save_partitioned_index
    from repro.workloads.synthetic import tier_database

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
            resident = _run_child(n, num_queries, tau, None)
            streamed = _run_child(n, num_queries, tau, store_path)
            identical = resident["hits_sha256"] == streamed["hits_sha256"]
            stream = streamed["stream"] or {}
            compute_s = stream.get("decode_seconds", 0.0) + stream.get(
                "score_seconds", 0.0
            )
            stream_residency = 2 * store.max_partition_bytes
            points.append(
                {
                    "num_proteins": n,
                    "database_bytes": int(db.nbytes),
                    "index_decoded_bytes": int(store.decoded_bytes),
                    "index_compressed_bytes": int(store.blob_bytes),
                    "num_partitions": store.num_partitions,
                    "store_build_s": build_s,
                    "identical": identical,
                    "resident": {
                        "qps": resident["qps"],
                        "wall_s": resident["wall_s"],
                        "peak_rss_mb": resident["rss_mb"],
                    },
                    "streamed": {
                        "qps": streamed["qps"],
                        "wall_s": streamed["wall_s"],
                        "peak_rss_mb": streamed["rss_mb"],
                        "prefetch_hits": stream.get("prefetch_hits", 0),
                        "prefetch_stalls": stream.get("prefetch_stalls", 0),
                        "stall_seconds": stream.get("stall_seconds", 0.0),
                        "decode_seconds": stream.get("decode_seconds", 0.0),
                        "score_seconds": stream.get("score_seconds", 0.0),
                    },
                    "stall_fraction": (
                        stream.get("stall_seconds", 0.0) / compute_s
                        if compute_s > 0
                        else 0.0
                    ),
                    "out_of_core_factor": (
                        store.decoded_bytes / stream_residency
                        if stream_residency > 0
                        else 0.0
                    ),
                    "rss_ratio": (
                        resident["rss_mb"] / streamed["rss_mb"]
                        if streamed["rss_mb"] > 0
                        else 0.0
                    ),
                }
            )
            # free the store before the next (larger) size
            shutil.rmtree(store_path, ignore_errors=True)
        largest = points[-1]
        return {
            "benchmark": "scale_resident_vs_streamed",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "sizes": list(sizes),
            "num_queries": num_queries,
            "tau": tau,
            "scorer": "hyperscore",
            "partition_mb": partition_mb,
            "all_identical": all(p["identical"] for p in points),
            "max_out_of_core_factor": largest["out_of_core_factor"],
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
    if payload["max_out_of_core_factor"] < 20.0:
        failures.append(
            f"out-of-core factor {payload['max_out_of_core_factor']:.1f}x "
            f"below the 20x bar"
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
        help="one tiny size for CI; fails on identity mismatch or an "
        "out-of-core factor below 20x, and does not overwrite results",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = measure_scale(
            (300,), num_queries=12, tau=10, partition_mb=0.5
        )
        print(json.dumps(payload, indent=2))
        # stall fraction is timing-noisy on shared CI runners; the smoke
        # gate checks identity and the memory claim, the full run also
        # records stalls for the regression gate to track
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
