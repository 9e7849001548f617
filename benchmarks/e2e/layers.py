"""Per-layer metrics: names, units, and how each is read off a traced run.

Times are self times (a span minus the part its children cover) unless
the name says wall; both times and counts are *per pass*, averaged over
the traced passes of the run, so a count of a deterministic workload
repeats exactly.  A layer a workload never enters reads 0: it spent no
time there.  Layer names are the program's module names.
"""

from __future__ import annotations

from statistics import mean
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e import adapters
from benchmarks.e2e.spans import Totals
from benchmarks.e2e.stats import percentile
from benchmarks.e2e.workloads import PARALLELISM

_SIM_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("virtual_time_s", "s", "lower"),
    ("residual_to_compute", "ratio", "lower"),
    ("masking_effectiveness", "ratio", "higher"),
    ("total_wait_s", "s", "lower"),
    ("total_comm_issued_s", "s", "lower"),
)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[Tuple[str, str, str]] = [
    ("chem.read_fasta_s", "s", "lower"),
    ("spectra.read_mgf_s", "s", "lower"),
    ("core.report_write_s", "s", "lower"),
    ("candidates.mass_index_build_s", "s", "lower"),
    ("candidates.window_join_s", "s", "lower"),
    ("candidates.cohorts", "count", "lower"),
    ("candidates.mean_cohort_size", "count", "higher"),
    ("candidates.total", "count", "lower"),
    ("candidates.union_rows_per_candidate", "ratio", "lower"),
    *[(f"scoring.{s}.block_s", "s", "lower") for s in adapters.SCORERS],
    *[(f"scoring.{s}.candidates_per_s", "1/s", "higher") for s in adapters.SCORERS],
    ("scoring.batch_build_s", "s", "lower"),
    ("scoring.rows_scored", "count", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.fragments", "count", "lower"),
    ("index.nbytes", "B", "lower"),
    ("index.build_fragments_per_s", "1/s", "higher"),
    ("index.probe_s", "s", "lower"),
    ("index.probe_rows_per_s", "1/s", "higher"),
    ("index.matrix_s", "s", "lower"),
    ("index.matrix_rows_per_s", "1/s", "higher"),
    ("index.probe_fraction", "ratio", "higher"),
    ("store.save_s", "s", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.load_s", "s", "lower"),
    ("store.load_mb_per_s", "MB/s", "higher"),
    ("store.bytes", "B", "lower"),
    ("store.bytes_per_db_byte", "ratio", "lower"),
    ("store.part_save_s", "s", "lower"),
    ("store.part_blob_bytes", "B", "lower"),
    ("store.compression_ratio", "ratio", "higher"),
    ("store.partition_read_s", "s", "lower"),
    ("store.partition_decode_s", "s", "lower"),
    ("store.decode_mb_per_s", "MB/s", "higher"),
    ("store.partitions_visited", "count", "lower"),
    ("store.prefetch_hits", "count", "higher"),
    ("store.prefetch_stalls", "count", "lower"),
    ("store.stall_s", "s", "lower"),
    ("core.shard_pass_s", "s", "lower"),
    ("core.shard_passes", "count", "lower"),
    ("core.stream_pass_s", "s", "lower"),
    ("core.topk_s", "s", "lower"),
    ("core.merge_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("engines.mp.wall_w1_s", "s", "lower"),
    ("engines.mp.wall_wN_s", "s", "lower"),
    ("engines.mp.parallel_efficiency", "ratio", "higher"),
    ("engines.mp.overhead_s", "s", "lower"),
    ("engines.mp.bytes_shipped", "B", "lower"),
    ("engines.mp.tasks", "count", "lower"),
    ("service.start_s", "s", "lower"),
    ("service.latency_p50_ms", "ms", "lower"),
    ("service.queue_wait_mean_ms", "ms", "lower"),
    ("service.queue_wait_p95_ms", "ms", "lower"),
    ("service.exec_mean_ms", "ms", "lower"),
    ("service.batches", "count", "lower"),
    ("service.requests_per_batch", "ratio", "higher"),
    ("service.coalesced_requests", "count", "higher"),
    ("service.max_queue_depth", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.batch_retries", "count", "lower"),
    ("service.worker_restarts", "count", "lower"),
    *[
        (f"simmpi.{a}.{name}", unit, better)
        for a in adapters.SIM_ALGORITHMS
        for name, unit, better in _SIM_FIELDS
    ],
    ("simmpi.sim_overhead_ratio", "ratio", "lower"),
    ("obs.tracing_overhead_ratio", "ratio", "lower"),
    ("obs.calibration_factor", "ratio", "lower"),
    ("obs.unattributed_share", "ratio", "lower"),
    ("obs.spans_per_pass", "count", "lower"),
    ("obs.latency_tail_quantile", "ratio", "higher"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unattributed_share(totals: Dict[str, Totals]) -> float:
    """Share of the driving threads' wall no boundary span covers.

    The driving threads are the clients of a closed loop when there are
    any (the main thread then only waits for them), else the main thread.
    """
    root = totals.get("bench.client") or totals.get("bench.pass")
    return _ratio(root.self_s, root.total_s) if root else 1.0


def derive(
    pass_totals: Dict[str, Totals],
    setup_totals: Dict[str, Totals],
    passes: Sequence,
    candidates: Sequence[int],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    ``pass_totals`` sums the spans of all traced ``passes``,
    ``setup_totals`` those of the one traced set-up; ``candidates`` are
    the candidate evaluations of each pass; ``extras`` carries the
    harness's own measurements (overhead ratio, untraced extras).
    """
    n = len(passes)
    none = Totals()

    def get(name: str) -> Totals:
        return pass_totals.get(name, none)

    def self_s(*names: str) -> float:
        return sum(get(name).self_s for name in names) / n

    def wall_s(name: str) -> float:
        return get(name).total_s / n

    def count(name: str, key: str) -> float:
        return get(name).counts.get(key, 0) / n

    def reported(key: str) -> float:
        """A number the program returned, averaged over passes."""
        return mean(p.counts.get(key, 0) for p in passes)

    def boundary_or_reported(key: str) -> float:
        """A ShardStats count: from the shard-pass spans where they ran
        in this process, else from what the engine reported."""
        seen = count("core.shard_pass", key) + count("core.stream_pass", key)
        return seen or reported(key)

    out: Dict[str, float] = {name: 0.0 for name, _unit, _better in PER_LAYER}
    out["chem.read_fasta_s"] = self_s("chem.read_fasta")
    out["spectra.read_mgf_s"] = self_s("spectra.read_mgf")
    out["core.report_write_s"] = self_s("core.report_write")

    out["candidates.mass_index_build_s"] = self_s("candidates.mass_index_build") + (
        setup_totals.get("candidates.mass_index_build", none).self_s
    )
    out["candidates.window_join_s"] = self_s("candidates.window_join")
    cohorts = boundary_or_reported("cohorts")
    out["candidates.cohorts"] = cohorts
    out["candidates.mean_cohort_size"] = _ratio(boundary_or_reported("sweep_queries"), cohorts)
    out["candidates.total"] = mean(candidates)
    union_rows = count("candidates.window_join", "union_rows")
    out["candidates.union_rows_per_candidate"] = _ratio(
        union_rows, count("core.shard_pass", "candidates")
    )

    for scorer in adapters.SCORERS:
        block = get(f"scoring.block[{scorer}]")
        out[f"scoring.{scorer}.block_s"] = block.self_s / n
        out[f"scoring.{scorer}.candidates_per_s"] = _ratio(block.counts.get("rows", 0), block.total_s)
    out["scoring.batch_build_s"] = self_s("scoring.batch_build")
    rows_scored = boundary_or_reported("rows_scored")
    out["scoring.rows_scored"] = rows_scored

    build = setup_totals.get("index.build", none)
    out["index.build_s"] = build.self_s
    out["index.fragments"] = build.counts.get("fragments", 0)
    out["index.nbytes"] = build.counts.get("bytes", 0)
    out["index.build_fragments_per_s"] = _ratio(build.counts.get("fragments", 0), build.total_s)
    posting, matrix = get("index.probe[posting]"), get("index.probe[matrix]")
    out["index.probe_s"] = posting.self_s / n
    out["index.probe_rows_per_s"] = _ratio(posting.counts.get("rows", 0), posting.total_s)
    out["index.matrix_s"] = matrix.self_s / n
    out["index.matrix_rows_per_s"] = _ratio(matrix.counts.get("rows", 0), matrix.total_s)
    out["index.probe_fraction"] = _ratio(boundary_or_reported("index_rows"), rows_scored)

    out["store.save_s"] = setup_totals.get("store.save", none).self_s
    out["store.open_s"] = self_s("store.open")
    out["store.load_s"] = self_s("store.load")
    load = get("store.load")
    out["store.load_mb_per_s"] = _ratio(load.counts.get("bytes", 0) / 1e6, load.total_s)
    out["store.bytes"] = reported("store.bytes")
    out["store.bytes_per_db_byte"] = reported("store.bytes_per_db_byte")
    out["store.part_save_s"] = setup_totals.get("store.part_save", none).self_s
    out["store.part_blob_bytes"] = reported("stream.bytes_read")
    out["store.compression_ratio"] = _ratio(
        reported("stream.bytes_decoded"), reported("stream.bytes_read")
    )
    out["store.partition_read_s"] = self_s("store.partition_read")
    out["store.partition_decode_s"] = self_s("store.partition_decode")
    out["store.decode_mb_per_s"] = _ratio(
        reported("stream.bytes_decoded") / 1e6, wall_s("store.partition_decode")
    )
    out["store.partitions_visited"] = reported("stream.partitions")
    out["store.prefetch_hits"] = reported("stream.prefetch_hits")
    out["store.prefetch_stalls"] = reported("stream.prefetch_stalls")
    out["store.stall_s"] = reported("stream.stall_seconds")

    out["core.shard_pass_s"] = wall_s("core.shard_pass")
    out["core.shard_passes"] = get("core.shard_pass").calls / n
    out["core.stream_pass_s"] = wall_s("core.stream_pass")
    out["core.topk_s"] = self_s("core.topk")
    out["core.merge_s"] = self_s("core.merge")
    out["core.self_s"] = self_s("core.search_serial", "core.shard_pass", "core.stream_pass")

    wall_wn = wall_s("engines.mp")
    if wall_wn:
        w1 = extras.get("mp.wall_w1_s", 0.0)
        out["engines.mp.wall_w1_s"] = w1
        out["engines.mp.wall_wN_s"] = wall_wn
        out["engines.mp.parallel_efficiency"] = _ratio(w1, PARALLELISM * wall_wn)
        out["engines.mp.overhead_s"] = w1 - extras.get("mp.serial_s", 0.0)
        out["engines.mp.bytes_shipped"] = reported("mp.bytes_shipped")
        out["engines.mp.tasks"] = reported("mp.tasks")

    out["service.start_s"] = setup_totals.get("service.start", none).total_s
    latencies = [x for p in passes for x in p.latencies_s]
    if latencies:
        waits = [x for p in passes for x in p.queue_waits_s]
        out["service.latency_p50_ms"] = 1e3 * percentile(latencies, 0.5)
        out["service.queue_wait_mean_ms"] = 1e3 * mean(waits)
        out["service.queue_wait_p95_ms"] = 1e3 * percentile(waits, 0.95)
        out["service.exec_mean_ms"] = 1e3 * (mean(latencies) - mean(waits))
        batches = reported("service.batches")
        out["service.batches"] = batches
        out["service.requests_per_batch"] = _ratio(reported("service.requests"), batches)
        out["service.coalesced_requests"] = reported("service.coalesced_requests")
        out["service.max_queue_depth"] = max(p.counts["service.max_queue_depth"] for p in passes)
        out["service.rejected"] = reported("service.rejected_overload") + reported(
            "service.rejected_unavailable"
        )
        out["service.batch_retries"] = reported("service.batch_retries")
        out["service.worker_restarts"] = reported("service.worker_restarts")

    sim_wall = 0.0
    for algorithm in adapters.SIM_ALGORITHMS:
        wall = wall_s(f"simmpi.run[{algorithm}]")
        sim_wall += wall
        out[f"simmpi.{algorithm}.wall_s"] = wall
        for name, _unit, _better in _SIM_FIELDS[1:]:
            out[f"simmpi.{algorithm}.{name}"] = reported(f"simmpi.{algorithm}.{name}")
    out["simmpi.sim_overhead_ratio"] = _ratio(
        sim_wall, len(adapters.SIM_ALGORITHMS) * extras.get("serial_per_query_s", 0.0)
    )

    out["obs.tracing_overhead_ratio"] = extras["tracing_overhead_ratio"]
    out["obs.calibration_factor"] = extras["calibration_factor"]
    out["obs.unattributed_share"] = unattributed_share(pass_totals)
    out["obs.spans_per_pass"] = extras["spans"] / n
    out["obs.latency_tail_quantile"] = extras["latency_tail_quantile"]
    return out
