"""The one module that names ``repro`` functions and ``SearchConfig`` fields.

Everything else in this benchmark calls the program through here, so a
later change that renames or removes part of the surface (ROADMAP items
3, 4 and 6: ``use_sweep``, ``open_any_index``, the two ``save_*``
functions, ``ShardSearcher.search``) is absorbed in one place and the
same benchmark files run on both sides of that change.  Entry points are
looked up on their modules at call time, never copied into this
namespace, so the span wrappers :mod:`spans` installs are the ones that
run.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.e2e.spans import Boundary

ROOT = Path(__file__).resolve().parents[2]

# the checkout's own source, ahead of any installed copy: two checkouts
# measured side by side must each run their own program
sys.path.insert(0, str(ROOT / "src"))
try:
    import repro  # noqa: F401
except ImportError:
    raise SystemExit(
        f"benchmarks/e2e: cannot import the program (no 'repro' package under {ROOT / 'src'})"
    ) from None

#: the paper's four statistical models; one pass of a serial workload runs each
SCORERS = ("shared_peaks", "hyperscore", "xcorr", "likelihood")
#: the paper's algorithms, run on the simulated machine
SIM_ALGORITHMS = ("algorithm_a", "algorithm_b", "master_worker")


class Unavailable(RuntimeError):
    """An entry point a workload needs is gone from the program."""


def _attr(module: str, name: str) -> Any:
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        raise Unavailable(f"{module}.{name}") from None


def _has(module: str, name: str) -> bool:
    try:
        _attr(module, name)
    except Unavailable:
        return False
    return True


# -- inputs ---------------------------------------------------------------


def make_inputs(seed: int, proteins: int, queries: int):
    """Seeded database and query spectra (the microbial stand-in's statistics)."""
    database = _attr("repro.workloads", "generate_database")(proteins, seed=seed)
    spectra = _attr("repro.workloads", "generate_queries")(queries, seed=seed)
    return database, spectra


def write_inputs(database, spectra, fasta: Path, mgf: Path) -> None:
    _attr("repro.chem.fasta", "write_fasta")(str(fasta), database)
    _attr("repro.spectra.mgf", "write_mgf")(str(mgf), spectra)


def read_database(fasta: Path):
    return _attr("repro.chem.fasta", "read_fasta")(str(fasta))


def read_queries(mgf: Path):
    return _attr("repro.spectra.mgf", "read_mgf")(str(mgf))


def write_report(report, path: Path, database) -> None:
    _attr("repro.core.results", "write_tsv")(report, str(path), database)


# -- configuration --------------------------------------------------------


def _config_fields() -> set:
    return {f.name for f in dataclasses.fields(_attr("repro.core.config", "SearchConfig"))}


def search_config(scorer: str, *, tau: int = 50, index: bool, sweep: bool):
    """A ``SearchConfig`` for the named plan.

    ``sweep`` and ``index`` are passed only while the program still has
    the switch; once the sweep is the only path the flag means nothing.
    """
    fields = _config_fields()
    wanted = {"use_index": index, "use_sweep": sweep, "sweep_cohort": 64}
    kwargs = {k: v for k, v in wanted.items() if k in fields}
    return _attr("repro.core.config", "SearchConfig")(
        scorer=scorer, tau=tau, delta=3.0, **kwargs
    )


# -- engines --------------------------------------------------------------


def serial_search(database, queries, config, store=None, memory_budget_mb=None):
    search = _attr("repro.core.search", "search_serial")
    if store is None:
        return search(database, queries, config)
    return search(
        database, queries, config, index_store=store, memory_budget_mb=memory_budget_mb
    )


def reference_search(database, queries, scorer: str, tau: int = 50):
    """The serial reference: per-query direct path, no index, no sweep."""
    return serial_search(
        database, queries, search_config(scorer, tau=tau, index=False, sweep=False)
    )


def same_hits(a, b) -> bool:
    """The paper's validation predicate with bitwise-equal scores."""
    return _attr("repro.core.results", "reports_equal")(a, b, score_rtol=0.0)


def save_resident_store(database, path: Path):
    return _attr("repro.store", "save_index")(database, str(path))


def save_partitioned_store(database, path: Path, partition_mb: float):
    if _has("repro.store", "save_partitioned_index"):
        save = _attr("repro.store", "save_partitioned_index")
    else:
        # one store format: the partition size is a parameter of save_index
        save = _attr("repro.store", "save_index")
        if "partition_mb" not in inspect.signature(save).parameters:
            raise Unavailable("repro.store.save_partitioned_index")
    return save(database, str(path), partition_mb=partition_mb)


def open_store(path: Path):
    name = "open_any_index" if _has("repro.store", "open_any_index") else "open_index"
    return _attr("repro.store", name)(str(path))


def multiproc_search(database, queries, config, workers: int, query_blocks: int):
    return _attr("repro.engines.multiproc", "run_multiprocess_search")(
        database, queries, num_workers=workers, config=config, query_blocks=query_blocks
    )


def make_service(database, config, workers: int):
    """An unstarted coalescing ``SearchService`` over ``database``."""
    service_config = _attr("repro.service", "ServiceConfig")(workers=workers, coalesce=True)
    return _attr("repro.service", "SearchService")(
        config, service_config, database=database
    )


def program_error() -> type:
    """Base class of the program's typed errors (refusals, timeouts)."""
    return _attr("repro.errors", "ReproError")


def sim_search(database, queries, algorithm: str, ranks: int, config):
    return _attr("repro.core.driver", "run_search")(
        database, queries, algorithm=algorithm, num_ranks=ranks, config=config
    )


# -- what the program reports about itself --------------------------------


def stream_stats(report) -> Dict[str, float]:
    """``StreamStats`` of a streamed serial search (empty otherwise)."""
    return dict(report.extras.get("stream") or {})


def sim_trace(report) -> Dict[str, float]:
    """The overlap numbers of one simulated run (``TraceSummary``)."""
    trace = report.trace
    return {
        "virtual_time_s": report.virtual_time,
        "residual_to_compute": trace.mean_residual_to_compute,
        "masking_effectiveness": trace.masking_effectiveness,
        "total_wait_s": trace.total_wait,
        "total_comm_issued_s": trace.total_comm_issued,
    }


# -- boundaries the traced run records -------------------------------------


def _stats_counts(args, kwargs, stats) -> Dict[str, Any]:
    """``ShardStats`` returned by a shard pass."""
    return {
        "queries": int(stats.queries_processed),
        "candidates": int(stats.candidates_evaluated),
        "rows_scored": int(stats.rows_scored),
        "index_rows": int(stats.index_rows),
        "cohorts": int(stats.sweep_cohorts),
        "sweep_queries": int(stats.sweep_queries),
    }


def _block_counts(args, kwargs, result) -> Dict[str, Any]:
    scorer, _spectra, _batch, selections = args[:4]
    return {"tag": scorer.name, "rows": int(sum(len(s) for s in selections))}


def _batch_counts(args, kwargs, result) -> Dict[str, Any]:
    return {"tag": args[0].name, "rows": int(len(result))}


def _index_block_counts(args, kwargs, result) -> Dict[str, Any]:
    _index, scorer, _spectra, row_sets = args[:4]
    served = "posting" if hasattr(scorer, "score_index_block") else "matrix"
    return {"tag": served, "rows": int(sum(len(r) for r in row_sets))}


def _index_query_counts(served: str):
    def annotate(args, kwargs, result) -> Dict[str, Any]:
        return {"tag": served, "rows": int(len(result))}

    return annotate


def _built_counts(args, kwargs, built) -> Dict[str, Any]:
    layout = built.layout if hasattr(built, "layout") else built[0]
    return {"fragments": int(layout.num_fragments), "bytes": int(layout.nbytes)}


BOUNDARIES: List[Boundary] = [
    Boundary("chem.read_fasta", "repro.chem.fasta", "read_fasta"),
    Boundary("spectra.read_mgf", "repro.spectra.mgf", "read_mgf"),
    Boundary("core.report_write", "repro.core.results", "write_tsv"),
    Boundary("candidates.mass_index_build", "repro.candidates.generator", "CandidateGenerator.__init__"),
    Boundary("candidates.window_join", "repro.candidates.mass_index", "MassIndex.windows_many"),
    Boundary(
        "candidates.window_join", "repro.candidates.mass_index", "MassIndex.sweep_spans",
        lambda a, k, r: {"union_rows": int(len(r[0]))},
    ),
    Boundary("candidates.window_join", "repro.candidates.mass_index", "MassIndex.candidates_in_window"),
    Boundary("scoring.batch_build", "repro.candidates.batch", "CandidateBatch.from_spans"),
    Boundary("scoring.block", "repro.scoring.base", "block_scores", _block_counts),
    Boundary("scoring.block", "repro.scoring.base", "batch_scores", _batch_counts),
    Boundary("index.probe", "repro.index.fragment_index", "FragmentIndex.score_block", _index_block_counts),
    # the per-query siblings of score_block
    Boundary("index.probe", "repro.scoring.shared_peaks", "SharedPeakScorer.score_index", _index_query_counts("posting")),
    Boundary("index.probe", "repro.scoring.hyperscore", "HyperScorer.score_index", _index_query_counts("posting")),
    Boundary("index.probe", "repro.scoring.xcorr", "XCorrScorer.score_index", _index_query_counts("matrix")),
    Boundary("index.probe", "repro.scoring.likelihood", "LikelihoodRatioScorer.score_index", _index_query_counts("matrix")),
    Boundary("index.build", "repro.index.fragment_index", "IndexBuilder.build", _built_counts),
    Boundary("index.build", "repro.index.fragment_index", "IndexBuilder.build_partition", _built_counts),
    Boundary("store.save", "repro.store.index_store", "save_index"),
    Boundary("store.part_save", "repro.store.partitioned", "save_partitioned_index"),
    Boundary("store.open", "repro.store.partitioned", "open_any_index"),
    Boundary(
        "store.load", "repro.store.index_store", "StoredIndex.load_shard",
        lambda a, k, loaded: {"bytes": int(loaded.nbytes)},
    ),
    Boundary(
        "store.partition_read", "repro.store.partitioned", "PartitionedIndex.read_partition_blob",
        lambda a, k, blob: {"bytes": len(blob)},
    ),
    Boundary("store.partition_decode", "repro.store.partitioned", "PartitionedIndex.decode_partition_blob"),
    Boundary("core.search_serial", "repro.core.search", "search_serial"),
    Boundary("core.shard_pass", "repro.core.search", "ShardSearcher.run", _stats_counts),
    Boundary("core.stream_pass", "repro.core.streaming", "StreamingSearcher.run", _stats_counts),
    Boundary("core.topk", "repro.scoring.hits", "TopHitList.add_batch"),
    Boundary("core.topk", "repro.scoring.hits", "TopHitList.add_top_sorted"),
    Boundary("core.topk", "repro.scoring.hits", "TopHitList.sorted_hits"),
    Boundary("core.merge", "repro.core.results", "merge_rank_hits"),
    Boundary("engines.mp", "repro.engines.multiproc", "run_multiprocess_search"),
    Boundary("service.start", "repro.service.service", "SearchService.start"),
    Boundary("service.search", "repro.service.service", "SearchService.search"),
    Boundary(
        "simmpi.run", "repro.core.driver", "run_search",
        lambda a, k, r: {"tag": k.get("algorithm", a[2] if len(a) > 2 else "")},
    ),
]

def surface() -> Dict[str, bool]:
    """Which parts of the surface the ROADMAP plans to remove are still
    there; the benchmark must run without any of them."""
    return {
        "SearchConfig.use_sweep": "use_sweep" in _config_fields(),
        "repro.store.open_any_index": _has("repro.store", "open_any_index"),
        "repro.store.save_index": _has("repro.store", "save_index"),
        "repro.store.save_partitioned_index": _has("repro.store", "save_partitioned_index"),
        "ShardSearcher.search": hasattr(_attr("repro.core.search", "ShardSearcher"), "search"),
    }
