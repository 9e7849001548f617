"""run_search: the single entry point over every engine.

One function decides which engine runs for a given (algorithm, index
store, fault plan) and which typed error a combination that cannot run
gets.  The CLI (``search``, ``trace``), the experiments runner and the
tuner's verification run all come through here; none of them calls an
engine directly.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Sequence

from repro.chem.protein import ProteinDatabase
from repro.core.algorithm_a import run_algorithm_a
from repro.core.algorithm_b import run_algorithm_b
from repro.core.config import SearchConfig
from repro.core.master_worker import run_master_worker
from repro.core.results import SearchReport
from repro.core.search import search_serial
from repro.core.xbang import run_xbang
from repro.errors import ConfigError, IndexCompatError
from repro.faults.plan import FaultPlan
from repro.simmpi.scheduler import ClusterConfig
from repro.spectra.spectrum import Spectrum


def _serial(
    db, queries, num_ranks, config, cluster_config, index_store=None, memory_budget_mb=None
):
    if num_ranks != 1:
        raise ConfigError(f"serial engine requires num_ranks == 1, got {num_ranks}")
    return search_serial(
        db, queries, config, index_store=index_store, memory_budget_mb=memory_budget_mb
    )


def _algorithm_a(db, queries, num_ranks, config, cluster_config):
    return run_algorithm_a(
        db, queries, num_ranks, config, mask=True, cluster_config=cluster_config
    )


def _algorithm_a_nomask(db, queries, num_ranks, config, cluster_config):
    return run_algorithm_a(
        db, queries, num_ranks, config, mask=False, cluster_config=cluster_config
    )


def _algorithm_b(db, queries, num_ranks, config, cluster_config):
    return run_algorithm_b(db, queries, num_ranks, config, cluster_config=cluster_config)


def _master_worker(db, queries, num_ranks, config, cluster_config):
    return run_master_worker(db, queries, num_ranks, config, cluster_config=cluster_config)


def _xbang(db, queries, num_ranks, config, cluster_config):
    return run_xbang(db, queries, num_ranks, config, cluster_config=cluster_config)


#: the paper's engines by name: the serial reference plus the simulated
#: cluster algorithms.  ``run_search`` also takes "multiproc", the real
#: process-parallel engine, which is not one of the paper's.
ALGORITHMS: Dict[str, Callable[..., SearchReport]] = {
    "serial": _serial,
    "algorithm_a": _algorithm_a,
    "algorithm_a_nomask": _algorithm_a_nomask,
    "algorithm_b": _algorithm_b,
    "master_worker": _master_worker,
    "xbang": _xbang,
}


def _open_store(index_path, algorithm: str):
    """Open the persisted index a real engine will be served from.

    Opened here so a missing or corrupt path, or an engine the store
    cannot go with, fails typed before any work.  Whether the *search
    configuration* and memory budget can be served from it, and that it
    was built from this database, is each engine's own entry check
    (``search_serial`` / ``run_multiprocess_search`` raise the same
    typed errors for direct callers).
    """
    from repro.store import open_any_index

    if algorithm not in ("serial", "multiproc"):
        raise IndexCompatError(
            f"--index-path / --stream are served by the real engines (serial, "
            f"multiproc); the simulated engine {algorithm!r} models "
            f"execution and cannot memory-map a persisted index"
        )
    return open_any_index(index_path)


def run_search(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    algorithm: str = "algorithm_a",
    num_ranks: int = 1,
    config: Optional[SearchConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    *,
    index_path: Optional[str] = None,
    memory_budget_mb: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    query_blocks: int = 1,
    start_method: Optional[str] = None,
    max_retries: int = 2,
    task_timeout: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> SearchReport:
    """Run a peptide-identification search with the named engine.

    Args:
        database: the protein database D.
        queries: experimental spectra Q.
        algorithm: a key of ``ALGORITHMS`` ("serial", "algorithm_a",
            "algorithm_a_nomask", "algorithm_b", "master_worker",
            "xbang") or "multiproc", the real process-parallel engine.
        num_ranks: processor count p (simulated ranks, or multiproc
            worker processes; the serial engine requires 1).
        config: search parameters (delta, tau, scorer, execution mode).
        cluster_config: simulated machine (RAM cap, network constants);
            only the simulated engines read it.
        index_path: serve the search from a persisted index directory
            (``repro.store``); real engines only.  A partitioned store
            streams out-of-core.
        memory_budget_mb: bound on each streaming reader's resident
            partition bytes; meaningful only with a partitioned store.
        fault_plan: faults injected into the run.  The simulated engines
            take the whole plan through their ``ClusterConfig``;
            multiproc maps each simulated rank crash onto one injected
            crash of the task with that id; the serial engine has
            nothing to fail over to and ignores it.
        query_blocks, start_method, max_retries, task_timeout,
            checkpoint_path, resume: multiproc decomposition and
            supervision knobs, passed through to
            :func:`~repro.engines.multiproc.run_multiprocess_search`.

    Returns:
        a :class:`~repro.core.results.SearchReport`.

    Raises:
        ConfigError: unknown algorithm, bad rank count, or a memory
            budget with nothing streamed to bound (no store, or a
            resident store, which is mapped whole).
        IndexCompatError: an index store the engine or the search
            configuration cannot be served from.
    """
    if algorithm != "multiproc" and algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; expected one of "
            f"{sorted(ALGORITHMS)} or 'multiproc'"
        )
    if num_ranks < 1:
        raise ConfigError(f"num_ranks must be >= 1, got {num_ranks}")
    config = config if config is not None else SearchConfig()
    if memory_budget_mb is not None and index_path is None:
        raise ConfigError(
            "--memory-budget-mb bounds streamed partition residency and is "
            "silently meaningless for resident runs; add --stream, or point "
            "--index-path at a partitioned store"
        )
    store = None
    if index_path is not None:
        store = _open_store(index_path, algorithm)

    if algorithm == "multiproc":
        from repro.engines.multiproc import run_multiprocess_search
        from repro.faults.injector import FaultInjector, TaskFault

        injector = None
        if fault_plan is not None and fault_plan.crashes:
            injector = FaultInjector(
                tuple(TaskFault(c.rank, "crash", attempts=1) for c in fault_plan.crashes)
            )
        return run_multiprocess_search(
            database,
            queries,
            num_workers=num_ranks,
            config=config,
            query_blocks=query_blocks,
            start_method=start_method,
            max_retries=max_retries,
            task_timeout=task_timeout,
            checkpoint_path=checkpoint_path,
            resume=resume,
            fault_injector=injector,
            index_path=index_path,
            memory_budget_mb=memory_budget_mb,
        )
    if algorithm == "serial":
        return _serial(
            database, queries, num_ranks, config, cluster_config,
            index_store=store, memory_budget_mb=memory_budget_mb,
        )
    if fault_plan is not None:
        cluster_config = dataclasses.replace(
            cluster_config or ClusterConfig(num_ranks=num_ranks), fault_plan=fault_plan
        )
    return ALGORITHMS[algorithm](database, queries, num_ranks, config, cluster_config)
