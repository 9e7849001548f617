"""run_search: the single entry point over every engine, and the rule
that picks a real engine for a workload.

One function decides which engine runs for a given (algorithm, index
store, fault plan) and which typed error a combination that cannot run
gets.  The CLI (``search``, ``trace``) and the experiments runner come
through here; neither calls an engine directly.  :func:`choose_plan` is
what ``search --autotune`` and the ``autotune`` experiments engine run
first: two comparisons on the workload's shape, nothing timed.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.candidates.generator import heaviest_parent_mass
from repro.chem.protein import ProteinDatabase
from repro.core.algorithm_a import run_algorithm_a
from repro.core.algorithm_b import run_algorithm_b
from repro.core.config import SearchConfig
from repro.core.master_worker import run_master_worker
from repro.core.results import SearchReport
from repro.core.search import ShardSearcher, search_serial
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


#: schema tag of the RunReport ``tuning`` section (optional section, so
#: the report schema itself does not bump — same pattern as ``service``)
TUNING_SCHEMA = "repro.tuning/4"

#: exact candidate total above which two worker processes beat one
#: serial pass.  Measured on a 2-vCPU x86-64 host, median of 5
#: interleaved runs, multiproc (2 workers, 4 query blocks, fork) time
#: over serial time, direct, likelihood / hyperscore / shared_peaks /
#: xcorr: 500 x 300 (16.2 K candidates) 1.30 / 1.05 / 1.24 / 1.19;
#: 800 x 400 (34.7 K) 1.15 / 1.02 / 1.01 / 0.87; 800 x 700 (60.6 K)
#: 0.92 / 0.81 / 0.97 / 0.83; 1200 x 800 (104 K) 0.80 / 0.69 / 0.82 /
#: 0.92; 2000 x 2000 (430 K) 0.69 / 0.66 / 0.79 / 0.68; 4000 x 4000
#: (1.73 M) 0.65 / 0.58 likelihood / hyperscore
MULTIPROC_CROSSOVER_CANDIDATES = 50_000

#: multiproc query blocks: 4 vs 1 measured 0.154 vs 0.160 s direct at
#: 800 x 400, 0.723 vs 0.798 s at 2000 x 2000 (best of 3, 2 vCPUs)
MULTIPROC_QUERY_BLOCKS = 4


@dataclass(frozen=True)
class Plan:
    """A way of running a search on the real engines, and why it was picked."""

    algorithm: str = "serial"  #: "serial" or "multiproc"
    num_workers: int = 1
    query_blocks: int = 1
    #: multiproc only: fork where the platform has it (spawn measured
    #: 1.68-2.05 s where its fork twin took 0.15-0.35 s)
    start_method: Optional[str] = None
    #: "direct" or "streamed" from a partitioned store ("resident" only
    #: where a caller's explicit store overrides the pick)
    source: str = "direct"
    #: what :func:`choose_plan` compared (candidates, crossover, cpus, ...)
    inputs: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        parts = [self.algorithm]
        if self.algorithm == "multiproc":
            parts += [f"w={self.num_workers}", f"blocks={self.query_blocks}"]
            parts += [self.start_method] if self.start_method else []
        return ":".join(parts + [self.source])

    def tuning_section(self, overrides: Sequence[str] = ()) -> Dict[str, Any]:
        """The RunReport ``tuning`` section (schema ``repro.tuning/4``):
        the rule's inputs, the plan that ran, and the explicit flags that
        overrode the rule's pick."""
        choice = {
            k: v for k, v in dataclasses.asdict(self).items() if k != "inputs"
        }
        return {
            "schema": TUNING_SCHEMA,
            "inputs": dict(self.inputs),
            "choice": {**choice, "label": self.label},
            "overrides": list(overrides),
        }


def choose_plan(
    database: ProteinDatabase,
    queries: Sequence[Spectrum],
    config: Optional[SearchConfig] = None,
    *,
    store=None,
    memory_budget_mb: Optional[float] = None,
) -> Plan:
    """Pick the real engine for a workload from two comparisons.

    1. **Stream or not.**  Streamed only when a partitioned ``store`` is
       at hand *and* ``memory_budget_mb`` is below the resident footprint
       (database + query bytes).  A budget under the footprint with
       nothing to stream from raises :class:`ConfigError`.
    2. **Serial or multiproc.**  Multiproc at ``min(cpus, 2)`` workers
       when the host has two cores and the workload's exact candidate
       total exceeds :data:`MULTIPROC_CROSSOVER_CANDIDATES`; serial
       otherwise.
    """
    config = config if config is not None else SearchConfig()
    queries = list(queries)
    cpus = os.cpu_count() or 1
    resident = int(database.nbytes) + sum(int(q.nbytes) for q in queries)
    streamable = store is not None and store.partitioned
    over_budget = (
        memory_budget_mb is not None and resident > memory_budget_mb * 1024 * 1024
    )
    if over_budget and not streamable:
        raise ConfigError(
            f"the resident footprint ({resident} B) exceeds --memory-budget-mb "
            f"{memory_budget_mb:g} and there is no partitioned store to stream "
            f"from; add --stream, or point --index-path at a partitioned store"
        )
    searcher = ShardSearcher(database, config, max_parent_mass=heaviest_parent_mass(queries))
    candidates = int(searcher.count_each(queries).sum())
    inputs = {
        "candidates": candidates,
        "crossover": MULTIPROC_CROSSOVER_CANDIDATES,
        "cpus": cpus,
        "memory_budget_mb": memory_budget_mb,
        "resident_bytes": resident,
        "store": streamable,
    }
    source = "streamed" if over_budget else "direct"
    if cpus >= 2 and candidates > MULTIPROC_CROSSOVER_CANDIDATES:
        fork = "fork" in multiprocessing.get_all_start_methods()
        return Plan(
            "multiproc",
            min(cpus, 2),
            MULTIPROC_QUERY_BLOCKS,
            "fork" if fork else "spawn",
            source,
            inputs,
        )
    return Plan(source=source, inputs=inputs)
