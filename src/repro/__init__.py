"""repro: scalable parallel peptide identification from MS/MS data.

A full reproduction of Kulkarni, Kalyanaraman, Cannon & Baxter,
"A Scalable Parallel Approach for Peptide Identification from
Large-Scale Mass Spectrometry Data" (ICPP Workshops 2009), as a
self-contained Python library: the space-optimal database-transport
algorithms (A and B), the MSPolygraph master-worker and X!!Tandem-like
baselines, the biochemistry and mass-spectrometry substrates they search
over, and a deterministic simulated distributed-memory machine that
stands in for the paper's 128-process MPI cluster.

Quickstart::

    from repro import generate_database, generate_queries, run_search

    database = generate_database(2_000, seed=0)
    queries = generate_queries(100, seed=17)
    report = run_search(database, queries, algorithm="algorithm_a", num_ranks=8)
    print(report.virtual_time, report.top_hit(0))

See README.md for the architecture overview, DESIGN.md for the paper ->
module map, and EXPERIMENTS.md for the reproduced tables and figures.
"""

from repro.chem import ProteinDatabase, ProteinRecord, read_fasta, write_fasta
from repro.core import (
    ALGORITHMS,
    CostModel,
    ExecutionMode,
    SearchConfig,
    SearchReport,
    reports_equal,
    run_algorithm_a,
    run_algorithm_b,
    run_master_worker,
    run_search,
    run_xbang,
    search_serial,
)
from repro.engines import run_multiprocess_search
from repro.obs import MetricsRegistry, RunReport, enable_metrics, get_metrics
from repro.scoring import Hit, TopHitList
from repro.simmpi import ClusterConfig, NetworkModel, SimCluster
from repro.spectra import Spectrum, SpectrumSimulator
from repro.workloads import (
    HUMAN,
    MICROBIAL,
    QueryWorkload,
    generate_database,
    generate_queries,
    load_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "ProteinDatabase",
    "ProteinRecord",
    "read_fasta",
    "write_fasta",
    "ALGORITHMS",
    "CostModel",
    "ExecutionMode",
    "SearchConfig",
    "SearchReport",
    "reports_equal",
    "run_algorithm_a",
    "run_algorithm_b",
    "run_master_worker",
    "run_search",
    "run_xbang",
    "search_serial",
    "run_multiprocess_search",
    "MetricsRegistry",
    "RunReport",
    "enable_metrics",
    "get_metrics",
    "Hit",
    "TopHitList",
    "ClusterConfig",
    "NetworkModel",
    "SimCluster",
    "Spectrum",
    "SpectrumSimulator",
    "HUMAN",
    "MICROBIAL",
    "QueryWorkload",
    "generate_database",
    "generate_queries",
    "load_dataset",
    "__version__",
]
