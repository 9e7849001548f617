"""The paper's contribution: parallel peptide-identification algorithms."""

from repro.core.config import SearchConfig, ExecutionMode
from repro.core.costmodel import CostModel
from repro.core.partition import partition_database, partition_queries, partition_bounds
from repro.core.results import SearchReport, merge_rank_hits, reports_equal, write_tsv
from repro.core.search import ShardSearcher, search_serial
from repro.core.streaming import StreamingSearcher
from repro.core.master_worker import run_master_worker
from repro.core.algorithm_a import run_algorithm_a
from repro.core.algorithm_b import run_algorithm_b
from repro.core.xbang import run_xbang
from repro.core.driver import run_search, ALGORITHMS

__all__ = [
    "SearchConfig",
    "ExecutionMode",
    "CostModel",
    "partition_database",
    "partition_queries",
    "partition_bounds",
    "SearchReport",
    "merge_rank_hits",
    "reports_equal",
    "write_tsv",
    "ShardSearcher",
    "StreamingSearcher",
    "search_serial",
    "run_master_worker",
    "run_algorithm_a",
    "run_algorithm_b",
    "run_xbang",
    "run_search",
    "ALGORITHMS",
]
