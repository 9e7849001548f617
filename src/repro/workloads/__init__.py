"""Workload generators: synthetic databases, query sets, figure data."""

from repro.workloads.synthetic import SyntheticProteinGenerator, generate_database
from repro.workloads.queries import QueryWorkload, generate_queries
from repro.workloads.datasets import (
    DatasetSpec,
    HUMAN,
    MICROBIAL,
    load_dataset,
)
from repro.workloads.growth import genbank_growth_series
from repro.workloads.candidate_counts import candidate_count_by_source, SOURCE_CLASSES

__all__ = [
    "SyntheticProteinGenerator",
    "generate_database",
    "QueryWorkload",
    "generate_queries",
    "DatasetSpec",
    "HUMAN",
    "MICROBIAL",
    "load_dataset",
    "genbank_growth_series",
    "candidate_count_by_source",
    "SOURCE_CLASSES",
]
