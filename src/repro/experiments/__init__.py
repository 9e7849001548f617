"""Declarative scenario-matrix experiments (ROADMAP item 1).

One YAML/dict scenario describes a whole grid of search runs — workload
x engine x config x fault plan x index mode — as the cross product of a
few axes plus explicitly listed cells.  The runner executes the grid
across processes with per-cell checkpoint/resume, each cell emitting a
schema-versioned RunReport, and folds everything into one comparative
aggregate (speedup/efficiency tables, identity checks, analytic
lower-bound cross-check).  ``repro experiments run/resume/report`` is
the CLI; docs/experiments.md is the field reference; checked-in
scenarios live under scenarios/.
"""

from repro.experiments.aggregate import (
    AGGREGATE_SCHEMA,
    build_aggregate,
    format_ascii,
    format_markdown,
    splice_markdown,
    validate_aggregate,
)
from repro.experiments.runner import aggregate_run, execute_cell, run_experiment
from repro.experiments.spec import (
    SPEC_SCHEMA,
    Axis,
    AxisValue,
    CellSpec,
    CheckSpec,
    ExperimentSpec,
    TableSpec,
)

__all__ = [
    "AGGREGATE_SCHEMA",
    "SPEC_SCHEMA",
    "Axis",
    "AxisValue",
    "CellSpec",
    "CheckSpec",
    "ExperimentSpec",
    "TableSpec",
    "aggregate_run",
    "build_aggregate",
    "execute_cell",
    "format_ascii",
    "format_markdown",
    "run_experiment",
    "splice_markdown",
    "validate_aggregate",
]
