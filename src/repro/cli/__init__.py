"""Command-line interface: ``python -m repro <command>`` or ``repro <command>``.

One module per command group, each exposing ``register(subparsers)``;
shared option helpers live in :mod:`repro.cli.options`.  Commands:

* ``generate`` — write a synthetic database as FASTA.
* ``index``    — ``index build`` persists a fragment index to a
  directory (build once); ``index inspect`` prints its header.  A
  persisted index is fingerprint-bound to the exact database and build
  options that produced it and is memory-mapped read-only at search
  time (load many); see docs/index_persistence.md.
* ``search``   — run a search with any engine and print the top hits
  (``--index-path`` serves it from a persisted index).  ``--report-out
  report.json`` writes the schema-versioned
  :class:`~repro.obs.report.RunReport` (trace, fault stats, extras and a
  metrics snapshot in one document); see docs/observability.md.
  ``--autotune`` picks serial or multiproc, direct or streamed, by
  :func:`repro.core.driver.choose_plan`'s two comparisons (nothing
  timed); explicitly typed flags always win.
* ``trace``    — export one run's timeline as Chrome trace-event JSON
  (open in chrome://tracing or Perfetto), or as an ascii utilization
  table and gantt.
* ``experiments`` — run/resume/report a declarative scenario grid
  (``scenarios/*.yaml``): every cell a checkpointed RunReport, one
  aggregate with speedup/efficiency tables and identity checks
  (docs/experiments.md).  ``scenarios/paper_tables.yaml`` reproduces the
  paper's tables, ``scenarios/validation.yaml`` its validation
  experiment (every engine's hits equal the serial engine's).
* ``report``   — assemble ``benchmarks/output/*.txt`` into
  REPRODUCTION_REPORT.md.
* ``serve``    — start the long-lived search service and replay a
  deterministic multi-client request storm against it (admission
  control, coalescing, deadlines, fault injection; docs/service.md).

Every engine is reached through :func:`repro.core.driver.run_search`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import data, experiments, search, serve
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable parallel peptide identification (ICPP 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in (data, search, experiments, serve):
        group.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(raw_argv)
    # raw argv lets commands tell typed flags from argparse defaults
    args._cli_argv = raw_argv
    try:
        return args.func(args)
    except ReproError as exc:
        # typed library failures (bad FASTA, bad fault plan, checkpoint
        # mismatch, ...) become a clean one-line message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
