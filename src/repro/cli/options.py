"""Argument types, option groups and loaders shared by the CLI commands."""

from __future__ import annotations

import argparse
import math
import os
from typing import List, Optional

from repro.chem.fasta import read_fasta
from repro.core.config import ExecutionMode, SearchConfig
from repro.workloads.synthetic import generate_database


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value < math.inf:  # NaN and inf are no sizes, timeouts or tolerances
        raise argparse.ArgumentTypeError(f"expected a finite value > 0, got {value}")
    return value


def existing_file(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"file not found: {text}")
    return text


def add_db_options(p: argparse.ArgumentParser, fasta_verb: Optional[str] = None) -> None:
    """``--database-size/-n`` and ``--seed``; with ``fasta_verb`` also ``--database``.

    ``fasta_verb`` completes the ``--database`` help line ("search",
    "index", ...); commands that only ever take a synthetic database
    leave it out.  :func:`load_database` reads the result.
    """
    if fasta_verb is not None:
        p.add_argument(
            "--database", type=existing_file, default=None,
            help=f"{fasta_verb} a FASTA file instead of a synthetic database",
        )
    p.add_argument("--database-size", "-n", type=positive_int, default=2000, help="number of synthetic proteins")
    p.add_argument("--seed", type=int, default=202, help="database seed")


def load_database(args: argparse.Namespace):
    """The database :func:`add_db_options` described: the FASTA file, else synthetic."""
    if getattr(args, "database", None):
        return read_fasta(args.database)
    return generate_database(args.database_size, seed=args.seed)


def add_search_args(p: argparse.ArgumentParser) -> None:
    """Query workload and ``SearchConfig`` options (see :func:`make_config`)."""
    p.add_argument("--queries", "-m", type=positive_int, default=100, help="number of query spectra")
    p.add_argument("--query-seed", type=int, default=17, help="query workload seed")
    p.add_argument("--delta", type=positive_float, default=3.0, help="parent-mass tolerance (Da)")
    p.add_argument("--tau", type=positive_int, default=50, help="top hits kept per query")
    p.add_argument("--scorer", default="likelihood", help="scoring model")
    p.add_argument(
        "--sweep-cohort",
        type=positive_int,
        default=64,
        help="max queries packed into one scoring block",
    )


def make_config(args: argparse.Namespace, execution: ExecutionMode = ExecutionMode.REAL) -> SearchConfig:
    return SearchConfig(
        delta=args.delta,
        tau=args.tau,
        scorer=args.scorer,
        execution=execution,
        sweep_cohort=args.sweep_cohort,
    )


def explicit_cli_options(argv: List[str]) -> set:
    """Option strings the user actually typed (``--flag`` / ``--flag=x`` / ``-f``).

    argparse cannot distinguish a default from an explicitly passed
    default, so "explicit wins" rules (``--autotune`` precedence, the
    serial engine's rank count) scan the raw argv instead.
    """
    seen = set()
    for token in argv:
        if token.startswith("--"):
            seen.add(token.split("=", 1)[0])
        elif token.startswith("-") and len(token) > 1 and not token[1].isdigit():
            seen.add(token[:2])
    return seen
