"""``repro experiments``: run, resume and report declarative scenario grids."""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cli.options import positive_int


def _experiments_out_dir(args: argparse.Namespace, spec) -> str:
    return args.out or os.path.join("runs", spec.name)


def _experiments_finish(args: argparse.Namespace, spec, out_dir: str, aggregate) -> int:
    """Shared tail of run/resume/report: emit, splice, decide exit status."""
    from repro.experiments import format_ascii, format_markdown, splice_markdown

    fmt = getattr(args, "format", "ascii")
    if fmt == "json":
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    elif fmt == "markdown":
        print(format_markdown(aggregate))
    else:
        print(format_ascii(aggregate))
    if getattr(args, "report_out", None):
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(aggregate, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.report_out}")
    for target in getattr(args, "update", None) or []:
        try:
            with open(target, "r", encoding="utf-8") as fh:
                document = fh.read()
        except FileNotFoundError:
            document = ""
        document = splice_markdown(document, spec.name, format_markdown(aggregate))
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(document)
        print(f"updated {target} (section experiments:{spec.name})")
    bad_checks = [c["name"] for c in aggregate["checks"] if not c["ok"]]
    if aggregate["failed"]:
        print(
            f"\n{len(aggregate['failed'])} cell(s) FAILED; "
            f"`repro experiments resume {args.scenario} --out {out_dir}` retries them",
            file=sys.stderr,
        )
        return 1
    if bad_checks:
        print(f"\nidentity check(s) FAILED: {', '.join(bad_checks)}", file=sys.stderr)
        return 1
    return 0


def cmd_experiments_run(args: argparse.Namespace) -> int:
    """Execute a scenario grid (fresh, or continuing with ``resume``)."""
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec.from_file(args.scenario)
    out_dir = _experiments_out_dir(args, spec)
    say = (lambda line: None) if args.quiet else print
    say(
        f"scenario {spec.name}: {len(spec.cells())} cells -> {out_dir} "
        f"(workers={args.workers})"
    )
    aggregate = run_experiment(
        spec,
        out_dir,
        workers=args.workers,
        resume=args.resume,
        progress=say,
    )
    say("")
    return _experiments_finish(args, spec, out_dir, aggregate)


def cmd_experiments_report(args: argparse.Namespace) -> int:
    """Rebuild and print the aggregate from an existing run directory."""
    from repro.experiments import ExperimentSpec, aggregate_run

    spec = ExperimentSpec.from_file(args.scenario)
    out_dir = _experiments_out_dir(args, spec)
    if not os.path.isdir(os.path.join(out_dir, "cells")):
        print(
            f"error: {out_dir} holds no cell reports; run "
            f"`repro experiments run {args.scenario}` first",
            file=sys.stderr,
        )
        return 2
    aggregate = aggregate_run(spec, out_dir)
    return _experiments_finish(args, spec, out_dir, aggregate)


def register(sub) -> None:
    p_exp = sub.add_parser(
        "experiments",
        help="run/resume/report a declarative scenario grid (docs/experiments.md)",
    )
    exp_sub = p_exp.add_subparsers(dest="experiments_command", required=True)

    def _exp_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("scenario", help="scenario file (YAML or JSON)")
        p.add_argument(
            "--out", default=None,
            help="run directory (default: runs/<scenario name>)",
        )
        p.add_argument(
            "--format", choices=["ascii", "markdown", "json"], default="ascii",
            help="aggregate rendering printed to stdout",
        )
        p.add_argument(
            "--report-out", default=None,
            help="also write the aggregate JSON to this path",
        )
        p.add_argument(
            "--update", action="append", default=None, metavar="FILE",
            help="splice the markdown rendering into FILE between "
            "'<!-- experiments:NAME begin/end -->' markers (repeatable)",
        )

    p_exp_run = exp_sub.add_parser(
        "run", help="execute every cell of a scenario and aggregate"
    )
    _exp_common(p_exp_run)
    p_exp_run.add_argument(
        "--workers", "-j", type=positive_int, default=1,
        help="cells executed concurrently (separate OS processes)",
    )
    p_exp_run.add_argument("--quiet", action="store_true", help="no per-cell progress")
    p_exp_run.set_defaults(func=cmd_experiments_run, resume=False)

    p_exp_res = exp_sub.add_parser(
        "resume",
        help="continue a killed/partial run; completed cells are not rerun",
    )
    _exp_common(p_exp_res)
    p_exp_res.add_argument(
        "--workers", "-j", type=positive_int, default=1,
        help="cells executed concurrently (separate OS processes)",
    )
    p_exp_res.add_argument("--quiet", action="store_true", help="no per-cell progress")
    p_exp_res.set_defaults(func=cmd_experiments_run, resume=True)

    p_exp_rep = exp_sub.add_parser(
        "report", help="rebuild the aggregate from an existing run directory"
    )
    _exp_common(p_exp_rep)
    p_exp_rep.set_defaults(func=cmd_experiments_report)

