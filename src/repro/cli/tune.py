"""``repro tune``: time the feasible plans, pick one, run it, check the pick."""

from __future__ import annotations

import argparse
import sys

from repro.cli.options import (
    add_db_options,
    add_search_args,
    load_database,
    make_config,
    positive_float,
    positive_int,
)
from repro.workloads.queries import generate_queries


def cmd_tune(args: argparse.Namespace) -> int:
    """Enumerate the plan grid, time each plan, run the pick, verify.

    Prints where the trial's numbers came from (measured or cache), every
    feasible plan with its two measured terms and the makespan they give
    at this workload's candidate count, why each other plan was pruned,
    the chosen run's predicted-vs-measured makespan, and the overlap
    lower bounds at simulated rank counts.  ``--report-out`` writes the
    full RunReport with the ``tuning`` section attached.
    """
    from repro.tune import autotune

    db = load_database(args)
    queries = generate_queries(args.queries, seed=args.query_seed)
    config = make_config(args)
    store = None
    if args.index_path:
        from repro.errors import IndexCompatError
        from repro.store import open_any_index

        store = open_any_index(args.index_path)
        if not store.partitioned:
            raise IndexCompatError(
                f"repro tune streams only from partitioned stores "
                f"(`repro index build --partition-mb ...`); "
                f"{args.index_path} holds a resident-format store"
            )
    result = autotune(
        db,
        queries,
        config,
        cache_path=args.tune_cache,
        retune=args.retune,
        store=store,
        memory_budget_mb=args.memory_budget_mb,
        run=not args.plan_only,
        anchor_ranks=args.anchor_ranks if args.anchor_ranks > 0 else None,
    )

    trial = result.trial_info
    workload = (
        f"{result.profile.num_queries} queries "
        f"({result.profile.total_candidates} candidates)"
    )
    if trial["source"] == "cache":
        print(f"trial: source: cache ({trial['cache_path']}), nothing timed; {workload}")
    else:
        sizes = " and ".join(str(size) for size in trial["samples"])
        print(
            f"trial: source: measured, {trial['trial_wall_s']:.2f}s timing every "
            f"plan on samples of {sizes} of {workload}"
        )
    print(
        f"grid: {len(result.trials)} feasible, {len(result.pruned)} pruned; "
        f"chose {result.chosen.label} (timed: {result.predicted_s:.3f}s)"
    )
    for entry in result.trials[: args.show_plans]:
        marker = "->" if entry.plan == result.chosen else "  "
        print(
            f"  {marker} {entry.predicted_s:9.3f}s  {entry.plan.label}  "
            f"({entry.fixed_s:.3f}s + {entry.seconds_per_candidate:.2e} s/candidate)"
        )
    for plan, reason in result.pruned:
        print(f"  pruned {plan.label}: {reason}")
    if result.verification is not None:
        ver = result.verification
        err = ver["rel_error"]
        print(
            f"verification: measured {ver['measured_makespan_s']:.3f}s vs "
            f"predicted {ver['predicted_makespan_s']:.3f}s"
            + (f" ({err:+.0%})" if err is not None else "")
        )
    if result.lower_bounds is not None:
        print(f"lower bounds: {result.lower_bounds['model']}")
        for p, point in result.lower_bounds["points"].items():
            print(
                f"  p={p:>5}: residual/compute {point['residual_to_compute']:.3f}, "
                f"overlap efficiency {point['overlap_efficiency']:.3f}, "
                f"floor {point['floor_makespan_s']:.3f}s "
                f"({'comm' if point['comm_floor_s'] >= point['compute_floor_s'] else 'compute'}-bound)"
            )
        anchor = result.lower_bounds.get("simulated_anchor")
        if anchor:
            print(
                f"  anchor (event simulator, p={anchor['ranks']}): makespan "
                f"{anchor['makespan_s']:.3f}s, residual/compute "
                f"{anchor['residual_to_compute']:.3f}"
            )
    if args.report_out:
        from repro.obs.report import RunReport

        if result.report is None:
            print(
                "error: --report-out needs the verification run; "
                "drop --plan-only",
                file=sys.stderr,
            )
            return 2
        RunReport.from_search_report(result.report, tuning=result.tuning).write(
            args.report_out
        )
        print(f"wrote run report to {args.report_out}")
    return 0


def register(sub) -> None:
    p_tune = sub.add_parser(
        "tune",
        help="time the feasible configurations, pick the fastest, verify it",
    )
    add_db_options(p_tune, "tune against")
    add_search_args(p_tune)
    p_tune.add_argument(
        "--index-path", default=None,
        help="partitioned store to time streamed plans against "
        "(resident-format stores are rejected)",
    )
    p_tune.add_argument(
        "--memory-budget-mb", type=positive_float, default=None,
        help="prune configurations whose resident footprint exceeds this",
    )
    p_tune.add_argument(
        "--tune-cache", default=None,
        help="keep the trial's measured rates in this file and reuse them "
        "on the next run (default: no cache, every run times its plans)",
    )
    p_tune.add_argument(
        "--retune", action="store_true",
        help="time the plans again even when a valid cache exists",
    )
    p_tune.add_argument(
        "--plan-only", action="store_true",
        help="stop after the pick; skip the verification run",
    )
    p_tune.add_argument(
        "--anchor-ranks", type=int, default=0,
        help="also run the event simulator once at this rank count as a "
        "lower-bound validation anchor (0 = off; 128 costs ~2s)",
    )
    p_tune.add_argument(
        "--show-plans", type=positive_int, default=5,
        help="timed configurations to print (fastest first)",
    )
    p_tune.add_argument(
        "--report-out", default=None,
        help="write the verification run's RunReport with the tuning section",
    )
    p_tune.set_defaults(func=cmd_tune)
