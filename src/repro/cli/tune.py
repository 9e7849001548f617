"""``repro tune``: calibrate the cost model, pick a configuration, verify it."""

from __future__ import annotations

import argparse
import math
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
    """Calibrate, search the configuration grid, run the pick, verify.

    Prints the calibrated terms that moved furthest off their defaults,
    the predicted-makespan ranking, the chosen run's predicted-vs-
    measured phase table, and the overlap lower bounds at simulated
    rank counts.  ``--report-out`` writes the full RunReport with the
    ``tuning`` section attached.
    """
    from repro.tune import autotune
    from repro.tune.calibrate import CalibrationSpec

    db = load_database(args)
    queries = generate_queries(args.queries, seed=args.query_seed)
    config = make_config(args)
    store = None
    if args.index_path:
        from repro.errors import IndexCompatError
        from repro.store import open_any_index
        from repro.store.partitioned import PartitionedIndex

        store = open_any_index(args.index_path)
        if not isinstance(store, PartitionedIndex):
            raise IndexCompatError(
                f"repro tune streams only from partitioned stores "
                f"(`repro index build --partition-mb ...`); "
                f"{args.index_path} holds a resident-format store"
            )
    spec = (
        CalibrationSpec(
            db_size=120, num_queries=80, store_db_size=60,
            repeats=1, include_spawn=False,
        )
        if args.quick
        else CalibrationSpec()
    )
    result = autotune(
        db,
        queries,
        config,
        cache_path=args.tune_cache,
        force_calibrate=args.force_calibrate,
        spec=spec,
        store=store,
        store_path=args.index_path,
        memory_budget_mb=args.memory_budget_mb,
        run=not args.plan_only,
        anchor_ranks=args.anchor_ranks if args.anchor_ranks > 0 else None,
    )

    cal = result.calibration
    print(f"calibration: {cal.source}" + (f" ({cal.cache_path})" if cal.cache_path else ""))
    vs = cal.details.get("vs_defaults") or {}
    moved = sorted(
        (k for k in vs if vs[k].get("ratio") is not None),
        key=lambda k: abs(math.log10(max(vs[k]["ratio"], 1e-12))),
        reverse=True,
    )
    for key in moved[: args.show_terms]:
        entry = vs[key]
        print(
            f"  {key:<26} {entry['calibrated']:.3e}  "
            f"(default {entry['default']:.3e}, x{entry['ratio']:.2f})"
        )
    print(
        f"grid: {len(result.ranking)} feasible, {len(result.pruned)} pruned; "
        f"chose {result.chosen.label} (predicted {result.prediction.total:.3f}s)"
    )
    for plan, pred in result.ranking[: args.show_plans]:
        marker = "->" if plan == result.chosen else "  "
        print(f"  {marker} {pred.total:9.3f}s  {plan.label}")
    if result.verification is not None:
        ver = result.verification
        err = ver["makespan_rel_error"]
        print(
            f"verification: measured {ver['measured_makespan_s']:.3f}s vs "
            f"predicted {ver['predicted_makespan_s']:.3f}s"
            + (f" ({err:+.0%})" if err is not None else "")
        )
        for name, phase in ver["phases"].items():
            measured = (
                f"{phase['measured_s']:.4f}s" if phase["measured_s"] is not None else "n/a"
            )
            rel = f" ({phase['rel_error']:+.0%})" if phase["rel_error"] is not None else ""
            print(f"  {name:<28} predicted {phase['predicted_s']:.4f}s measured {measured}{rel}")
        for name, term in ver["terms"].items():
            rel = f" ({term['rel_error']:+.0%})" if term["rel_error"] is not None else ""
            predicted = (
                f"{term['predicted']:.3e}" if term["predicted"] is not None else "n/a"
            )
            print(f"  {name:<34} predicted {predicted} measured {term['measured']:.3e}{rel}")
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
        help="calibrate the cost model, pick the best configuration, verify it",
    )
    add_db_options(p_tune, "tune against")
    add_search_args(p_tune)
    p_tune.add_argument(
        "--index-path", default=None,
        help="partitioned store to consider streamed plans against "
        "(resident-format stores are rejected)",
    )
    p_tune.add_argument(
        "--memory-budget-mb", type=positive_float, default=None,
        help="prune configurations whose resident footprint exceeds this",
    )
    p_tune.add_argument(
        "--tune-cache", default=None,
        help="calibration cache path (default: ~/.cache/repro/calibration.json)",
    )
    p_tune.add_argument(
        "--force-calibrate", action="store_true",
        help="re-measure even when a valid cache exists",
    )
    p_tune.add_argument(
        "--quick", action="store_true",
        help="smaller calibration battery (seconds, less precise)",
    )
    p_tune.add_argument(
        "--plan-only", action="store_true",
        help="stop after planning; skip the verification run",
    )
    p_tune.add_argument(
        "--anchor-ranks", type=int, default=0,
        help="also run the event simulator once at this rank count as a "
        "lower-bound validation anchor (0 = off; 128 costs ~2s)",
    )
    p_tune.add_argument(
        "--show-terms", type=positive_int, default=8,
        help="calibrated terms to print (furthest from defaults first)",
    )
    p_tune.add_argument(
        "--show-plans", type=positive_int, default=5,
        help="ranked configurations to print",
    )
    p_tune.add_argument(
        "--report-out", default=None,
        help="write the verification run's RunReport with the tuning section",
    )
    p_tune.set_defaults(func=cmd_tune)
