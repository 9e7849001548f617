"""Autotuner benchmark: does the predicted-best config actually win?

Calibrates the cost model on this host, lets the tuner rank a bounded
configuration grid (serial/multiproc x cohort/blocks/stream knobs), then
*measures* every feasible plan and reports the tuner's regret — the
chosen plan's measured makespan over the measured best.  The acceptance
target is regret <= 1.15: the autotuned configuration lands within 15%
of the best exhaustive-grid configuration.

Also recorded, so future PRs have a trajectory:

* predicted-vs-measured makespan error for the chosen plan (the
  verification layer's headline number);
* rank correlation between predicted and measured orderings;
* the lower-bound overlap projection at p = 128/512/1024.

Run ``python benchmarks/bench_autotune.py`` to (re)generate
``BENCH_autotune.json``; ``--smoke`` runs a reduced workload and exits
non-zero when regret exceeds 1.15 or the tuning report is missing its
required sections.
"""

import os
import platform
import tempfile
import time

import numpy as np

from repro.core.config import SearchConfig
from repro.store import save_partitioned_index
from repro.tune.calibrate import CalibrationSpec, run_calibration
from repro.tune.lower_bounds import overlap_projection
from repro.tune.plan import choose_plan, enumerate_plans, profile_workload
from repro.tune.tuner import build_verification, run_plan
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

#: acceptance: chosen plan within 15% of the measured-best plan
REGRET_TARGET = 1.15

#: bounded grid the bench measures exhaustively
_WORKER_CHOICES = (2,)
_QUERY_BLOCKS = (1, 2)
_SWEEP_COHORTS = (64,)


def _measure_plans(plans, database, queries, config, store, store_path, repeats):
    """Best-of-``repeats`` wall seconds for every plan, interleaved.

    Repeats run round-robin across plans, not back-to-back per plan: a
    transient load spike on the host then inflates one *round* (which
    the per-plan min discards) instead of one plan's entire sample.
    """
    best = {plan: None for plan in plans}
    for _ in range(max(repeats, 1)):
        for plan in plans:
            _, wall, _ = run_plan(
                plan, database, queries, config, store=store, store_path=store_path
            )
            prev = best[plan]
            best[plan] = wall if prev is None else min(prev, wall)
    return best


def measure_autotune(num_proteins, num_queries, repeats, spec):
    database = generate_database(num_proteins, seed=202)
    queries = generate_queries(num_queries, seed=17)
    config = SearchConfig()

    t0 = time.perf_counter()
    calibration = run_calibration(spec)
    calibrate_s = time.perf_counter() - t0
    cost = calibration.cost_model(config.cost)

    with tempfile.TemporaryDirectory(prefix="repro-bench-tune-") as tmp:
        store_path = os.path.join(tmp, "pstore")
        store = save_partitioned_index(
            database,
            store_path,
            partition_mb=2.0,
            fragment_tolerance=config.fragment_tolerance,
        )
        profile = profile_workload(database, queries, config, store=store)
        plans, pruned = enumerate_plans(
            profile,
            worker_choices=_WORKER_CHOICES,
            query_blocks=_QUERY_BLOCKS,
            sweep_cohorts=_SWEEP_COHORTS,
            start_methods=("fork",) if "fork" in _start_methods() else ("spawn",),
            allow_stream=True,
        )
        chosen, prediction, ranking = choose_plan(plans, profile, cost)

        # one untimed warm-up so the first measured plan does not absorb
        # cold page-cache and import costs the others skip
        run_plan(
            ranking[0][0], database, queries, config, store=store, store_path=store_path
        )

        measured = _measure_plans(
            [plan for plan, _ in ranking],
            database,
            queries,
            config,
            store,
            store_path,
            repeats,
        )
        rows = [
            {
                "plan": plan.label,
                "predicted_s": pred.total,
                "measured_s": measured[plan],
                "chosen": plan == chosen,
            }
            for plan, pred in ranking
        ]

        # verification detail for the chosen plan (span-level comparison)
        _, wall, registry = run_plan(
            chosen, database, queries, config, store=store, store_path=store_path
        )
        verification = build_verification(chosen, prediction, wall, registry, calibration)

    best = min(rows, key=lambda r: r["measured_s"])
    chosen_row = next(r for r in rows if r["chosen"])
    regret = chosen_row["measured_s"] / best["measured_s"] if best["measured_s"] else 1.0

    predicted_order = [r["plan"] for r in sorted(rows, key=lambda r: r["predicted_s"])]
    measured_order = [r["plan"] for r in sorted(rows, key=lambda r: r["measured_s"])]
    ranks = {name: i for i, name in enumerate(measured_order)}
    n = len(rows)
    if n > 1:
        d2 = sum((ranks[name] - i) ** 2 for i, name in enumerate(predicted_order))
        spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1))
    else:
        spearman = 1.0

    return {
        "benchmark": "autotune_regret",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "num_proteins": num_proteins,
        "num_queries": num_queries,
        "repeats": repeats,
        "calibration_wall_s": calibrate_s,
        "calibrated_terms": dict(calibration.terms),
        "grid_feasible": len(rows),
        "grid_pruned": len(pruned),
        "chosen_plan": chosen.label,
        "best_plan": best["plan"],
        "chosen_measured_s": chosen_row["measured_s"],
        "best_measured_s": best["measured_s"],
        "autotune_regret": regret,
        "prediction_rank_correlation": spearman,
        "makespan_rel_error": verification["makespan_rel_error"],
        "plans": rows,
        "verification": verification,
        "lower_bounds": overlap_projection(profile),
    }


def _start_methods():
    import multiprocessing

    return multiprocessing.get_all_start_methods()


def main(argv=None):
    """Emit BENCH_autotune.json so future PRs have a tuner trajectory."""
    import argparse
    import json
    import pathlib
    import sys

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument(
        "--output",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_autotune.json"
        ),
    )
    parser.add_argument("--proteins", type=int, default=800)
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload for CI; fails when the autotuned pick is "
        ">15%% slower than the measured-best grid plan, and does not "
        "overwrite results",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        # full-repeat calibration even in smoke: a one-repeat battery
        # leaves the sweep fit inside measurement noise, and a bad fit
        # makes the regret assertion flaky rather than meaningful
        payload = measure_autotune(
            num_proteins=300,
            num_queries=200,
            repeats=3,
            spec=CalibrationSpec(include_spawn=False),
        )
        print(json.dumps(payload, indent=2))
        problems = []
        if payload["autotune_regret"] > REGRET_TARGET:
            problems.append(
                f"regret {payload['autotune_regret']:.2f} > {REGRET_TARGET} "
                f"(chose {payload['chosen_plan']}, best {payload['best_plan']})"
            )
        points = payload["lower_bounds"]["points"]
        for p in ("128", "512", "1024"):
            if p not in points:
                problems.append(f"lower bounds missing p={p}")
        if not payload["verification"]["phases"]:
            problems.append("verification reported no phases")
        if problems:
            print("FAIL: " + "; ".join(problems), file=sys.stderr)
            sys.exit(1)
        return
    payload = measure_autotune(
        args.proteins, args.queries, args.repeats, CalibrationSpec()
    )
    pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
