"""Cost-model sensitivity analysis.

A reproduction whose conclusions only hold at one magic calibration is
fragile.  This module perturbs each cost-model constant over a range
(default 0.25x ... 4x) and re-evaluates the paper's qualitative
conclusions on a small grid, reporting which conclusions survive where:

* C1 — run-time ~linear in database size at fixed p;
* C2 — large inputs keep speeding up through large p;
* C3 — small inputs stop scaling at large p;
* C4 — Algorithm B's sorting overhead grows with p;
* C5 — Algorithm B loses to A at large p.

``tests/integration/test_sensitivity.py`` asserts every conclusion holds
across the whole default sweep — i.e. the reproduction's claims do not
depend on the calibration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.algorithm_a import run_algorithm_a
from repro.core.algorithm_b import run_algorithm_b
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.costmodel import CostModel

#: the constants worth perturbing (time constants only; the memory
#: constant is pinned by the paper's own numbers, see docs/cost_model.md)
SWEEPABLE_FIELDS = (
    "rho_base",
    "tau_cost",
    "scan_per_byte",
    "load_per_byte",
    "query_overhead",
    "iteration_overhead",
    "reduce_per_key",
)


@dataclass(frozen=True)
class ConclusionCheck:
    """One perturbation point's verdicts."""

    field: str
    factor: float
    c1_linear_in_n: bool
    c2_large_keeps_scaling: bool
    c3_small_stops_scaling: bool
    c4_sort_grows: bool
    c5_b_loses_at_scale: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.c1_linear_in_n
            and self.c2_large_keeps_scaling
            and self.c3_small_stops_scaling
            and self.c4_sort_grows
            and self.c5_b_loses_at_scale
        )


def _perturbed(cost: CostModel, field: str, factor: float) -> CostModel:
    return dataclasses.replace(cost, **{field: getattr(cost, field) * factor})


def check_conclusions(
    database_small,
    database_large,
    queries,
    cost: CostModel,
    ranks_small: int = 8,
    ranks_large: int = 64,
) -> Dict[str, bool]:
    """Evaluate the five conclusions under one cost model."""
    cfg = SearchConfig(execution=ExecutionMode.MODELED, cost=cost)

    t_small = {p: run_algorithm_a(database_small, queries, p, cfg).virtual_time
               for p in (1, ranks_small, ranks_large, 2 * ranks_large)}
    t_large = {p: run_algorithm_a(database_large, queries, p, cfg).virtual_time
               for p in (1, ranks_small, ranks_large)}

    # C1: doubling N ~doubles the 1-rank time (sizes differ 4x here)
    size_ratio = database_large.total_residues / database_small.total_residues
    c1 = abs(t_large[1] / t_small[1] - size_ratio) / size_ratio < 0.35

    # C2: the large input still gains from ranks_small -> ranks_large
    c2 = t_large[ranks_large] < t_large[ranks_small]

    # C3: the small input gains little (or loses) doubling past ranks_large
    c3 = t_small[2 * ranks_large] > 0.6 * t_small[ranks_large]

    b_small = run_algorithm_b(database_small, queries, 2, cfg)
    b_large = run_algorithm_b(database_small, queries, ranks_large, cfg)
    c4 = b_large.extras["sorting_time"] > b_small.extras["sorting_time"]
    c5 = b_large.virtual_time > t_small[ranks_large]

    return {
        "c1_linear_in_n": c1,
        "c2_large_keeps_scaling": c2,
        "c3_small_stops_scaling": c3,
        "c4_sort_grows": c4,
        "c5_b_loses_at_scale": c5,
    }


def sweep(
    database_small,
    database_large,
    queries,
    factors: Sequence[float] = (0.25, 1.0, 4.0),
    fields: Sequence[str] = SWEEPABLE_FIELDS,
    base: CostModel = CostModel(),
    ranks_small: int = 8,
    ranks_large: int = 64,
) -> List[ConclusionCheck]:
    """Perturb each field by each factor; return the verdict grid."""
    results: List[ConclusionCheck] = []
    for field in fields:
        for factor in factors:
            verdicts = check_conclusions(
                database_small,
                database_large,
                queries,
                _perturbed(base, field, factor),
                ranks_small=ranks_small,
                ranks_large=ranks_large,
            )
            results.append(ConclusionCheck(field=field, factor=factor, **verdicts))
    return results
