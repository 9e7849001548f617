"""Cost-model calibration against the real scoring kernel.

The virtual-time defaults in :class:`repro.core.costmodel.CostModel`
are paper-scaled (they land Table II in the paper's units).  This module
offers the alternative: measure *this host's* actual per-candidate
scoring cost and build a cost model from it, so simulated times predict
real wall-clock of a hypothetical single-node run of our Python kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import SearchConfig
from repro.core.costmodel import CostModel
from repro.core.search import ShardSearcher
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@dataclass(frozen=True)
class CalibrationResult:
    """Measured constants and the cost model built from them."""

    rho_measured: float  #: seconds per candidate evaluation (real kernel)
    candidates_timed: int
    wall_time: float
    model: CostModel


def calibrate_rho(
    num_proteins: int = 400,
    num_queries: int = 40,
    config: SearchConfig = None,
    seed: int = 5,
    min_candidates: int = 200,
) -> CalibrationResult:
    """Time the real scoring kernel and fit rho_base.

    Runs a small real search, measures wall time per candidate, and
    returns a cost model whose ``rho_base`` makes
    ``rho(configured scorer) == measured per-candidate cost``.
    """
    config = config or SearchConfig()
    database = generate_database(num_proteins, seed=seed)
    queries = generate_queries(num_queries, seed=seed + 1)
    searcher = ShardSearcher(database, config)
    hitlists = {}
    start = time.perf_counter()
    stats = searcher.run(queries, hitlists)
    elapsed = time.perf_counter() - start
    candidates = max(stats.candidates_evaluated, 1)
    if stats.candidates_evaluated < min_candidates:
        # widen the windows rather than report a noise-dominated constant
        wide = SearchConfig(
            delta=config.delta * 4,
            tau=config.tau,
            scorer=config.scorer,
            fragment_tolerance=config.fragment_tolerance,
        )
        searcher = ShardSearcher(database, wide)
        hitlists = {}
        start = time.perf_counter()
        stats = searcher.run(queries, hitlists)
        elapsed = time.perf_counter() - start
        candidates = max(stats.candidates_evaluated, 1)
    rho = elapsed / candidates
    base = CostModel()
    model = CostModel(
        rho_base=rho / searcher.scorer.relative_cost,
        tau_cost=base.tau_cost,
        scan_per_byte=base.scan_per_byte,
        load_per_byte=base.load_per_byte,
    )
    return CalibrationResult(
        rho_measured=rho, candidates_timed=candidates, wall_time=elapsed, model=model
    )
