"""Integration: the paper's conclusions do not depend on the calibration.

Every time constant of the cost model is perturbed by 0.25x and 4x (21
points over the seven constants of ``SWEEPABLE_FIELDS``), and at every
point all five qualitative conclusions of
:mod:`repro.analysis.sensitivity` must still hold: run-time linear in N,
large inputs keep scaling, small inputs saturate, B's sorting cost grows
with p, B loses to A at scale.  A 400- and a 6400-sequence database
against 200 queries; smaller grids break ``rho_base`` x0.25 and
``iteration_overhead`` x4, so the scale is part of the claim.
"""

import pytest

from repro.analysis.sensitivity import SWEEPABLE_FIELDS, sweep
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

FACTORS = (0.25, 1.0, 4.0)


@pytest.fixture(scope="module")
def workload():
    return (
        generate_database(400, seed=202),
        generate_database(6400, seed=202),
        generate_queries(200, seed=17),
    )


@pytest.mark.parametrize("field", SWEEPABLE_FIELDS)
def test_conclusions_hold_under_perturbation(workload, field):
    small, large, queries = workload
    results = sweep(
        small, large, queries,
        factors=FACTORS, fields=(field,), ranks_small=8, ranks_large=32,
    )
    assert [c.factor for c in results] == list(FACTORS)
    broken = [c for c in results if not c.all_hold]
    assert not broken, broken
