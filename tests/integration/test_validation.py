"""Integration: the paper's validation experiment (Section III).

"Upon validation, we found that both implementations A & B successfully
reproduce MSPolygraph's output ... This validates the correctness of the
programs because internally we use the same scoring functions."

Here the reference is the serial engine; every parallel engine must
reproduce its per-query top-tau output exactly (bitwise scores), at every
processor count, with every scorer.
"""

import pytest

from repro.core.config import SearchConfig
from repro.core.driver import run_search
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.engines.multiproc import run_multiprocess_search


@pytest.fixture(scope="module")
def reference(small_db, tiny_queries):
    return search_serial(small_db, tiny_queries, SearchConfig(tau=10))


PARALLEL = ("algorithm_a", "algorithm_a_nomask", "algorithm_b", "master_worker")


def test_reference_is_not_vacuous(reference):
    """Equality with an empty reference would prove nothing."""
    assert reference.candidates_evaluated > 0
    assert any(reference.hits.values())


@pytest.mark.parametrize(
    "p, algorithm",
    [(p, algorithm) for p in (1, 2, 3, 8) for algorithm in PARALLEL]
    # the paper's largest p: a rank's block, prepared once, meets 64 shards
    + [(64, "algorithm_a"), (64, "algorithm_b")],
)
def test_parallel_reproduces_serial(small_db, tiny_queries, reference, algorithm, p):
    report = run_search(small_db, tiny_queries, algorithm, p, SearchConfig(tau=10))
    assert reports_equal(reference, report), f"{algorithm} at p={p} diverged from serial"


@pytest.mark.parametrize("scorer", ["shared_peaks", "hyperscore", "xcorr", "likelihood"])
def test_validation_holds_for_every_scorer(small_db, tiny_queries, scorer):
    cfg = SearchConfig(tau=5, scorer=scorer)
    ref = search_serial(small_db, tiny_queries, cfg)
    for algorithm in ("algorithm_a", "algorithm_b"):
        report = run_search(small_db, tiny_queries, algorithm, 4, cfg)
        assert reports_equal(ref, report), f"{algorithm} diverged with scorer={scorer}"


def test_validation_with_ptms(small_db, tiny_queries):
    from repro.chem.amino_acids import STANDARD_MODIFICATIONS

    cfg = SearchConfig(
        tau=10, modifications=(STANDARD_MODIFICATIONS["oxidation"],)
    )
    ref = search_serial(small_db, tiny_queries, cfg)
    rep = run_search(small_db, tiny_queries, "algorithm_a", 4, cfg)
    assert reports_equal(ref, rep)


def test_multiprocess_engine_reproduces_serial(small_db, tiny_queries, reference):
    report = run_multiprocess_search(small_db, tiny_queries, num_workers=2, config=SearchConfig(tau=10))
    assert reports_equal(reference, report)


def test_p1_equals_serial_run(small_db, tiny_queries, reference):
    """Paper: 'any run of our Algorithm A at p = 1 is equivalent to the
    uni-worker processor run of MSPolygraph' — the speedups are real."""
    rep = run_search(small_db, tiny_queries, "algorithm_a", 1, SearchConfig(tau=10))
    assert reports_equal(reference, rep)
    # small constant overheads (window fence, request bookkeeping) aside
    assert rep.virtual_time == pytest.approx(reference.virtual_time, rel=0.10)


def test_queries_from_foreign_source_still_consistent(small_db, foreign_queries):
    cfg = SearchConfig(tau=10)
    ref = search_serial(small_db, foreign_queries, cfg)
    for algorithm in PARALLEL:
        rep = run_search(small_db, foreign_queries, algorithm, 3, cfg)
        assert reports_equal(ref, rep)
