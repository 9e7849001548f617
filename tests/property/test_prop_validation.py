"""Property-based end-to-end validation: parallel == serial, always.

Hypothesis drives the paper's validation experiment over random
databases, random query masses, random processor counts and both
algorithms — the strongest statement of the determinism/equivalence
design this library makes.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.peptide import peptide_mz
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.driver import run_search
from repro.core.results import reports_equal
from repro.core.search import search_serial
from repro.spectra.spectrum import Spectrum

sequences = st.text(alphabet=AMINO_ACIDS, min_size=6, max_size=40)
databases = st.lists(sequences, min_size=2, max_size=10).map(
    ProteinDatabase.from_sequences
)


def make_query(mass: float, qid: int) -> Spectrum:
    # a few arbitrary peaks; the scorer sees identical input either way
    mz = np.array([mass * 0.25, mass * 0.5, mass * 0.75])
    return Spectrum(mz, np.ones(3), peptide_mz(mass, 1), 1, qid)


query_masses = st.lists(
    st.floats(min_value=400.0, max_value=3000.0), min_size=1, max_size=5
)

FAST = SearchConfig(tau=5, scorer="shared_peaks", delta=25.0)
OXIDATION = STANDARD_MODIFICATIONS["oxidation"]
PHOSPHO_S = STANDARD_MODIFICATIONS["phosphorylation_s"]


@given(databases, query_masses, st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_algorithm_a_equals_serial(db, masses, p):
    queries = [make_query(m, i) for i, m in enumerate(masses)]
    reference = search_serial(db, queries, FAST)
    report = run_search(db, queries, "algorithm_a", p, FAST)
    assert reports_equal(reference, report)


@given(
    databases,
    query_masses,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([(), (OXIDATION,), (PHOSPHO_S, OXIDATION)]),
)
@settings(max_examples=20, deadline=None)
def test_algorithm_b_equals_serial(db, masses, p, modifications):
    """With or without variable modifications.  With them, one more
    query sits where only a modified span of the heaviest sequence
    reaches it: above every parent mass plus the tolerance."""
    config = replace(FAST, modifications=modifications)
    if modifications:
        heaviest = float(db.parent_masses().max())
        masses = masses + [heaviest + modifications[0].delta_mass + 0.5 * FAST.delta + 1.0]
    queries = [make_query(m, i) for i, m in enumerate(masses)]
    reference = search_serial(db, queries, config)
    report = run_search(db, queries, "algorithm_b", p, config)
    assert reports_equal(reference, report)


@given(databases, query_masses)
@settings(max_examples=15, deadline=None)
def test_candidate_conservation(db, masses):
    """Total candidate evaluations are identical across all engines."""
    queries = [make_query(m, i) for i, m in enumerate(masses)]
    counts = set()
    for algorithm in ("serial", "algorithm_a", "algorithm_b", "master_worker"):
        p = 1 if algorithm == "serial" else 3
        counts.add(run_search(db, queries, algorithm, p, FAST).candidates_evaluated)
    assert len(counts) == 1, counts
