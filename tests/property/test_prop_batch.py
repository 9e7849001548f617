"""Property tests: batched scoring is bitwise-equal to the scalar oracle.

A cohort of one: ``hypergeometric``'s pair kernel against a single
spectrum (whole cohorts of every scorer are checked in
``test_prop_block.py``).  It is not *approximately* the per-candidate
loop but *exactly* it, bit for bit — including PTM-expanded candidates,
length-1 spans (empty fragment ladders), and empty or degenerate
spectra.  The oracle itself (``tests/reference.py``'s ``batch_scores``)
is checked against raw scalar ``score`` / ``score_modified`` calls for
every scorer.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.batch import CandidateBatch
from repro.candidates.generator import CandidateGenerator
from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.scoring import (
    HypergeometricScorer,
    HyperScorer,
    LikelihoodRatioScorer,
    SharedPeakScorer,
    XCorrScorer,
)
from repro.scoring.base import block_scores
from repro.scoring.hits import Hit, TopHitList
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from tests.reference import batch_scores, offer_hits, score, score_modified, top_tau

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30)
databases = st.lists(sequences, min_size=1, max_size=8).map(
    ProteinDatabase.from_sequences
)

_SCORERS = [
    SharedPeakScorer,
    HyperScorer,
    XCorrScorer,
    LikelihoodRatioScorer,
    HypergeometricScorer,
]

#: oxidation (known target M) plus phosphorylation (known target S); the
#: unknown delta exercises the "fall back to the unmodified model" path.
_MODS = [
    STANDARD_MODIFICATIONS["oxidation"],
    STANDARD_MODIFICATIONS["phosphorylation_s"],
]
_UNKNOWN_DELTA = 123.456


@st.composite
def spectra(draw):
    """Observed spectra, including empty and single-peak degenerates."""
    n = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    mz = np.sort(rng.uniform(60.0, 2500.0, n))
    intensity = rng.uniform(0.0, 1.0, n)
    return Spectrum.from_peaks(mz, intensity, precursor_mz=800.0, charge=1, query_id=7)


@st.composite
def span_batches(draw):
    """A database plus a span set over it, with mixed PTM deltas."""
    db = draw(databases)
    gen = CandidateGenerator(db, delta=0.0)
    # every prefix and suffix of every sequence, length-1 spans included
    spans = gen.index.candidates_in_window(0.0, 1e9)
    n = len(spans)
    deltas = np.zeros(n)
    choices = draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n)
    )
    for i, c in enumerate(choices):
        if c == 1:
            deltas[i] = _MODS[0].delta_mass
        elif c == 2:
            deltas[i] = _MODS[1].delta_mass
        elif c == 3:
            deltas[i] = _UNKNOWN_DELTA  # no known target: unmodified model
    spans = replace(spans, mod_delta=deltas)
    mod_targets = {m.delta_mass: ord(m.target) for m in _MODS}
    return db, spans, mod_targets


@given(span_batches(), spectra())
@settings(max_examples=60, deadline=None)
def test_score_batch_bitwise_equals_scalar_loop(case, spectrum):
    db, spans, mod_targets = case
    scorer = HypergeometricScorer()
    batch = CandidateBatch.from_spans(db, spans, mod_targets)
    got = block_scores(
        scorer, SpectrumBatch([spectrum]), batch, [np.arange(len(batch))]
    )
    ref = batch_scores(scorer, spectrum, batch)
    assert got.shape == ref.shape == (len(spans),)
    assert got.tobytes() == ref.tobytes()


@given(span_batches(), spectra(), st.sampled_from(_SCORERS))
@settings(max_examples=30, deadline=None)
def test_score_batch_matches_direct_scalar_calls(case, spectrum, scorer_cls):
    """The oracle itself (``batch_scores``) agrees with raw
    score()/score_modified() calls."""
    db, spans, mod_targets = case
    scorer = scorer_cls()
    batch = CandidateBatch.from_spans(db, spans, mod_targets)
    got = batch_scores(scorer, spectrum, batch)
    for i in range(len(spans)):
        seq = db.sequence(int(spans.seq_index[i]))
        candidate = seq[int(spans.start[i]) : int(spans.stop[i])]
        delta = float(spans.mod_delta[i])
        target = mod_targets.get(delta)
        sites = np.nonzero(candidate == target)[0] if target is not None else []
        if delta != 0.0 and len(sites):
            expected = max(
                score_modified(scorer, spectrum, candidate, int(s), delta)
                for s in sites
            )
        else:
            expected = score(scorer, spectrum, candidate)
        assert np.float64(got[i]).tobytes() == np.float64(expected).tobytes()


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=0,
        max_size=40,
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_add_batch_equals_sequential_adds(rows, tau, preload):
    """Bulk top-tau offering onto a full list retains exactly the top tau
    of everything offered (``Hit.sort_key``)."""
    seeded = [
        Hit(query_id=1, score=float(j % 3), protein_id=100 + j,
            start=j, stop=j + 4, mass=500.0, mod_delta=0.0)
        for j in range(preload)
    ]
    scores = np.array([r[0] for r in rows], dtype=np.float64)
    proteins = np.array([r[1] for r in rows], dtype=np.int64)
    # make every candidate structurally unique (hit keys are a total order)
    starts = np.arange(len(rows), dtype=np.int64)
    stops = starts + 3 + np.array([r[2] for r in rows], dtype=np.int64)
    masses = np.full(len(rows), 600.0)
    deltas = np.zeros(len(rows))

    batched = TopHitList(tau)
    offer_hits(batched, 1, seeded)
    batched.add_batch(1, scores, proteins, starts, stops, masses, deltas)

    offered = seeded + [
        Hit(query_id=1, score=float(scores[i]), protein_id=int(proteins[i]),
            start=int(starts[i]), stop=int(stops[i]), mass=600.0, mod_delta=0.0)
        for i in range(len(rows))
    ]
    assert batched.evaluated == len(offered)
    assert [h.sort_key() for h in batched.sorted_hits()] == [
        h.sort_key() for h in top_tau(offered, tau)
    ]
