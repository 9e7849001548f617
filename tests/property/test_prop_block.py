"""Property tests: every cohort (pair) kernel equals the scalar oracle bitwise.

``block_scores`` on the direct path (every registered scorer) and
``FragmentIndex.score_block`` on a resident index (the two posting-served
ones) each return one member-major score vector for a whole cohort.
``scalar_block_scores`` (``tests/reference.py``) — the scalar
``score``/``score_modified`` loop over each member's own sub-batch — is
the oracle.  Every
cohort drawn here holds, besides its random members, a member without
peaks and a member whose selection is empty; members draw their selections
independently from one candidate block, so candidates are shared; the span
set always includes length-1 spans and (on the direct path) PTM rows expanded per
site.  Cohorts of one are drawn too, and so are the scorers' parameters —
the fragment tolerance (the index's too) and the likelihood model's
``p_detect``, clamps included — since the kernels bind them per cohort.
The direct path also draws the length-band cap (``BAND_ROWS``): 0, one
length a band; small, bands of several lengths beside single-length
ones; unbounded, one padded band a block.
"""

import math
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates import batch as batch_module
from repro.candidates.batch import CandidateBatch
from repro.candidates.mass_index import MassIndex
from repro.chem.amino_acids import STANDARD_MODIFICATIONS
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.index.fragment_index import IndexBuilder
from repro.scoring.base import block_scores
from repro.scoring.likelihood import LikelihoodRatioScorer
from repro.scoring.registry import SCORER_NAMES, make_scorer
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from tests.reference import by_ion_ladder, scalar_block_scores

#: the scorers ``FragmentIndex.score_block`` serves
_POSTING_SCORERS = ["shared_peaks", "hyperscore"]
_MODS = [
    STANDARD_MODIFICATIONS["oxidation"],
    STANDARD_MODIFICATIONS["phosphorylation_s"],
]
_MOD_TARGETS = {m.delta_mass: ord(m.target) for m in _MODS}

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=24)
# the fixed protein holds both PTM targets twice, so some rows expand per site
databases = st.lists(sequences, min_size=0, max_size=5).map(
    lambda seqs: ProteinDatabase.from_sequences(seqs + ["GMSMSK"])
)


def _spectrum(rng, db, noise_peaks):
    """Jittered b/y ladder of a random prefix (so candidates really match)
    plus uniform noise; ``noise_peaks == 0`` gives a spectrum without peaks."""
    mz = rng.uniform(60.0, 2600.0, noise_peaks)
    if noise_peaks:
        seq = db.sequence(int(rng.integers(len(db))))
        ladder = by_ion_ladder(seq[: int(rng.integers(1, len(seq) + 1))])
        mz = np.concatenate((mz, ladder + rng.uniform(-0.6, 0.6, len(ladder))))
    return Spectrum.from_peaks(
        mz,
        rng.uniform(0.0, 1.0, len(mz)),
        precursor_mz=float(rng.uniform(300.0, 1500.0)),
        charge=int(rng.integers(1, 4)),
    )


tolerances = st.floats(min_value=0.01, max_value=5.0)
# p_detect * 0.8 below the 1e-6 clamp and p_detect above the 0.999 one are drawn too
detect_probabilities = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def scorer_factories(draw, names):
    """``make``: ``make()`` builds a fresh scorer from drawn parameters."""
    name = draw(st.sampled_from(names))
    tol = draw(tolerances)
    if name == "likelihood":
        return partial(LikelihoodRatioScorer, tol, draw(detect_probabilities))
    return partial(make_scorer, name, tol)


@st.composite
def cohorts(draw, num_candidates_of):
    """``(db, spectra, selections)`` with the special members included.

    ``num_candidates_of(db)`` says how many candidates selections may
    index.  A cohort of one is a single random member; larger cohorts
    add the peakless member and the member with nothing selected.
    """
    db = draw(databases)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n = num_candidates_of(db)
    randoms = draw(st.integers(min_value=1, max_value=4))
    spectra = [_spectrum(rng, db, int(rng.integers(1, 30))) for _ in range(randoms)]
    # a member never holds a candidate twice; members overlap freely
    selections = [rng.permutation(n)[: int(rng.integers(1, n + 1))] for _ in spectra]
    if draw(st.booleans()):  # else: possibly a cohort of one
        spectra.append(_spectrum(rng, db, 0))
        selections.append(np.arange(n, dtype=np.int64))
        spectra.append(_spectrum(rng, db, 12))
        selections.append(np.empty(0, dtype=np.int64))
        order = rng.permutation(len(spectra))
        spectra = [spectra[i] for i in order]
        selections = [selections[i] for i in order]
    return db, spectra, selections


def _all_spans(db):
    """Every prefix and suffix of the database, length-1 spans included."""
    return MassIndex(db).candidates_in_window(0.0, np.inf)


def _ptm_spans(db):
    """All spans, then every span again under each variable modification."""
    spans = _all_spans(db)
    tiers = [spans] + [
        replace(spans, mod_delta=np.full(len(spans), mod.delta_mass)) for mod in _MODS
    ]
    return type(spans).concat(tiers)


#: band caps: one length a band, a few rows a band, one band a block
_CAPS = [0, 6, 10**9]


@given(
    cohorts(lambda db: len(_ptm_spans(db))),
    scorer_factories(SCORER_NAMES),
    st.sampled_from(_CAPS),
)
@settings(max_examples=60, deadline=None)
def test_direct_pair_kernels_equal_the_fallback(case, make, cap):
    db, spectra, selections = case
    spans = _ptm_spans(db)
    assert int(spans.lengths.min()) == 1  # the length-1 group is present
    with mock.patch.object(batch_module, "BAND_ROWS", cap):
        batch = CandidateBatch.from_spans(db, spans, _MOD_TARGETS)
        batch.length_groups()  # the bands are cut (and cached) under the cap
    assert batch.num_rows > len(batch)  # PTM rows expanded
    cohort = SpectrumBatch(spectra)
    got = block_scores(make(), cohort, batch, selections)
    want = scalar_block_scores(make(), cohort, batch, selections)
    assert got.shape == (sum(len(s) for s in selections),)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", SCORER_NAMES)
def test_padded_band_edges_equal_the_fallback(name):
    """One band a block (cap unbounded), every scorer: length-1 and
    length-2 rows share the band with long rows and keep the scorer's
    default; PTM sites sit at residue 0 and at residue L - 1 of padded
    rows; a member without peaks scores every row.  Scoring raises no
    warning (an ``inf`` pad cast to a bin index would)."""
    db = ProteinDatabase.from_sequences(["M", "GS", "MSAMPLEKSM", "SKTAYIAKQRSMW", "GMSMSK"])
    spans = _ptm_spans(db)
    with mock.patch.object(batch_module, "BAND_ROWS", 10**9):
        batch = CandidateBatch.from_spans(db, spans, _MOD_TARGETS)
        (band,) = batch.length_groups()
    lengths = band.row_lengths
    padded = lengths < band.length
    assert {1, 2} <= set(lengths.tolist())
    assert np.any(padded & (band.sites == 0))
    assert np.any(padded & (band.sites == lengths - 1))
    rng = np.random.default_rng(5)
    spectra = [_spectrum(rng, db, 20), _spectrum(rng, db, 0), _spectrum(rng, db, 8)]
    every = np.arange(len(spans), dtype=np.int64)
    selections = [every, every, rng.permutation(every)[: len(every) // 2]]
    cohort = SpectrumBatch(spectra)
    want = scalar_block_scores(make_scorer(name), cohort, batch, selections)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_scores(make_scorer(name), cohort, batch, selections)
    assert got.tobytes() == want.tobytes()
    default = 0.0 if name == "shared_peaks" else -math.inf
    short = spans.lengths < 2
    assert np.all(got[: len(every)][short] == default)
    assert np.all(got[len(every) : 2 * len(every)] == default)  # the member without peaks


def _indexable(db, max_length=48):
    spans = _all_spans(db)
    lengths = spans.lengths
    return spans.take((lengths >= 2) & (lengths <= max_length))


def _check_index(index, rows_of_span, db, spans, spectra, selections, make):
    cohort = SpectrumBatch(spectra)
    row_sets = [rows_of_span[sel] for sel in selections]
    got = index.score_block(make(), cohort, row_sets)
    batch = CandidateBatch.from_spans(db, spans, {})
    want = scalar_block_scores(make(), cohort, batch, selections)
    assert got.shape == (sum(len(s) for s in selections),)
    assert got.tobytes() == want.tobytes()


@given(cohorts(lambda db: len(_indexable(db))), scorer_factories(_POSTING_SCORERS))
@settings(max_examples=60, deadline=None)
def test_resident_index_cohort_kernels_equal_the_fallback(case, make):
    db, spectra, selections = case
    index = IndexBuilder(fragment_tolerance=make().fragment_tolerance).build(db).view()
    # the table's rows inside the envelope: the spans the postings serve
    rows = np.nonzero(index.holds(np.arange(index.num_rows)))[0]
    spans = index.rows.spans(rows)
    assert len(spans) == len(_indexable(db))
    _check_index(index, rows, db, spans, spectra, selections, make)
