"""Property tests: index-served scoring is bitwise-equal to the scalar scores.

The fragment-ion index's exactness contract (see
``repro.index.fragment_index``): every score served from precomputed
posting lists equals the scalar oracle (``tests/reference.py``'s
``batch_scores``) bit for bit — across the posting-served scorers, row
sets in and out of the length envelope, empty candidate windows, and
empty or degenerate spectra.  The searcher-level test additionally covers the store
searcher's merge of index-served and directly scored rows back into row
order, and that a scorer the postings cannot serve scores every row
directly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.batch import CandidateBatch
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.config import SearchConfig
from repro.core.search import ShardSearcher, score_directly
from repro.index import IndexBuilder
from repro.scoring import HyperScorer, SharedPeakScorer
from repro.chem.amino_acids import STANDARD_MODIFICATIONS, mass_table
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from repro.spectra.theoretical import IonSeries, by_ion_ladders, by_model_rows, fragment_mz_rows
from tests.conftest import store_searcher
from tests.reference import batch_scores, by_ion_ladder, modified_by_ion_ladder

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30)
databases = st.lists(sequences, min_size=1, max_size=8).map(
    ProteinDatabase.from_sequences
)

#: every scorer ``FragmentIndex.score_block`` serves
_SCORERS = [SharedPeakScorer, HyperScorer]


@st.composite
def spectra(draw):
    """Observed spectra, including empty and single-peak degenerates."""
    n = draw(st.integers(min_value=0, max_value=30))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    mz = np.sort(rng.uniform(60.0, 2500.0, n))
    intensity = rng.uniform(0.0, 1.0, n)
    return Spectrum.from_peaks(mz, intensity, precursor_mz=800.0, charge=1, query_id=7)


@st.composite
def index_cases(draw):
    """A database, its fragment index, and a window of its row table.

    The mass window may be empty (lo > every row mass) and
    ``max_length`` small enough to leave rows outside the envelope, so
    both the all-indexed and the mixed index/direct regimes are drawn.
    """
    db = draw(databases)
    max_length = draw(st.sampled_from([2, 6, 48]))
    index = IndexBuilder(fragment_tolerance=0.5, max_length=max_length).build(db).view()
    lo = draw(st.floats(min_value=0.0, max_value=4000.0, allow_nan=False))
    width = draw(st.floats(min_value=0.0, max_value=4000.0, allow_nan=False))
    mass = index.rows.mass
    rows = np.arange(
        np.searchsorted(mass, lo, side="left"),
        np.searchsorted(mass, lo + width, side="right"),
    )
    return db, index, rows


@given(index_cases(), spectra(), st.sampled_from(_SCORERS))
@settings(max_examples=60, deadline=None)
def test_score_index_bitwise_equals_batch_scores(case, spectrum, scorer_cls):
    db, index, rows = case
    scorer = scorer_cls()
    held = rows[index.holds(rows)]
    if not len(held):
        return
    got = index.score_block(scorer, SpectrumBatch([spectrum]), [held])
    batch = CandidateBatch.from_spans(db, index.rows.spans(held), {})
    ref = batch_scores(scorer, spectrum, batch)
    assert got.shape == ref.shape == (len(held),)
    assert got.tobytes() == ref.tobytes()


@given(index_cases())
@settings(max_examples=60, deadline=None)
def test_posting_rows_address_exactly_the_envelope_rows(case):
    """Every posting row id is a position in the row table and addresses
    a row inside the envelope; each such row posts exactly its span's
    2(L-1) fragments, and no row outside the envelope posts any."""
    _db, index, _rows = case
    lengths = index.rows.spans(np.arange(index.num_rows)).lengths
    held = (lengths >= 2) & (lengths <= index.max_length)
    assert np.array_equal(index.holds(np.arange(index.num_rows)), held)
    posting_rows = np.asarray(index.arrays["series_row"])
    assert posting_rows.dtype == np.int32  # layout.POSTING_ROW_DTYPE
    assert len(posting_rows) == 0 or 0 <= posting_rows.min() <= posting_rows.max() < index.num_rows
    assert held[posting_rows].all()
    posted = np.bincount(posting_rows, minlength=index.num_rows)
    assert np.array_equal(posted, np.where(held, 2 * (lengths - 1), 0))
    assert index.num_fragments == int(posted.sum())  # each fragment counted once


@given(
    databases,
    spectra(),
    st.sampled_from([2, 6, 48]),
    st.sampled_from(["shared_peaks", "hyperscore", "xcorr", "likelihood"]),
)
@settings(max_examples=40, deadline=None)
def test_searcher_score_spans_identical_with_index_on_and_off(
    db, spectrum, max_length, scorer_name
):
    """The store searcher's merged index+direct stream equals the direct
    path and the scalar oracle bitwise, rows in row order, whatever
    share of them the envelope holds."""
    cfg = SearchConfig(scorer=scorer_name, delta=4000.0)
    on = store_searcher(db, cfg, max_length=max_length)
    posting_served = scorer_name in ("shared_peaks", "hyperscore")
    assert (on.index is not None) == posting_served
    table = on.loaded.index.rows
    if not len(table):
        return
    rows = np.arange(len(table))
    spans = table.spans(rows)
    everything = [rows]  # one block of the whole table: positions are row ids
    cohort = SpectrumBatch([spectrum])
    got, direct_rows, index_rows = on._score(cohort, spans, rows, everything)
    assert direct_rows + index_rows == len(rows)
    assert posting_served or index_rows == 0
    off = ShardSearcher(db, cfg)
    ref, _ref_rows, _ = score_directly(off.scorer, db, {}, cohort, spans, rows, everything)
    assert got.tobytes() == ref.tobytes()
    scalar = batch_scores(
        off.scorer, spectrum, CandidateBatch.from_spans(db, spans, {})
    )
    assert got.tobytes() == scalar.tobytes()


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2, max_value=40),
    st.booleans(),
    st.sampled_from([0.0, *(m.delta_mass for m in STANDARD_MODIFICATIONS.values())]),
)
@settings(max_examples=80, deadline=None)
def test_ladder_model_series_and_scalar_oracle_are_one_arithmetic(
    seed, n, length, padded, delta
):
    """One b/y arithmetic: on unpadded, padded and PTM-shifted rows the
    ladder rows, ``by_model_rows``' m/z, the sorted ``[b | y]`` of
    ``fragment_mz_rows`` and the scalar oracle are the same bits.  It is
    why the index posts each b and y ion once: the tagged list serves
    the shared-peak count (the ladder) and the hyperscore (the series)
    alike."""
    rng = np.random.default_rng(seed)
    table = mass_table(True)
    codes = rng.choice(np.nonzero(table > 0)[0], size=(n, length)).astype(np.uint8)
    lengths = rng.integers(1, length + 1, n) if padded else np.full(n, length)
    sites = rng.integers(0, lengths)
    rows = table[codes]
    rows[np.arange(n), sites] += delta
    rows[np.arange(length) >= lengths[:, None]] = 0.0
    pads = lengths if padded else None
    ladder = by_ion_ladders(rows, pads)
    assert ladder.tobytes() == by_model_rows(rows, pads)[0].tobytes()
    series = np.concatenate(
        (
            fragment_mz_rows(rows, IonSeries.B, lengths=pads),
            fragment_mz_rows(rows, IonSeries.Y, lengths=pads),
        ),
        axis=1,
    )
    series.sort(axis=1)
    assert ladder.tobytes() == series.tobytes()
    for r in range(n):
        encoded, width = codes[r, : lengths[r]], 2 * (lengths[r] - 1)
        if delta:
            scalar = modified_by_ion_ladder(encoded, int(sites[r]), delta)
        else:
            scalar = by_ion_ladder(encoded)
        assert ladder[r, :width].tobytes() == scalar.tobytes()
        assert (ladder[r, width:] == np.inf).all()
