"""A row table built up to a reach is the full table's first rows, and
the one-search peak-interval kernel is the two-search one.

``MassIndex(db, R)`` holds the rows of mass at most ``R``; since the
build's sort is stable, those are exactly the first ``K`` rows of
``MassIndex(db)`` — masses and keys bitwise — where ``K`` counts the
full table's masses at or below ``R``.  A window above the reach is
refused, never served from a truncated range.  A searcher that knows
its queries builds up to their heaviest window, PTM tiers with a
negative shift included, and finds every candidate and hit the
full-table searcher does.
"""

import pickle
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidates.generator import heaviest_parent_mass, table_reach
from repro.candidates.mass_index import MassIndex
from repro.chem.amino_acids import STANDARD_MODIFICATIONS, Modification
from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS, PROTON_MASS, WATER_MASS
from repro.core.config import SearchConfig
from repro.core.search import ShardSearcher
from repro.errors import ConfigError
from repro.scoring.hits import pack_hit_columns
from repro.spectra.binning import _fresh_intervals, _fresh_intervals_pairs, sorted_runs
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from repro.workloads import generate_database, generate_queries

# one-residue sequences and the empty database included
sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30)
databases = st.one_of(
    st.just(ProteinDatabase.empty()),
    st.lists(sequences, min_size=1, max_size=10).map(ProteinDatabase.from_sequences),
)


@st.composite
def database_and_reach(draw):
    """A database and a reach: below every row, exactly a row's mass,
    strictly between two rows, ``+-inf`` or anywhere."""
    db = draw(databases)
    masses = MassIndex(db).mass
    kinds = ["below", "inf", "-inf", "any"] + (["row", "between"] if len(masses) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "below":
        lightest = float(masses[0]) if len(masses) else 1.0
        return db, draw(st.sampled_from([0.0, WATER_MASS, lightest - 1e-9]))
    if kind in ("inf", "-inf"):
        return db, float(kind)
    if kind == "any":
        return db, draw(st.floats(min_value=-100.0, max_value=5000.0))
    i = draw(st.integers(0, len(masses) - 1))
    if kind == "row":
        return db, float(masses[i])
    upper = masses[i + 1] if i + 1 < len(masses) else masses[i] + 100.0
    return db, float(masses[i] + (upper - masses[i]) / 2)


@given(database_and_reach())
@settings(max_examples=200, deadline=None)
def test_a_reach_table_is_the_full_tables_first_rows(case):
    db, reach = case
    full = MassIndex(db)
    part = MassIndex(db, reach)
    k = int(np.searchsorted(full.mass, reach, side="right"))
    assert part.mass.tobytes() == full.mass[:k].tobytes()
    assert part.key.tobytes() == full.key[:k].tobytes()
    assert part.reach == reach


def test_a_generated_database_at_the_heaviest_window():
    db = generate_database(120, seed=17)
    queries = generate_queries(40, seed=17)
    reach = table_reach(heaviest_parent_mass(queries), 3.0, ())
    full, part = MassIndex(db), MassIndex(db, reach)
    k = int(np.searchsorted(full.mass, reach, side="right"))
    assert 0 < k < len(full) // 4
    assert part.mass.tobytes() == full.mass[:k].tobytes()
    assert part.key.tobytes() == full.key[:k].tobytes()


def test_every_rows_mass_as_the_reach_keeps_that_row():
    """A reach equal to a row's mass keeps the row: where the running-sum
    search rounds below it, the extra row per sequence end catches it
    (without that row, one of these reaches loses its row)."""
    db = generate_database(40, seed=2)
    full = MassIndex(db)
    for reach in full.mass[::7].tolist():
        k = int(np.searchsorted(full.mass, reach, side="right"))
        assert len(MassIndex(db, reach)) == k, reach


class TestRefusal:
    def test_windows_above_the_reach_are_refused(self):
        db = generate_database(10, seed=3)
        table = MassIndex(db, 1500.0)
        lo, hi = table.windows_many(np.array([1490.0]), np.array([1500.0]))  # at the reach
        assert hi[0] == len(table)
        with pytest.raises(ConfigError, match="reach"):
            above = np.nextafter(1500.0, 2e3)
            table.windows_many(np.array([1490.0, 10.0]), np.array([above, 20.0]))
        with pytest.raises(ConfigError, match="reach"):
            table.count_in_window(1400.0, 1600.0)
        with pytest.raises(ConfigError, match="reach"):
            table.candidates_in_window(1400.0, 1600.0)

    def test_a_searcher_refuses_a_query_heavier_than_it_was_built_for(self):
        db = generate_database(10, seed=3)
        light, heavy = (
            Spectrum.from_peaks(np.empty(0), np.empty(0), m + PROTON_MASS, 1, i)
            for i, m in enumerate((900.0, 1800.0))
        )
        searcher = ShardSearcher(db, SearchConfig(), max_parent_mass=light.parent_mass)
        searcher.run([light], {})
        with pytest.raises(ConfigError, match="reach"):
            searcher.run([light, heavy], {})
        with pytest.raises(ConfigError, match="reach"):
            searcher.count_each([heavy])

    def test_a_nan_reach_is_refused(self):
        with pytest.raises(ConfigError, match="NaN"):
            MassIndex(generate_database(3, seed=1), float("nan"))


class TestSharedTable:
    def test_the_widest_table_is_kept_and_a_wider_reach_rebuilds(self):
        db = generate_database(30, seed=5)
        narrow = MassIndex.for_shard(db, 1000.0)
        assert MassIndex.for_shard(db, 800.0) is narrow
        wide = MassIndex.for_shard(db, 2000.0)
        assert wide is not narrow and wide.reach == 2000.0 and len(wide) > len(narrow)
        assert MassIndex.for_shard(db, 1000.0) is wide is db._mass_index
        assert np.isinf(MassIndex.for_shard(db).reach)

    def test_a_pickled_searcher_rebuilds_the_same_table(self):
        db = generate_database(30, seed=5)
        searcher = ShardSearcher(db, SearchConfig(), max_parent_mass=1234.5)
        copy = pickle.loads(pickle.dumps(searcher))
        a, b = searcher.generator.index, copy.generator.index
        assert a is not b and a.reach == b.reach < np.inf
        assert a.mass.tobytes() == b.mass.tobytes() and a.key.tobytes() == b.key.tobytes()


# a negative shift widens the reach by its size: the window moves up
_LOSS = Modification("water_loss_s", "S", -18.010565)


@given(
    st.integers(0, 2**16),
    st.sampled_from([(), (_LOSS,), (STANDARD_MODIFICATIONS["oxidation"], _LOSS)]),
    st.sampled_from([0.5, 3.0]),
)
@settings(max_examples=15, deadline=None)
def test_a_searcher_built_for_its_queries_finds_what_the_full_table_does(seed, mods, delta):
    db = generate_database(25, seed=seed)
    queries = generate_queries(12, seed=seed)
    cfg = SearchConfig(delta=delta, modifications=mods, tau=5)
    heaviest = heaviest_parent_mass(queries)
    bounded = ShardSearcher(db, cfg, max_parent_mass=heaviest)
    full = ShardSearcher(pickle.loads(pickle.dumps(db)), cfg)  # its own full table
    assert bounded.generator.index.reach == max(q.parent_mass for q in queries) + delta - min(
        [0.0] + [m.delta_mass for m in mods]
    )
    assert bounded.count_each(queries).tolist() == full.count_each(queries).tolist()
    results = []
    for searcher in (bounded, full):
        hitlists = {}
        stats = searcher.run(queries, hitlists)
        results.append((stats, pack_hit_columns(hitlists, [q.query_id for q in queries])))
    (stats_a, hits_a), (stats_b, hits_b) = results
    assert stats_a == stats_b
    for a, b in zip(hits_a, hits_b):
        assert a.tobytes() == b.tobytes()


def test_the_heaviest_tier_window_sits_exactly_at_the_reach():
    """The reach is computed as the windows are, so the heaviest query's
    most negatively shifted window is not refused."""
    db = generate_database(25, seed=9)
    queries = generate_queries(30, seed=9)
    cfg = SearchConfig(delta=3.0, modifications=(_LOSS,))
    searcher = ShardSearcher(db, cfg, max_parent_mass=heaviest_parent_mass(queries))
    top = max(q.parent_mass for q in queries) + cfg.delta - _LOSS.delta_mass
    assert searcher.generator.index.reach == top
    searcher.generator.index.windows_many(np.array([top - 1.0]), np.array([top]))


# -- the one-search peak-interval kernel ------------------------------


def _searchsorted_runs(
    keys: np.ndarray,
    offsets: np.ndarray,
    runs: List[Tuple[int, int, int]],
    rows: np.ndarray,
    side: str,
) -> np.ndarray:
    """``np.searchsorted`` of each run's rows in its member's slice of ``keys``.

    Positions are member-local.  With a single run the one search's
    result is returned as is.
    """
    if len(runs) == 1:
        k = runs[0][0]
        return keys[offsets[k] : offsets[k + 1]].searchsorted(rows, side)
    out = np.empty(rows.shape, dtype=np.int64)
    for k, a, b in runs:
        out[a:b] = keys[offsets[k] : offsets[k + 1]].searchsorted(rows[a:b], side)
    return out


def two_search_intervals(batch, member, frag_rows, tolerance):
    """The kernel as two binary searches per fragment: ``lo`` over
    ``mz + tol`` (left) and ``hi`` over ``mz - tol`` (right)."""
    runs = sorted_runs(member)
    lo = _searchsorted_runs(batch.mz + tolerance, batch.offsets, runs, frag_rows, "left")
    hi = _searchsorted_runs(batch.mz - tolerance, batch.offsets, runs, frag_rows, "right")
    return _fresh_intervals(lo, hi)


# peaks on a quarter-Dalton grid, so many lie closer than 2 tol
peak_lists = st.lists(st.integers(1, 60).map(lambda v: v * 0.25), max_size=12)


@st.composite
def kernel_cases(draw):
    members = draw(st.lists(peak_lists, min_size=1, max_size=5))  # empty members too
    spectra = [
        Spectrum.from_peaks(np.array(p, dtype=float), np.ones(len(p)), 500.0, 1, i)
        for i, p in enumerate(members)
    ]
    batch = SpectrumBatch(spectra)
    if len(spectra) > 1 and draw(st.booleans()):  # a slice: padded peaks are views
        a = draw(st.integers(0, len(spectra) - 1))
        batch = batch.slice(a, draw(st.integers(a + 1, len(spectra))))
    num_members = len(batch.offsets) - 1
    rows = draw(st.integers(1, 8))
    width = draw(st.integers(1, 6))
    member = np.sort(
        draw(st.lists(st.integers(0, num_members - 1), min_size=rows, max_size=rows))
    )
    frags = draw(
        st.lists(
            st.lists(
                st.one_of(st.integers(-4, 64).map(lambda v: v * 0.25), st.just(np.inf)),
                min_size=width,
                max_size=width,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
    frag_rows = np.sort(np.array(frags, dtype=float), axis=1)  # +inf pads last
    tolerance = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]))
    return batch, member, frag_rows, tolerance


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_one_search_intervals_equal_two_searches(case):
    batch, member, frag_rows, tolerance = case
    starts, lens = _fresh_intervals_pairs(batch, member, frag_rows, tolerance)
    want_starts, want_lens = two_search_intervals(batch, member, frag_rows, tolerance)
    assert np.array_equal(lens, want_lens)
    assert np.array_equal(starts, want_starts)
