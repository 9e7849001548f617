"""Property-based tests for the parallel counting sort and for
``stable_sort``, the index builds' exact stable order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS
from repro.core.costmodel import CostModel
from repro.core.partition import partition_database
from repro.core.sort import (
    counting_sort_pivots,
    destination_of_keys,
    parallel_counting_sort,
)
from repro.simmpi.scheduler import ClusterConfig, SimCluster
from repro.spectra.binning import stable_sort

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=30)
databases = st.lists(sequences, min_size=1, max_size=16).map(
    ProteinDatabase.from_sequences
)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_pivots_partition_key_space(weights, p):
    w = np.array(weights)
    hi = counting_sort_pivots(w, p)
    assert len(hi) == p
    assert hi[-1] == len(w) - 1
    assert np.all(np.diff(hi) >= 0)
    dest = destination_of_keys(np.arange(len(w)), hi)
    assert dest.min() >= 0 and dest.max() <= p - 1
    # destinations are monotone in key
    assert np.all(np.diff(dest) >= 0)


@given(databases, st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_parallel_sort_is_a_sorted_permutation(db, p):
    shards = partition_database(db, p)
    cost = CostModel()

    def program(comm):
        result = yield from parallel_counting_sort(comm, shards[comm.rank], cost)
        return result

    cluster = SimCluster(ClusterConfig(num_ranks=p))
    outcomes, _ = cluster.run(program)
    merged = ProteinDatabase.concat([o.value[0] for o in outcomes])
    # permutation: same ids, same residue multiset per id
    assert sorted(merged.ids.tolist()) == sorted(db.ids.tolist())
    assert merged.total_residues == db.total_residues
    # sorted: concatenated keys are non-decreasing
    assert np.all(np.diff(merged.parent_mz_keys()) >= 0)
    # content integrity: each sequence's residues unchanged
    original = {int(db.ids[i]): db.sequence_str(i) for i in range(len(db))}
    for i in range(len(merged)):
        assert merged.sequence_str(i) == original[int(merged.ids[i])]


# -- stable_sort -------------------------------------------------------------

INT64_MAX = int(np.iinfo(np.int64).max)


def assert_stable(keys):
    """``stable_sort`` is ``np.argsort(kind="stable")`` element for element,
    and its sorted keys are the keys it orders, bit for bit."""
    ordered, order = stable_sort(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype and np.array_equal(order, expected)
    assert ordered.dtype == keys.dtype and ordered.tobytes() == keys[expected].tobytes()


#: a handful of floats, so exact ties are the rule; -0.0 == 0.0 but their
#: bytes differ, so a tie put back out of index order shows in the bytes
FEW_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, np.inf, -np.inf, 5e-324]


@given(st.lists(st.sampled_from(FEW_FLOATS), max_size=300),
       st.sampled_from(["float64", "float32", "float16"]))
@settings(max_examples=150, deadline=None)
def test_stable_sort_float_ties(values, dtype):
    with np.errstate(over="ignore"):  # 1e300 is inf below float64
        keys = np.array(values).astype(dtype)
    assert_stable(keys)


@given(st.lists(st.sampled_from(FEW_FLOATS + [np.nan, -np.nan]), max_size=200))
@settings(max_examples=100, deadline=None)
def test_stable_sort_nans_tie_last_like_numpy(values):
    # both NaN signs (different bytes) tie: one run, last, in index order
    assert_stable(np.array(values, dtype=np.float64))


@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-(2**61), max_value=2**61),
       st.data())
@settings(max_examples=150, deadline=None)
def test_stable_sort_int_keys_either_side_of_the_composite_bound(n, past, low, data):
    # the widest range whose composite (key - min) * n + position fits
    # int64, shifted by ``past``: 1..3 over it takes the argsort path
    span = (INT64_MAX - (n - 1)) // n + past
    inner = st.integers(min_value=low, max_value=low + span)
    keys = data.draw(st.lists(st.sampled_from([low, low + span]) | inner,
                              min_size=n, max_size=n))
    keys[:2] = [low + span, low]  # the range is exactly ``span``
    assert_stable(np.array(keys, dtype=np.int64))


@pytest.mark.parametrize("past, argsorts", [(0, 0), (1, 1)])
def test_stable_sort_int_bound_picks_the_path(monkeypatch, past, argsorts):
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
    n = 5
    span = (INT64_MAX - (n - 1)) // n + past
    low = -(2**60)
    keys = np.array([low + span, low, low + span, low + 7, low])
    ordered, order = stable_sort(keys)
    assert len(calls) == argsorts
    assert np.array_equal(order, argsort(keys, kind="stable"))
    assert np.array_equal(ordered, keys[order])


INT_DTYPES = ["int64", "int32", "int16", "int8", "uint64", "uint32", "uint8", "bool"]


@given(st.lists(st.integers(min_value=-100, max_value=100), max_size=200),
       st.sampled_from(INT_DTYPES),
       st.sampled_from([slice(None), slice(None, None, 2), slice(None, None, -1), slice(1, None, 3)]))
@settings(max_examples=200, deadline=None)
def test_stable_sort_small_ints_and_views(values, dtype, view):
    keys = np.array(values, dtype=np.int64)
    if dtype == "bool":
        keys = keys > 0
    elif dtype.startswith("u"):
        keys = np.abs(keys).astype(dtype)
    else:
        keys = keys.clip(-128, 127).astype(dtype) if dtype == "int8" else keys.astype(dtype)
    assert_stable(keys[view])  # negative, empty, one-element, strided


@given(st.lists(st.sampled_from(FEW_FLOATS), min_size=2, max_size=100),
       st.sampled_from([slice(None, None, 2), slice(None, None, -1)]))
@settings(max_examples=60, deadline=None)
def test_stable_sort_float_views(values, view):
    assert_stable(np.array(values)[view])


def test_stable_sort_rejects_2d():
    with pytest.raises(ValueError, match="1-D"):
        stable_sort(np.zeros((2, 2)))
