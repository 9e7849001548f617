"""The array-formatted TSV against Python's ``%`` and the per-hit writer.

``repro.utils.text_columns`` writes ``%d`` and ``%.{d}f`` for whole
columns without a per-row ``%``: a fixed-point value is written from
``rint(|x| * 10**d)`` where a margin proves that is the correctly rounded
integer, and by ``%`` itself elsewhere.  The oracle is ``%`` on each
value, for the doubles where a shortcut would go wrong: exact ties
``k / 2**m``, their neighbours, +-0.0, subnormals, tiny negatives,
values around ``2**49 / 10**d`` and ``2**52 / 10**d``, huge values and the non-finite ones;
and ``int64`` extremes.  ``write_tsv`` as a whole is held to
``tests/reference.py::reference_tsv`` (the per-hit f-string writer) on
random reports: chunk boundaries anywhere, protein ids the database
lacks or holds twice, spans out of range either way, long peptides that
split a chunk, and an empty database.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.protein import ProteinDatabase
from repro.core import results
from repro.core.results import SearchReport, write_tsv
from repro.scoring.hits import Hit, HitTable, as_hit_columns
from repro.utils.text_columns import fixed_column, int_column, join_rows, slice_column
from tests.reference import reference_tsv

_DECIMALS = st.sampled_from([0, 1, 4, 6, 9])


def _texts(block):
    """The rows of one column block as strings."""
    return join_rows([block]).decode("ascii").split("\n")[:-1]


def _tie(k, m):
    """``k / 2**m``: at ``d`` decimals an exact rounding tie for many ``m``."""
    return k / 2.0**m


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(_tie, st.integers(-(2**40), 2**40), st.integers(0, 60)),
    st.builds(  # a tie's neighbours, one ulp either way
        lambda k, m, up: float(np.nextafter(_tie(k, m), np.inf if up else -np.inf)),
        st.integers(-(2**30), 2**30),
        st.integers(0, 40),
        st.booleans(),
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, -4e-7]),
    st.builds(  # around 2**49 / 10**d and 2**52 / 10**d, where the shortcut stops
        lambda p, d, ulps, sign: sign * float(2.0**p / 10.0**d + ulps * np.spacing(2.0**p / 10.0**d)),
        st.sampled_from([49, 52]),
        st.integers(0, 9),
        st.integers(-4, 4),
        st.sampled_from([1.0, -1.0]),
    ),
    st.floats(min_value=-1e-6, max_value=0.0),  # tiny negatives: -0.000000
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FLOATS, min_size=1, max_size=40), decimals=_DECIMALS)
def test_fixed_point_fields_equal_percent_f(values, decimals):
    got = _texts(fixed_column(np.array(values, dtype=np.float64), decimals))
    assert got == ["%.*f" % (decimals, v) for v in values]


def test_fixed_point_edge_cases():
    """The named cases once each, at the two widths the writer uses."""
    values = [
        1 / 128, -1 / 128, 0.5, 1.5, 2.5, -2.5, 0.0, -0.0, 5e-324, -5e-324, -1e-9,
        2.0**49 / 1e6, 2.0**52 / 1e6, 2.0**53, 1e300, -1e300, 12.3456789, 0.00005, 0.00015,
        float("inf"), float("-inf"), float("nan"), -float("nan"),
    ]
    for decimals in (4, 6):
        got = _texts(fixed_column(np.array(values), decimals))
        assert got == ["%.*f" % (decimals, v) for v in values]


_INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-1000, 1000),
    st.sampled_from([0, -1, 1, 9, 10, -10, 2**63 - 1, -(2**63), -(2**63) + 1, 10**18, -(10**18)]),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_INTS, min_size=1, max_size=40))
def test_integer_fields_equal_percent_d(values):
    assert _texts(int_column(np.array(values, dtype=np.int64))) == ["%d" % v for v in values]


@settings(max_examples=100, deadline=None)
@given(
    text=st.text(alphabet="ACDEFGHIKLMNPQRSTVWY?", min_size=1, max_size=40).map(str.encode),
    spans=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 40)), min_size=1, max_size=20),
)
def test_slices_equal_byte_slicing(text, spans):
    spans = [(min(a, len(text)), min(n, len(text) - min(a, len(text)))) for a, n in spans]
    padded = np.frombuffer(text + b"\0" * len(text), dtype=np.uint8)
    starts, lengths = (np.array(v, dtype=np.int64) for v in zip(*spans))
    got = join_rows([slice_column(padded, starts, lengths)]).split(b"\n")[:-1]
    assert got == [text[a : a + n] for a, n in spans]


_SEQUENCE = st.text(alphabet="ACDEFGHIKLMNPQRSTVWY", min_size=1, max_size=30)


@st.composite
def _reports(draw):
    """A database (repeated and missing ids, possibly empty) and a report
    over it: spans past either end of a protein, negative starts and
    stops, any score."""
    sequences = draw(st.lists(_SEQUENCE, min_size=0, max_size=5))
    if sequences and draw(st.booleans()):  # a long protein: peptides that split a chunk
        sequences[0] = sequences[0] + "W" * 300
    database = ProteinDatabase.from_sequences(sequences)
    if sequences and draw(st.booleans()):  # some ids twice, some missing
        database = database.subset(draw(st.lists(st.integers(0, len(sequences) - 1), max_size=6)))
    num_ids = max(len(sequences), 1) + 2  # ids past the database's
    hit = st.tuples(
        _FLOATS,
        st.integers(-1, num_ids),
        st.integers(-40, 340),
        st.integers(-40, 340),
        st.floats(min_value=0.0, max_value=1e5),
        st.sampled_from([0.0, 15.994915, 79.966331, -17.026549]),
    )
    per_query = draw(st.dictionaries(st.integers(-5, 10**6), st.lists(hit, max_size=8), max_size=12))
    hits = {qid: [Hit(qid, *row) for row in rows] for qid, rows in per_query.items()}
    return database, SearchReport("serial", 1, hits, 0, 0.0)


@settings(max_examples=150, deadline=None)
@given(
    drawn=_reports(),
    chunk_rows=st.sampled_from([1, 2, 3, 7, 8192]),
    chunk_bytes=st.sampled_from([64, 4096, 4 << 20]),
    tabled=st.booleans(),
)
def test_write_tsv_equals_the_per_hit_writer(drawn, chunk_rows, chunk_bytes, tabled):
    database, report = drawn
    if tabled:
        report = SearchReport("serial", 1, HitTable(as_hit_columns(report.hits)), 0, 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(results, "_TSV_CHUNK_ROWS", chunk_rows)
        patch.setattr(results, "_TSV_CHUNK_BYTES", chunk_bytes)
        for db in (database, None):
            buf = io.StringIO()
            write_tsv(report, buf, db)
            assert buf.getvalue() == reference_tsv(report, db)

