"""Descriptor of the fragment index's flat-array state.

A built :class:`~repro.index.fragment_index.FragmentIndex` is nothing
but a set of named, contiguous numpy arrays: the mass-sorted row table
(:data:`ROW_ARRAYS`, the columns every store holds) and the posting
list, with its bin-start table, whose ``series_row`` values are
positions in that table.
:class:`IndexLayout` is the single source of truth for that set: which
arrays exist, their dtypes and shapes, plus the scalar build parameters
needed to interpret them (``bin_width``, ``max_length``, ...).  The
database the rows point into is not part of it: a store keeps the
database in its own ``database/`` section.

The layout is what makes persistence possible: ``repro.store`` writes
one buffer per manifest entry next to a JSON copy of the layout, and
reloading is a dtype/shape-checked ``np.load`` per entry — the
:class:`~repro.index.fragment_index.FragmentIndex` view is agnostic to
whether the arrays it wires up are heap-allocated or ``np.memmap``
backed.  The store's schema versions the layout; there is no second
version inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import IndexStoreError, RowKeyOverflowError

#: one dtype per addressing concept: a *row key* names a span by its flat
#: residue position (``k`` the prefix ending at ``k``, ``~k`` the suffix
#: starting there), a *row id* is a position in the row table — int64 in
#: memory (a sweep's rows, a block's row sets), int32 as a posting's
#: ``series_row`` — and a *posting offset* counts postings
#: (``series_bin_start``, ~15 per residue, so 64 bits)
ROW_KEY_DTYPE = "int32"
ROW_ID_DTYPE = "int64"
POSTING_ROW_DTYPE = "int32"
POSTING_OFFSET_DTYPE = "int64"
MAX_KEYED_RESIDUES = 2**31  # flat positions up to 2^31 - 1
MAX_POSTED_ROWS = 2**31  # posting row ids up to 2^31 - 1

#: the row table's columns -> dtype: every prefix/suffix span of the
#: database, sorted by mass (:class:`~repro.candidates.mass_index.MassIndex`)
ROW_ARRAYS = {
    "row_mass": "float64",
    "row_key": ROW_KEY_DTYPE,
}


def check_row_keys(num_residues: int) -> None:
    """Refuse a database whose flat positions do not fit a row key."""
    if num_residues >= MAX_KEYED_RESIDUES:
        raise RowKeyOverflowError(
            f"a database of {num_residues} residues does not fit the row "
            f"table: its int32 row keys address fewer than 2^31 "
            f"({MAX_KEYED_RESIDUES}) residues; split it into shards below "
            f"the 2^31-residue limit"
        )


def check_row_ids(num_rows: int) -> None:
    """Refuse a row table whose row ids do not fit a posting's ``series_row``."""
    if num_rows >= MAX_POSTED_ROWS:
        raise RowKeyOverflowError(
            f"a row table of {num_rows} rows does not fit the posting list: "
            f"its int32 row ids address fewer than 2^31 ({MAX_POSTED_ROWS}) "
            f"rows; split the database into shards below the 2^31-row limit"
        )


#: the one posting list, sorted by (m/z bin, candidate row): every b and
#: y ion of each row in the envelope, each tagged with its series — the
#: shared-peak count ignores the tag, the hyperscore's per-series
#: intensities read it.  ``series_bin_start[b]`` (posting offsets) is
#: where bin ``b``'s run starts; inside a run ``series_row`` (row ids)
#: ascends.
POSTING_ARRAYS = (
    "series_mz",
    "series_row",
    "series_tag",
    "series_bin_start",
)

#: every array a layout must describe, in canonical order: the row
#: table, the postings
ARRAY_NAMES = tuple(ROW_ARRAYS) + POSTING_ARRAYS


@dataclass(frozen=True)
class ArraySpec:
    """Manifest entry for one named flat buffer."""

    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        import numpy as np

        count = 1
        for dim in self.shape:
            count *= int(dim)
        return int(count * np.dtype(self.dtype).itemsize)

    def to_dict(self) -> Dict[str, Any]:
        return {"dtype": self.dtype, "shape": list(self.shape)}

    @classmethod
    def from_dict(cls, payload: Any, name: str = "?") -> "ArraySpec":
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("dtype"), str)
            or not isinstance(payload.get("shape"), list)
        ):
            raise IndexStoreError(f"malformed array spec for {name!r}: {payload!r}")
        return cls(payload["dtype"], tuple(int(d) for d in payload["shape"]))


@dataclass(frozen=True)
class IndexLayout:
    """The index's complete flat-array schema + build parameters.

    Everything a reader needs to wire a working
    :class:`~repro.index.fragment_index.FragmentIndex` view over raw
    buffers, and everything a writer
    needs to validate that a directory of buffers is complete and
    untruncated.
    """

    num_rows: int
    max_length: int
    bin_width: float
    num_fragments: int
    fragment_tolerance: float
    monoisotopic: bool
    arrays: Dict[str, ArraySpec] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Total bytes of every manifest array (the index alone)."""
        return sum(spec.nbytes for spec in self.arrays.values())

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_rows": self.num_rows,
            "max_length": self.max_length,
            "bin_width": self.bin_width,
            "num_fragments": self.num_fragments,
            "fragment_tolerance": self.fragment_tolerance,
            "monoisotopic": self.monoisotopic,
            "arrays": {name: spec.to_dict() for name, spec in self.arrays.items()},
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "IndexLayout":
        """Parse + validate a layout; raises IndexStoreError on problems."""
        if not isinstance(payload, dict):
            raise IndexStoreError("index layout is not a JSON object")
        try:
            arrays = {
                name: ArraySpec.from_dict(spec, name)
                for name, spec in payload["arrays"].items()
            }
            layout = cls(
                num_rows=int(payload["num_rows"]),
                max_length=int(payload["max_length"]),
                bin_width=float(payload["bin_width"]),
                num_fragments=int(payload["num_fragments"]),
                fragment_tolerance=float(payload["fragment_tolerance"]),
                monoisotopic=bool(payload["monoisotopic"]),
                arrays=arrays,
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            if isinstance(exc, IndexStoreError):
                raise
            raise IndexStoreError(f"malformed index layout: {exc!r}") from None
        missing = [name for name in ARRAY_NAMES if name not in arrays]
        if missing:
            raise IndexStoreError(f"index layout is missing arrays {missing}")
        return layout

    # -- validation ------------------------------------------------------

    def check_arrays(self, arrays: Mapping[str, Any]) -> List[str]:
        """Dtype/shape-check loaded ``arrays`` against the manifest.

        Returns a list of problems (empty == valid); used by the store
        to reject truncated or swapped buffers instead of serving
        silently wrong postings.
        """
        problems = []
        for name in ARRAY_NAMES:
            if name not in arrays:
                problems.append(f"missing array {name!r}")
                continue
            arr = arrays[name]
            spec = self.arrays[name]
            if str(arr.dtype) != spec.dtype:
                problems.append(
                    f"array {name!r} has dtype {arr.dtype}, manifest says {spec.dtype}"
                )
            if tuple(arr.shape) != spec.shape:
                problems.append(
                    f"array {name!r} has shape {tuple(arr.shape)}, "
                    f"manifest says {spec.shape}"
                )
        return problems
