"""Schema-versioned descriptor of the fragment index's flat-array state.

A built :class:`~repro.index.fragment_index.FragmentIndex` is nothing
but a set of named, contiguous numpy arrays (the two posting lists with
their bin-start tables, the row metadata that addresses them, and the
shard's own flat buffers).  :class:`IndexLayout` is the single source of
truth for that set: which arrays exist, their dtypes and shapes, plus
the scalar build parameters needed to interpret them (``bin_width``,
``max_length``, ...).

The layout is what makes persistence possible: ``repro.store`` writes
one buffer per manifest entry next to a JSON copy of the layout, and
reloading is a dtype/shape-checked ``np.load`` per entry — the
:class:`~repro.index.fragment_index.FragmentIndex` view is agnostic to
whether the arrays it wires up are heap-allocated or ``np.memmap``
backed.  ``SCHEMA`` is bumped on breaking shape changes; readers reject
other versions rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import IndexStoreError

#: schema identifier for one shard's flat-array layout; bump the
#: trailing integer on breaking changes to the array set or semantics
#: (/2: the per-length fragment matrices and the posting key columns
#: are gone — the index is its posting lists)
SCHEMA = "repro.fragment_index/2"

#: arrays holding the shard's own ProteinDatabase buffers — saved with
#: the index so a loaded shard needs nothing beyond the store directory
SHARD_ARRAYS = ("shard_residues", "shard_offsets", "shard_ids")

#: the two posting lists, each sorted by (m/z bin, candidate row): the
#: b+y ladder list (shared-peak counting) and the series-tagged b / y
#: list (per-series matched intensity).  ``*_bin_start[b]`` is where bin
#: ``b``'s run starts; inside a run ``*_row`` ascends.
POSTING_ARRAYS = (
    "ladder_mz",
    "ladder_row",
    "ladder_bin_start",
    "series_mz",
    "series_row",
    "series_tag",
    "series_bin_start",
)

#: every array a layout must describe, in canonical order: the shard,
#: the flat-position span -> row maps, the postings
ARRAY_NAMES = SHARD_ARRAYS + ("prefix_row", "suffix_row") + POSTING_ARRAYS


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
    """One shard's complete flat-array schema + build parameters.

    Everything a reader needs to rebuild a working
    :class:`~repro.index.fragment_index.FragmentIndex` view from raw
    buffers, and everything a writer needs to validate that a directory
    of buffers is complete and untruncated.
    """

    num_rows: int
    max_length: int
    bin_width: float
    num_fragments: int
    fragment_tolerance: float
    monoisotopic: bool
    arrays: Dict[str, ArraySpec] = field(default_factory=dict)
    schema: str = SCHEMA

    @property
    def nbytes(self) -> int:
        """Total bytes of every manifest array (what a full load maps)."""
        return sum(spec.nbytes for spec in self.arrays.values())

    @property
    def index_nbytes(self) -> int:
        """Bytes of the index proper (manifest minus the shard buffers)."""
        return sum(
            spec.nbytes
            for name, spec in self.arrays.items()
            if name not in SHARD_ARRAYS
        )

    @property
    def shard_nbytes(self) -> int:
        """Bytes of the shard's own transportable buffers (residues,
        offsets, ids) — what the replicated-transport baseline would ship
        per task."""
        return sum(
            spec.nbytes for name, spec in self.arrays.items() if name in SHARD_ARRAYS
        )

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
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
        schema = payload.get("schema")
        if not isinstance(schema, str) or not schema.startswith(
            "repro.fragment_index/"
        ):
            raise IndexStoreError(f"unrecognized index layout schema {schema!r}")
        if schema != SCHEMA:
            raise IndexStoreError(
                f"unsupported index layout schema {schema!r} (this build "
                f"reads {SCHEMA}); rebuild the store with `repro index build`"
            )
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
                schema=schema,
            )
        except (KeyError, TypeError, ValueError) as exc:
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
