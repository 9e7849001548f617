"""Protein records and the flat-buffer protein database.

:class:`ProteinDatabase` is the central data structure of the library.
It mirrors the storage model the paper's algorithms operate on: all
residues live in one contiguous byte buffer (``uint8``), with an offsets
array delimiting sequences.  That layout is what makes the paper's
operations natural and cheap:

* *byte-balanced partitioning* — "processor P_i receives roughly the i-th
  N/p byte chunk of the file" (Algorithm A, step A1) is a split of the
  flat buffer at sequence boundaries;
* *database transport* — shipping a shard to another rank is a transfer
  of two flat arrays whose byte size we can account exactly;
* *vectorized mass computation* — parent masses of all sequences come
  from one cumulative sum over the buffer plus a gather at offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.chem.amino_acids import decode_sequence, encode_sequence, mass_table
from repro.constants import WATER_MASS
from repro.errors import InvalidSequenceError


@dataclass(frozen=True)
class ProteinRecord:
    """A single named protein sequence (user-facing convenience type)."""

    name: str
    sequence: str

    def __post_init__(self) -> None:
        if not self.sequence:
            raise InvalidSequenceError(f"protein {self.name!r} has empty sequence")

    def __len__(self) -> int:
        return len(self.sequence)


class ProteinDatabase:
    """An immutable collection of protein sequences in flat-buffer form.

    Attributes:
        residues: ``uint8`` array of concatenated residue codes (length N).
        offsets: ``int64`` array of length ``n + 1``; sequence ``i``
            occupies ``residues[offsets[i]:offsets[i + 1]]``.
        ids: ``int64`` array of global sequence identifiers.  Shards and
            sorted permutations preserve these, so hits can always be
            reported in terms of the original database regardless of how
            the data was redistributed.
    """

    __slots__ = ("residues", "offsets", "ids", "_parent_masses", "_names", "_mass_index")

    def __init__(
        self,
        residues: np.ndarray,
        offsets: np.ndarray,
        ids: Optional[np.ndarray] = None,
        names: Optional[Sequence[str]] = None,
        _parent_masses: Optional[np.ndarray] = None,
    ):
        residues = np.ascontiguousarray(residues, dtype=np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0:
            raise ValueError("offsets must be 1-D, non-empty, and start at 0")
        if offsets[-1] != len(residues):
            raise ValueError(
                f"offsets end at {offsets[-1]} but buffer has {len(residues)} residues"
            )
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("offsets must be strictly increasing (no empty sequences)")
        n = len(offsets) - 1
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.ascontiguousarray(ids, dtype=np.int64)
            if len(ids) != n:
                raise ValueError(f"ids has length {len(ids)}, expected {n}")
        if names is not None and len(names) != n:
            raise ValueError(f"names has length {len(names)}, expected {n}")
        self.residues = residues
        self.offsets = offsets
        self.ids = ids
        self._names = list(names) if names is not None else None
        self._parent_masses = _parent_masses
        #: cache slot owned by :meth:`repro.candidates.mass_index.MassIndex.for_shard`
        self._mass_index = None

    def __getstate__(self):
        # the mass index is rebuilt on demand, never shipped to a worker
        return (self.residues, self.offsets, self.ids, self._names, self._parent_masses)

    def __setstate__(self, state) -> None:
        self.residues, self.offsets, self.ids, self._names, self._parent_masses = state
        self._mass_index = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[ProteinRecord]) -> "ProteinDatabase":
        names: List[str] = []
        encoded: List[np.ndarray] = []
        for rec in records:
            names.append(rec.name)
            encoded.append(encode_sequence(rec.sequence))
        if not encoded:
            return cls.empty()
        lengths = np.array([len(e) for e in encoded], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        return cls(np.concatenate(encoded), offsets, names=names)

    @classmethod
    def from_sequences(cls, sequences: Iterable[str]) -> "ProteinDatabase":
        return cls.from_records(
            ProteinRecord(f"seq{i}", s) for i, s in enumerate(sequences)
        )

    @classmethod
    def empty(cls) -> "ProteinDatabase":
        return cls(
            np.empty(0, dtype=np.uint8), np.zeros(1, dtype=np.int64), np.empty(0, np.int64)
        )

    # -- basic accessors -----------------------------------------------

    def __len__(self) -> int:
        """Number of sequences (the paper's n)."""
        return len(self.offsets) - 1

    @property
    def total_residues(self) -> int:
        """Total residue count (the paper's N)."""
        return int(self.offsets[-1])

    @property
    def nbytes(self) -> int:
        """Bytes needed to hold this database's transportable arrays.

        Used by the simulated machine for both memory accounting and
        communication-volume accounting.  Names are metadata and excluded.
        """
        return int(self.residues.nbytes + self.offsets.nbytes + self.ids.nbytes)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sequence(self, i: int) -> np.ndarray:
        """Encoded residues of sequence ``i`` (zero-copy view)."""
        return self.residues[self.offsets[i] : self.offsets[i + 1]]

    def sequence_str(self, i: int) -> str:
        return decode_sequence(self.sequence(i))

    def name(self, i: int) -> str:
        if self._names is not None:
            return self._names[i]
        return f"seq{int(self.ids[i])}"

    def __iter__(self) -> Iterator[ProteinRecord]:
        for i in range(len(self)):
            yield ProteinRecord(self.name(i), self.sequence_str(i))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProteinDatabase):
            return NotImplemented
        return (
            np.array_equal(self.residues, other.residues)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash for container use
        return object.__hash__(self)

    def __repr__(self) -> str:
        return (
            f"ProteinDatabase(n={len(self)}, N={self.total_residues}, "
            f"avg_len={self.total_residues / max(len(self), 1):.1f})"
        )

    # -- derived quantities ---------------------------------------------

    def parent_masses(self, monoisotopic: bool = True) -> np.ndarray:
        """Neutral masses of every full sequence, computed vectorized.

        The result for the default (monoisotopic) table is cached because
        Algorithm B's sort and every candidate-window filter consult it.
        """
        if monoisotopic and self._parent_masses is not None:
            return self._parent_masses
        csum = np.concatenate(([0.0], np.cumsum(mass_table(monoisotopic)[self.residues])))
        masses = csum[self.offsets[1:]] - csum[self.offsets[:-1]] + WATER_MASS
        if monoisotopic:
            self._parent_masses = masses
        return masses

    def parent_mz_keys(self, monoisotopic: bool = True) -> np.ndarray:
        """Integer parent m/z keys (charge 1, rounded) for counting sort.

        The paper's Algorithm B counting-sorts on integer m/z values
        bounded by [1, 300000]; rounding singly-protonated m/z to the
        nearest integer reproduces that key space.
        """
        from repro.chem.peptide import peptide_mz  # local import to avoid cycle

        mz = peptide_mz(0.0, 1) + self.parent_masses(monoisotopic)
        return np.rint(mz).astype(np.int64)

    # -- restructuring --------------------------------------------------

    def subset(self, indices: np.ndarray) -> "ProteinDatabase":
        """New database containing sequences at ``indices`` (in that order)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return ProteinDatabase.empty()
        lengths = self.lengths[indices]
        new_offsets = np.concatenate(([0], np.cumsum(lengths)))
        new_residues = np.empty(int(new_offsets[-1]), dtype=np.uint8)
        starts = self.offsets[:-1]
        for out_pos, idx in enumerate(indices):
            s = starts[idx]
            new_residues[new_offsets[out_pos] : new_offsets[out_pos + 1]] = self.residues[
                s : s + lengths[out_pos]
            ]
        names = [self._names[i] for i in indices] if self._names is not None else None
        masses = (
            self._parent_masses[indices] if self._parent_masses is not None else None
        )
        return ProteinDatabase(
            new_residues, new_offsets, self.ids[indices], names, _parent_masses=masses
        )

    def slice_range(self, start: int, stop: int) -> "ProteinDatabase":
        """Contiguous sub-database of sequences ``start:stop`` (zero-copy residues)."""
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"range {start}:{stop} out of bounds for n={len(self)}")
        offsets = self.offsets[start : stop + 1] - self.offsets[start]
        residues = self.residues[self.offsets[start] : self.offsets[stop]]
        names = self._names[start:stop] if self._names is not None else None
        masses = (
            self._parent_masses[start:stop] if self._parent_masses is not None else None
        )
        return ProteinDatabase(
            residues, offsets, self.ids[start:stop], names, _parent_masses=masses
        )

    @staticmethod
    def concat(parts: Sequence["ProteinDatabase"]) -> "ProteinDatabase":
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            return ProteinDatabase.empty()
        residues = np.concatenate([p.residues for p in parts])
        lengths = np.concatenate([p.lengths for p in parts])
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        ids = np.concatenate([p.ids for p in parts])
        if all(p._names is not None for p in parts):
            names: Optional[List[str]] = [n for p in parts for n in p._names]  # type: ignore[union-attr]
        else:
            names = None
        return ProteinDatabase(residues, offsets, ids, names)

    # -- transport (used by the simulated machine) -----------------------

    def to_buffers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transportable representation: ``(residues, offsets, ids)``."""
        return self.residues, self.offsets, self.ids

    @classmethod
    def from_buffers(
        cls, residues: np.ndarray, offsets: np.ndarray, ids: np.ndarray
    ) -> "ProteinDatabase":
        return cls(residues, offsets, ids)
