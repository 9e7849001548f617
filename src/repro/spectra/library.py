"""Spectral library: curated reference spectra keyed by peptide sequence.

MSPolygraph "combines the use of highly accurate spectral libraries, when
available, with the use of on-the-fly generation of sequence averaged
model spectra when spectral libraries are not available" (paper Section
I.A).  :class:`SpectralLibrary` reproduces that two-tier lookup: scorers
ask the library for a candidate's model spectrum and fall back to the
theoretical b/y model on a miss.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.chem.amino_acids import decode_sequence
from repro.spectra.theoretical import theoretical_spectrum


class SpectralLibrary:
    """In-memory reference spectrum store with theoretical fallback."""

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sequence: str) -> bool:
        return sequence in self._entries

    def add(self, sequence: str, mz: np.ndarray, intensity: np.ndarray) -> None:
        """Register a reference spectrum for a peptide sequence.

        Peaks are sorted and stored read-only; re-adding a sequence
        replaces its entry (libraries are periodically re-curated).
        """
        mz = np.asarray(mz, dtype=np.float64)
        intensity = np.asarray(intensity, dtype=np.float64)
        if len(mz) != len(intensity):
            raise ValueError("mz and intensity must have equal length")
        order = np.argsort(mz, kind="stable")
        mz, intensity = mz[order].copy(), intensity[order].copy()
        mz.flags.writeable = False
        intensity.flags.writeable = False
        self._entries[sequence] = (mz, intensity)

    @classmethod
    def from_peptides(cls, encoded_peptides: Iterable[np.ndarray]) -> "SpectralLibrary":
        """Build a library of ideal theoretical spectra (useful in tests)."""
        lib = cls()
        for enc in encoded_peptides:
            mz, intensity = theoretical_spectrum(enc)
            lib.add(decode_sequence(enc), mz, intensity)
        return lib

    def lookup(self, sequence: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Reference ``(mz, intensity)`` for a sequence, or None on miss."""
        entry = self._entries.get(sequence)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def model_spectrum(self, encoded: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Library spectrum if present, else the on-the-fly theoretical model.

        This is MSPolygraph's two-tier model-spectrum path.
        """
        entry = self.lookup(decode_sequence(encoded))
        if entry is not None:
            return entry
        return theoretical_spectrum(encoded)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
