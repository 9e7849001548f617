"""The Spectrum value type.

An *experimental spectrum* (paper Section I) is "a plot of peak
intensities (y-axis) to m/z values (x-axis)" recorded for fragments of an
unknown target peptide, together with the m/z of the whole parent
peptide, ``m(q)``.  We store peaks as two parallel float arrays sorted by
m/z, which every scorer and matcher relies on for binary-search matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.peptide import mz_to_mass
from repro.errors import SpectrumError


@dataclass(frozen=True)
class Spectrum:
    """An MS/MS spectrum: sorted peak m/z values, intensities, parent info.

    Attributes:
        mz: peak m/z values, finite, strictly increasing, > 0 (``float64``).
        intensity: peak intensities, finite, >= 0, same length as ``mz``.
        precursor_mz: observed m/z of the intact parent peptide, m(q):
            finite, > 0.
        charge: assumed parent charge state (>= 1).
        query_id: stable identifier of this query within a workload; the
            parallel algorithms carry it through redistribution so results
            can be merged and compared against the serial engine.
    """

    mz: np.ndarray
    intensity: np.ndarray
    precursor_mz: float
    charge: int = 1
    query_id: int = -1

    def __post_init__(self) -> None:
        mz = np.ascontiguousarray(self.mz, dtype=np.float64)
        intensity = np.ascontiguousarray(self.intensity, dtype=np.float64)
        if mz.ndim != 1 or intensity.ndim != 1 or len(mz) != len(intensity):
            raise SpectrumError("mz and intensity must be 1-D arrays of equal length")
        # written so that NaN, which fails every comparison, fails them
        if len(mz) and not (
            mz[0] > 0 and np.all(mz[1:] > mz[:-1]) and np.isfinite(mz[-1])
        ):
            raise SpectrumError(
                "peak m/z values must be finite, positive and strictly increasing"
            )
        if not np.all((intensity >= 0) & (intensity < np.inf)):
            raise SpectrumError("peak intensities must be finite and non-negative")
        if not 0 < self.precursor_mz < np.inf:
            raise SpectrumError(
                f"precursor m/z must be finite and positive, got {self.precursor_mz}"
            )
        if self.charge < 1:
            raise SpectrumError(f"charge must be >= 1, got {self.charge}")
        mz.flags.writeable = False
        intensity.flags.writeable = False
        object.__setattr__(self, "mz", mz)
        object.__setattr__(self, "intensity", intensity)

    def __setstate__(self, state) -> None:
        # unpickling restores the fields without __post_init__ (no
        # revalidation), and with the peak arrays writeable: freeze them
        for name in ("mz", "intensity"):
            state[name].flags.writeable = False
        self.__dict__.update(state)

    @property
    def num_peaks(self) -> int:
        return len(self.mz)

    @property
    def parent_mass(self) -> float:
        """Neutral mass of the parent peptide implied by precursor m/z and charge."""
        return mz_to_mass(self.precursor_mz, self.charge)

    @property
    def nbytes(self) -> int:
        """Transportable size, used by the simulated machine's accounting."""
        return int(self.mz.nbytes + self.intensity.nbytes) + 24  # + scalars

    @classmethod
    def from_peaks(
        cls,
        mz: np.ndarray,
        intensity: np.ndarray,
        precursor_mz: float,
        charge: int = 1,
        query_id: int = -1,
    ) -> "Spectrum":
        """Build a spectrum from unsorted peaks, merging duplicate m/z values.

        Duplicate m/z values have their intensities summed (two unresolved
        fragments landing in the same measurement), which restores the
        strict-ordering invariant.  Peaks already strictly ascending (an
        MGF file's, as a rule) are taken as they are: copied, the
        intensities as ``0.0 + x`` like a merged sum, so the arrays are
        bitwise those of the sort-and-merge path.
        """
        mz = np.asarray(mz, dtype=np.float64)
        intensity = np.asarray(intensity, dtype=np.float64)
        if mz.shape != intensity.shape:  # the merge would silently cut a longer intensity
            raise SpectrumError("mz and intensity must be 1-D arrays of equal length")
        if not np.all(np.isfinite(mz)):  # the merge would fold a NaN peak into its neighbour
            raise SpectrumError("peak m/z values must be finite")
        if np.all(mz[1:] > mz[:-1]):
            return cls(mz.copy(), intensity + 0.0, precursor_mz, charge, query_id)
        order = np.argsort(mz, kind="stable")
        mz, intensity = mz[order], intensity[order]
        if len(mz):
            keep = np.concatenate(([True], np.diff(mz) > 0))
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1)
            np.add.at(summed, group, intensity)
            mz, intensity = mz[keep], summed
        return cls(mz, intensity, precursor_mz, charge, query_id)
