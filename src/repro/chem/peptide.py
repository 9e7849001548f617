"""Peptide mass arithmetic.

Core definitions (paper Section II.A):

* a peptide's *neutral mass* is the sum of its residue masses plus one
  water;
* its *m/z* at charge ``z`` is ``(mass + z * proton) / z``;
* a prefix/suffix of a database peptide is a *candidate* for query ``q``
  when its m/z lies within ``m(q) +/- delta``.
"""

from __future__ import annotations

import numpy as np

from repro.chem.amino_acids import mass_table
from repro.constants import PROTON_MASS, WATER_MASS


def peptide_mass(encoded: np.ndarray, monoisotopic: bool = True) -> float:
    """Neutral monoisotopic (or average) mass of an encoded peptide, in Da."""
    return float(mass_table(monoisotopic)[encoded].sum()) + WATER_MASS


def peptide_mz(mass: float, charge: int = 1) -> float:
    """Observed m/z of a neutral mass at the given positive charge state."""
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    return (mass + charge * PROTON_MASS) / charge


def mz_to_mass(mz: float, charge: int = 1) -> float:
    """Invert :func:`peptide_mz`: neutral mass from observed m/z and charge."""
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    return mz * charge - charge * PROTON_MASS
