"""Theoretical (model) fragment spectra for candidate peptides.

MSPolygraph scores a query against "a model spectrum for the candidate"
(paper Section II.A).  Collision-induced dissociation predominantly
breaks the peptide backbone, producing *b ions* (N-terminal prefixes)
and *y ions* (C-terminal suffixes); we model those two series plus the
optional *a* series (b minus CO) that X!Tandem also considers.

The hot path — generating fragment m/z arrays for hundreds of thousands
of candidates per query — is fully vectorized over the candidate's
residues via prefix-mass cumulative sums.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.chem.amino_acids import mass_table
from repro.constants import PROTON_MASS, WATER_MASS

#: Mass of carbon monoxide, subtracted from b ions to form a ions (Da).
_CO_MASS: float = 27.994915


class IonSeries(str, Enum):
    """Backbone fragment ion series."""

    A = "a"
    B = "b"
    Y = "y"


def _residue_masses_with_mod(
    encoded: np.ndarray,
    monoisotopic: bool,
    site: int = -1,
    delta_mass: float = 0.0,
) -> np.ndarray:
    """Per-residue masses, optionally with a PTM delta at one site."""
    residue = mass_table(monoisotopic)[encoded].astype(np.float64)
    if site >= 0:
        if site >= len(residue):
            raise IndexError(f"site {site} out of range for length {len(residue)}")
        residue = residue.copy()
        residue[site] += delta_mass
    return residue


def fragment_mz(
    encoded: np.ndarray,
    series: IonSeries,
    charge: int = 1,
    monoisotopic: bool = True,
    mod_site: int = -1,
    mod_delta: float = 0.0,
) -> np.ndarray:
    """m/z values of all fragments of one ion series for a peptide.

    For a peptide of length ``L`` there are ``L - 1`` fragments per series
    (the full-length "fragment" is the precursor, not a product ion).

    * b_i = (sum of first i residue masses) + proton  (singly charged)
    * a_i = b_i - CO
    * y_i = (sum of last i residue masses) + water + proton
    """
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    residue = _residue_masses_with_mod(encoded, monoisotopic, mod_site, mod_delta)
    if len(residue) < 2:
        return np.empty(0, dtype=np.float64)
    if series is IonSeries.Y:
        neutral = residue[::-1][:-1].cumsum() + WATER_MASS
    else:
        neutral = residue[:-1].cumsum()
        if series is IonSeries.A:
            neutral = neutral - _CO_MASS
    return (neutral + charge * PROTON_MASS) / charge


#: Relative intensity assigned to each series in the model spectrum.  The
#: y series dominates observed CID spectra; b is strong; a is weak.
SERIES_WEIGHT = {IonSeries.B: 0.8, IonSeries.Y: 1.0, IonSeries.A: 0.25}


def theoretical_spectrum(
    encoded: np.ndarray,
    series: Sequence[IonSeries] = (IonSeries.B, IonSeries.Y),
    charges: Iterable[int] = (1,),
    monoisotopic: bool = True,
    mod_site: int = -1,
    mod_delta: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Model spectrum of a candidate: ``(mz, intensity)`` sorted by m/z.

    Intensities follow the fixed per-series weights — a deliberate,
    simple sequence-averaged model in the spirit of MSPolygraph's
    "on-the-fly generation of sequence averaged model spectra" when no
    spectral library entry exists.  ``mod_site``/``mod_delta`` shift the
    fragments containing a variable PTM: every b ion that contains the
    site and every y ion that contains it.
    """
    mz_parts = []
    int_parts = []
    for s in series:
        w = SERIES_WEIGHT[s]
        for z in charges:
            frag = fragment_mz(encoded, s, z, monoisotopic, mod_site, mod_delta)
            mz_parts.append(frag)
            int_parts.append(np.full(len(frag), w / z))
    if not mz_parts:
        return np.empty(0), np.empty(0)
    mz = np.concatenate(mz_parts)
    intensity = np.concatenate(int_parts)
    order = np.argsort(mz, kind="stable")
    return mz[order], intensity[order]


def _fragment_pads(lengths: np.ndarray, width: int) -> np.ndarray:
    """``(n, width)`` mask of the fragment positions past each row's
    ``lengths[r] - 1`` fragments of one series."""
    return np.arange(width) >= (lengths - 1)[:, None]


def _suffix_rows(mass_rows: np.ndarray, lengths: Optional[np.ndarray]) -> np.ndarray:
    """Each row's residues ``L - 1`` down to ``1`` — the order the y
    series folds them in — left-aligned; never a pad before them."""
    if lengths is None:
        return mass_rows[:, :0:-1]
    back = np.maximum(lengths[:, None] - 1 - np.arange(mass_rows.shape[1] - 1), 0)
    return np.take_along_axis(mass_rows, back, axis=1)


def fragment_mz_rows(
    mass_rows: np.ndarray,
    series: IonSeries,
    charge: int = 1,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched :func:`fragment_mz` over per-candidate residue-mass rows.

    ``mass_rows`` is ``(n, L)`` — one row of residue masses per candidate,
    with any PTM delta already applied (see
    :meth:`repro.candidates.batch.LengthGroup.mass_rows`); a row of
    ``lengths[r] < L`` residues is padded with ``0.0`` after them.
    Returns the ``(n, L - 1)`` fragment m/z matrix, ``+inf`` past a
    row's ``lengths[r] - 1`` fragments.  Row ``r``'s fragments are
    bitwise identical to the scalar ``fragment_mz`` of the same
    candidate: the per-row ``cumsum`` is the same sequential fold the
    1-D kernel performs.
    """
    if charge < 1:
        raise ValueError(f"charge must be >= 1, got {charge}")
    n, length = mass_rows.shape
    if length < 2:
        return np.empty((n, 0), dtype=np.float64)
    if series is IonSeries.Y:
        neutral = _suffix_rows(mass_rows, lengths).cumsum(axis=1) + WATER_MASS
    else:
        neutral = mass_rows[:, :-1].cumsum(axis=1)
        if series is IonSeries.A:
            neutral = neutral - _CO_MASS
    mz = (neutral + charge * PROTON_MASS) / charge
    if lengths is not None:
        mz[_fragment_pads(lengths, length - 1)] = np.inf
    return mz


@lru_cache(maxsize=None)
def _proton_or_pad(width: int) -> np.ndarray:
    """``(width + 1, 2, width)``, read-only: what :func:`by_ion_rows` adds
    to the b and y ions of a row of ``k + 1`` residues, at ``[k]`` — the
    proton on each of its ``k`` ions, ``+inf`` on its pad slots (the b
    slots past them, the y slots before them)."""
    slot = np.arange(width)
    ions = np.arange(width + 1)[:, None]
    pads = np.stack((slot >= ions, slot[::-1] >= ions), axis=1)
    table = np.where(pads, np.inf, PROTON_MASS)
    table.flags.writeable = False
    return table


def by_ion_rows(mass_rows: np.ndarray, lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """The default fragment model's ions of per-candidate residue-mass
    rows, unsorted: ``(n, 2, L - 1)``, each row's b ions then its y ions.

    The one b/y arithmetic every batched model shares: ``b_i`` folds the
    first ``i`` residues, ``y_i`` the last ``i`` from the C-terminus,
    each a sequential ``cumsum`` exactly as :func:`fragment_mz` performs
    it, then ``+ water`` (y) and ``+ proton`` (its ``/ 1`` is exact).  The
    y fold runs over the reversed view ``mass_rows[:, :0:-1]``: a row of
    ``lengths[r] < L`` residues, padded with ``0.0``, meets its pads
    first, and ``0.0 + x == x``, so its y ions are its own suffix fold,
    right-aligned.  Pad slots (trailing b, leading y) add ``+inf`` where
    an ion adds the proton, so they are ``+inf``.
    """
    n, length = mass_rows.shape
    width = max(length - 1, 0)
    ions = np.empty((n, 2, width))
    np.cumsum(mass_rows[:, :-1], axis=1, out=ions[:, 0])
    np.cumsum(mass_rows[:, :0:-1], axis=1, out=ions[:, 1])
    ions[:, 1] += WATER_MASS
    if lengths is None:
        ions += PROTON_MASS
    else:
        ions += _proton_or_pad(width).take(lengths - 1, axis=0)
    return ions


def by_model_rows(
    mass_rows: np.ndarray, lengths: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched default :func:`theoretical_spectrum` (b and y ions, charge 1).

    ``mass_rows`` is ``(n, L)`` with ``L >= 2`` and PTM deltas applied; a
    row of ``lengths[r] < L`` residues is padded with ``0.0``.  Returns
    ``(mz_rows, y_rows)``, both ``(n, 2 * (L - 1))``: each row's
    fragment m/z sorted by the scalar kernel's stable key, and whether
    each sorted fragment is a y ion — the model intensity is a
    per-series constant, so the series is all a scorer needs of it.  The
    ions are :func:`by_ion_rows`, the scalar kernel's fold, so row ``r``'s
    first ``2 * (lengths[r] - 1)`` entries are candidate ``r``'s scalar
    model spectrum bit for bit: its pad fragments are ``+inf`` and sort
    last.

    The sort is one value sort of packed keys: each ion's float64 bits
    shifted left by one, bit 0 set for a y ion.  Every ion is positive
    (no residue mass is <= 0, :class:`~repro.chem.amino_acids.Modification`
    included) or a ``+inf`` pad, so its sign bit is 0, the shift loses
    nothing and the bit patterns order as the values do; a tie ``b == y``
    puts b first, as a stable argsort of ``[b | y]`` does.
    """
    n, length = mass_rows.shape
    key = by_ion_rows(mass_rows, lengths).reshape(n, 2 * (length - 1)).view(np.uint64)
    key <<= np.uint64(1)
    key[:, length - 1 :] |= np.uint64(1)
    key.sort(axis=1)
    y_rows = (key & np.uint64(1)).astype(bool)
    key >>= np.uint64(1)
    return key.view(np.float64), y_rows


def by_ion_ladders(mass_rows: np.ndarray, lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Sorted singly-charged b+y ladders (the default fragment model) of
    per-candidate residue-mass rows: ``by_model_rows(mass_rows,
    lengths)[0]`` bit for bit, without the series.

    ``mass_rows`` is ``(n, L)`` with PTM deltas already applied — a
    variable PTM at one residue shifts every b and y ion containing it,
    which folding the delta into that residue's mass does.  A row of
    ``lengths[r] < L`` residues is padded with ``0.0``.  Returns the
    ``(n, 2 * (L - 1))`` ladder matrix; row ``r``'s first
    ``2 * (lengths[r] - 1)`` entries are bitwise the scalar ladder of
    candidate ``r``, its pad fragments ``+inf`` after them.
    """
    n, length = mass_rows.shape
    ladder = by_ion_rows(mass_rows, lengths).reshape(n, 2 * max(length - 1, 0))
    ladder.sort(axis=1)
    return ladder
