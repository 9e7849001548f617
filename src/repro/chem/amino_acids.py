"""Residue alphabet, encoded sequences, mass tables, and modifications.

Sequences are stored internally as ``numpy.uint8`` arrays of ASCII codes
("encoded" sequences).  This matches the paper's storage model — the
database is a flat byte buffer partitioned into N/p-byte chunks — and
lets mass computations run as vectorized table lookups instead of Python
loops over characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.constants import AMINO_ACIDS, AVERAGE_MASS, MONOISOTOPIC_MASS
from repro.errors import InvalidSequenceError

#: ASCII byte codes of the 20 standard residues, in alphabet order.
RESIDUE_CODES: np.ndarray = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)

_VALID = np.zeros(256, dtype=bool)
_VALID[RESIDUE_CODES] = True

# 256-entry lookup tables: residue ASCII code -> mass.  Invalid codes map
# to NaN so an un-validated sequence poisons downstream masses loudly
# instead of silently contributing zero.
_MONO_TABLE = np.full(256, np.nan)
_AVG_TABLE = np.full(256, np.nan)
for _aa in AMINO_ACIDS:
    _MONO_TABLE[ord(_aa)] = MONOISOTOPIC_MASS[_aa]
    _AVG_TABLE[ord(_aa)] = AVERAGE_MASS[_aa]


def _readonly_view(table: np.ndarray) -> np.ndarray:
    view = table.view()
    view.flags.writeable = False
    return view


# Memoized read-only views: mass_table sits on the fragment-generation hot
# path (called once per batch kernel invocation), so the view is built once
# instead of per call.
_MONO_VIEW = _readonly_view(_MONO_TABLE)
_AVG_VIEW = _readonly_view(_AVG_TABLE)


def mass_table(monoisotopic: bool = True) -> np.ndarray:
    """Return the 256-entry residue-code -> mass lookup table (read-only view)."""
    return _MONO_VIEW if monoisotopic else _AVG_VIEW


def is_valid_sequence(encoded: np.ndarray) -> bool:
    """True if every byte of ``encoded`` is one of the 20 standard residue codes."""
    if encoded.dtype != np.uint8:
        raise TypeError(f"expected uint8 array, got {encoded.dtype}")
    return bool(np.all(_VALID[encoded]))


def encode_sequence(sequence: str, validate: bool = True) -> np.ndarray:
    """Encode a residue string to a uint8 array of ASCII codes.

    Raises :class:`InvalidSequenceError` if ``validate`` and the string
    contains non-residue characters (including lowercase).
    """
    encoded = np.frombuffer(sequence.encode("ascii", errors="strict"), dtype=np.uint8)
    if validate and not is_valid_sequence(encoded):
        bad = sorted({c for c in sequence if ord(c) > 255 or not _VALID[ord(c)]})
        raise InvalidSequenceError(f"invalid residue(s) {bad!r} in sequence")
    return encoded.copy()  # frombuffer gives a read-only view of the bytes


def decode_sequence(encoded: np.ndarray) -> str:
    """Inverse of :func:`encode_sequence`."""
    return encoded.tobytes().decode("ascii")


@dataclass(frozen=True)
class Modification:
    """A post-translational modification (PTM).

    The paper highlights PTMs as a key driver of candidate explosion
    (Figure 1b discussion): each *variable* modification multiplies the
    number of candidate masses a peptide can present.

    Attributes:
        name: human-readable name, e.g. ``"oxidation"``.
        target: one-letter residue code the modification applies to.
        delta_mass: mass shift in Da added to the unmodified residue; it
            must leave the residue's mass positive.
        fixed: if True the modification always applies (e.g.
            carbamidomethylation of C); if False it may or may not be
            present and candidate generation must consider both forms.
    """

    name: str
    target: str
    delta_mass: float
    fixed: bool = False

    def __post_init__(self) -> None:
        if len(self.target) != 1 or self.target not in AMINO_ACIDS:
            raise InvalidSequenceError(f"modification target {self.target!r} is not a residue")
        # fragment models rely on positive residue masses (theoretical.by_model_rows)
        lightest = min(MONOISOTOPIC_MASS[self.target], AVERAGE_MASS[self.target])
        if not lightest + self.delta_mass > 0:
            raise InvalidSequenceError(
                f"modification {self.name!r} leaves {self.target} with mass "
                f"{lightest + self.delta_mass} <= 0"
            )


#: Common modifications, keyed by name.
STANDARD_MODIFICATIONS: Dict[str, Modification] = {
    "carbamidomethyl": Modification("carbamidomethyl", "C", 57.021464, fixed=True),
    "oxidation": Modification("oxidation", "M", 15.994915, fixed=False),
    "phosphorylation_s": Modification("phosphorylation_s", "S", 79.966331, fixed=False),
    "phosphorylation_t": Modification("phosphorylation_t", "T", 79.966331, fixed=False),
    "phosphorylation_y": Modification("phosphorylation_y", "Y", 79.966331, fixed=False),
    "acetylation": Modification("acetylation", "K", 42.010565, fixed=False),
    "deamidation_n": Modification("deamidation_n", "N", 0.984016, fixed=False),
}
