"""Generalized proteolytic enzymes.

Trypsin is the overwhelmingly common choice, and the one the tryptic
prefilter baseline assumes.  Real studies also use other proteases —
multi-enzyme digests increase sequence coverage — so the library exposes
the standard set behind one :class:`Protease` rule type: cleave C-terminal to ``residues``, blocked
when the next residue is in ``blocked_by``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.errors import InvalidSequenceError
from repro.constants import AMINO_ACIDS


@dataclass(frozen=True)
class Protease:
    """A cleavage rule: cut after ``residues`` unless followed by ``blocked_by``."""

    name: str
    residues: str
    blocked_by: str = ""

    def __post_init__(self) -> None:
        for group in (self.residues, self.blocked_by):
            bad = [c for c in group if c not in AMINO_ACIDS]
            if bad:
                raise InvalidSequenceError(f"{self.name}: invalid residues {bad!r}")
        if not self.residues:
            raise ValueError(f"{self.name}: needs at least one cleavage residue")

    def cleavage_sites(self, encoded: np.ndarray) -> np.ndarray:
        """Indices after which this protease cleaves (sequence end excluded)."""
        if len(encoded) == 0:
            return np.empty(0, dtype=np.int64)
        cuts = np.zeros(len(encoded), dtype=bool)
        for aa in self.residues:
            cuts |= encoded == ord(aa)
        allowed = np.ones(len(encoded), dtype=bool)
        allowed[-1] = False  # the final residue's site is the sequence end
        for aa in self.blocked_by:
            blocked = np.zeros(len(encoded), dtype=bool)
            blocked[:-1] = encoded[1:] == ord(aa)
            allowed &= ~blocked
        return np.nonzero(cuts & allowed)[0].astype(np.int64)

    def peptides(
        self,
        encoded: np.ndarray,
        missed_cleavages: int = 0,
        min_length: int = 1,
        max_length: int = 10**9,
    ) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, stop)`` half-open peptide spans, in order of start,
        then length; with ``missed_cleavages=k`` every run of up to
        ``k + 1`` consecutive fragments is one peptide."""
        if missed_cleavages < 0:
            raise ValueError(f"missed_cleavages must be >= 0, got {missed_cleavages}")
        sites = self.cleavage_sites(encoded)
        bounds = np.concatenate(([0], sites + 1, [len(encoded)]))
        if len(bounds) >= 2 and bounds[-2] == bounds[-1]:
            bounds = bounds[:-1]
        nfrag = len(bounds) - 1
        for first in range(nfrag):
            for last in range(first, min(first + missed_cleavages + 1, nfrag)):
                start, stop = int(bounds[first]), int(bounds[last + 1])
                if min_length <= stop - start <= max_length:
                    yield (start, stop)


#: The standard protease catalogue.
PROTEASES: Dict[str, Protease] = {
    "trypsin": Protease("trypsin", "KR", blocked_by="P"),
    "trypsin/p": Protease("trypsin/p", "KR"),  # no proline rule
    "lys-c": Protease("lys-c", "K"),
    "arg-c": Protease("arg-c", "R", blocked_by="P"),
    "glu-c": Protease("glu-c", "E"),
    "asp-n-like": Protease("asp-n-like", "D"),  # simplified: C-terminal rule
    "chymotrypsin": Protease("chymotrypsin", "FWYL", blocked_by="P"),
}


def get_protease(name: str) -> Protease:
    try:
        return PROTEASES[name]
    except KeyError:
        raise KeyError(
            f"unknown protease {name!r}; expected one of {sorted(PROTEASES)}"
        ) from None
