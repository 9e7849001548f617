"""Tryptic cleavage sites.

Database-search pipelines "use empirical rules to determine which
peptides should be present in the proteins" (paper Section I.A).  The
standard rule is *tryptic* digestion: trypsin cleaves C-terminal to
lysine (K) or arginine (R), except when the next residue is proline (P).
Every protease, trypsin included, digests through
:class:`repro.chem.enzymes.Protease`.
"""

from __future__ import annotations

import numpy as np


def cleavage_sites(encoded: np.ndarray) -> np.ndarray:
    """Indices *after which* trypsin cleaves in an encoded sequence.

    A site ``i`` means the bond between residues ``i`` and ``i + 1`` is
    cut, i.e. a fragment may end at index ``i`` (inclusive).  The
    sequence end is not included (it is always a fragment boundary).
    """
    if len(encoded) == 0:
        return np.empty(0, dtype=np.int64)
    is_kr = (encoded == ord("K")) | (encoded == ord("R"))
    not_before_p = np.empty(len(encoded), dtype=bool)
    not_before_p[:-1] = encoded[1:] != ord("P")
    not_before_p[-1] = False  # the final residue's "site" is the sequence end
    return np.nonzero(is_kr & not_before_p)[0].astype(np.int64)
