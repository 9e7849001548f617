"""Identification-quality metrics against ground truth.

Workload generators return the true target peptide behind every
simulated spectrum; these helpers measure how well a search report
recovers them — the library's common currency for the paper's quality
comparisons (accurate vs. fast models, exhaustive vs. tryptic candidate
rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.core.results import SearchReport
from repro.spectra.spectrum import Spectrum


@dataclass(frozen=True)
class RecoveryResult:
    """Target-recovery statistics for one report."""

    total: int
    recovered_at_1: int
    recovered_at_k: int
    k: int
    mean_rank: float  #: mean 1-based rank of the target among recovered (at k)

    @property
    def recall_at_1(self) -> float:
        return self.recovered_at_1 / self.total if self.total else 0.0

    @property
    def recall_at_k(self) -> float:
        return self.recovered_at_k / self.total if self.total else 0.0


def recovery(
    database: ProteinDatabase,
    report: SearchReport,
    spectra: Sequence[Spectrum],
    targets: Sequence[np.ndarray],
    k: int = 10,
) -> RecoveryResult:
    """Measure how many queries' true peptides appear in the top-k hits.

    A hit recovers the target when its residue span equals the target
    byte-for-byte (L/I ambiguity counts as a match because the residues
    are isobaric *and* identically encoded only when identical; we
    require exact residues, the strict criterion).
    """
    if len(spectra) != len(targets):
        raise ValueError("spectra and targets must align")
    index_of = {int(pid): i for i, pid in enumerate(database.ids)}
    at1 = 0
    atk = 0
    ranks: List[int] = []
    for spectrum, target in zip(spectra, targets):
        hits = report.hits.get(spectrum.query_id, [])[:k]
        for rank, hit in enumerate(hits, start=1):
            seq_idx = index_of.get(hit.protein_id)
            if seq_idx is None:  # e.g. decoy hit
                continue
            span = database.sequence(seq_idx)[hit.start : hit.stop]
            if np.array_equal(span, target):
                atk += 1
                ranks.append(rank)
                if rank == 1:
                    at1 += 1
                break
    return RecoveryResult(
        total=len(spectra),
        recovered_at_1=at1,
        recovered_at_k=atk,
        k=k,
        mean_rank=float(np.mean(ranks)) if ranks else float("nan"),
    )

