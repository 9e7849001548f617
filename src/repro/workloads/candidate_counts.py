"""Figure 1b: candidate counts per spectrum by source class.

The paper's Figure 1b shows "the number of peptide candidates required
to be examined for every experimental spectrum generated from different
source[s] — if the spectrum's protein family or genome source is known
or if it is from an environmental microbial community.  As can be
observed the number of candidates for evaluation rapidly increases as
the unknowns in the source also increases."

We reproduce this by *measuring*, not asserting: each source class maps
to a database scope (a protein family of tens of proteins, one genome of
thousands, a metagenomic community of hundreds of thousands+), we build
each scope synthetically, and count exact candidates per query with the
production candidate generator — optionally with PTMs, which multiply
counts further (the paper's other Figure 1b message).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.candidates.generator import CandidateGenerator, heaviest_parent_mass
from repro.chem.amino_acids import Modification
from repro.spectra.spectrum import Spectrum
from repro.workloads.synthetic import generate_database

#: source class -> number of proteins in scope (paper's qualitative axis,
#: scaled to laptop-buildable sizes; ratios between classes are what the
#: figure conveys)
SOURCE_CLASSES: Dict[str, int] = {
    "protein_family": 50,
    "single_genome": 4_000,
    "microbial_community": 120_000,
}


@dataclass(frozen=True)
class CandidateCountRow:
    """One bar of Figure 1b."""

    source: str
    num_proteins: int
    mean_candidates: float
    median_candidates: float
    max_candidates: int


def candidate_count_by_source(
    queries: Sequence[Spectrum],
    delta: float = 3.0,
    modifications: Tuple[Modification, ...] = (),
    seed: int = 7,
    class_sizes: Dict[str, int] = SOURCE_CLASSES,
) -> List[CandidateCountRow]:
    """Measure per-query candidate counts at each source-class scope."""
    rows: List[CandidateCountRow] = []
    masses = np.array([q.parent_mass for q in queries])
    heaviest = heaviest_parent_mass(queries)
    for source, n_proteins in class_sizes.items():
        database = generate_database(n_proteins, seed=seed)
        generator = CandidateGenerator(database, delta, modifications, heaviest)
        counts = generator.count_many(masses)
        rows.append(
            CandidateCountRow(
                source=source,
                num_proteins=n_proteins,
                mean_candidates=float(counts.mean()) if len(counts) else 0.0,
                median_candidates=float(np.median(counts)) if len(counts) else 0.0,
                max_candidates=int(counts.max()) if len(counts) else 0,
            )
        )
    return rows
