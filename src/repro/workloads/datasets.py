"""Named datasets: scaled stand-ins for the paper's Table I inputs.

The paper used two GenBank downloads (Table I):

=====================  ==========  ============
statistic              Human       Microbial
=====================  ==========  ============
#protein sequences     88,333      2,655,064
total residues         26,647,093  834,866,454
avg. sequence length   301.66      314.44
=====================  ==========  ============

We reproduce these *statistically* with the synthetic generator and
*geometrically* at a configurable scale factor, because building an
835M-residue database in RAM is possible (~0.8 GB) but every benchmark
over it would dominate CI time.  ``scale=1.0`` gives the paper's full
sizes; the benchmark defaults use ``scale`` chosen per experiment and
record it in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chem.protein import ProteinDatabase
from repro.constants import (
    PAPER_HUMAN_AVG_LENGTH,
    PAPER_HUMAN_SEQUENCES,
    PAPER_MICROBIAL_AVG_LENGTH,
    PAPER_MICROBIAL_SEQUENCES,
)
from repro.workloads.synthetic import SyntheticProteinGenerator


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset matching a paper input's statistics."""

    name: str
    full_sequences: int
    mean_length: float
    seed: int

    def size_at_scale(self, scale: float) -> int:
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        return max(1, int(round(self.full_sequences * scale)))

    def generator(self) -> SyntheticProteinGenerator:
        return SyntheticProteinGenerator(seed=self.seed, mean_length=self.mean_length)

    def build(self, scale: float = 1.0, n: int = -1) -> ProteinDatabase:
        """Build the dataset at ``scale``, or with an explicit size ``n``."""
        count = n if n >= 0 else self.size_at_scale(scale)
        return self.generator().database(count, name_prefix=self.name[:3])


HUMAN = DatasetSpec(
    name="human",
    full_sequences=PAPER_HUMAN_SEQUENCES,
    mean_length=PAPER_HUMAN_AVG_LENGTH,
    seed=101,
)

MICROBIAL = DatasetSpec(
    name="microbial",
    full_sequences=PAPER_MICROBIAL_SEQUENCES,
    mean_length=PAPER_MICROBIAL_AVG_LENGTH,
    seed=202,
)

_DATASETS = {d.name: d for d in (HUMAN, MICROBIAL)}


def load_dataset(name: str, scale: float = 1.0, n: int = -1) -> ProteinDatabase:
    """Build a named dataset ("human" or "microbial")."""
    try:
        spec = _DATASETS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; expected {sorted(_DATASETS)}") from None
    return spec.build(scale=scale, n=n)
