"""Search configuration shared by every engine and algorithm."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.chem.amino_acids import Modification
from repro.core.costmodel import CostModel
from repro.errors import ConfigError
from repro.scoring.registry import SCORER_NAMES, make_scorer


class ExecutionMode(str, enum.Enum):
    """How much of the search is executed for real in simulated runs.

    REAL: candidates are enumerated and scored; hits are produced.  Use
        for validation and any experiment that inspects results.
    MODELED: candidates are *counted* (vectorized, exact) but not scored;
        virtual time is charged identically, no hits are produced.  Use
        for the large-N scaling tables (the paper's Table II grid up to
        millions of sequences), where only timings are reported.
    """

    REAL = "real"
    MODELED = "modeled"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one peptide-identification search.

    Attributes:
        delta: parent-mass tolerance (Da) defining candidate windows —
            the paper's tolerance constant.
        tau: number of top hits retained per query (the paper: "a value
            between 10 and 1,000").
        scorer: name of the statistical model (see repro.scoring).  The
            paper's quality argument corresponds to "likelihood";
            "hyperscore" is the X!!Tandem-style fast model.
        fragment_tolerance: fragment-match tolerance (Da) inside scorers.
        min_candidate_length: candidates shorter than this are skipped
            (sub-peptide-scale spans carry no sequence information).
        modifications: variable PTMs to consider during candidate
            generation.
        execution: REAL or MODELED (see ExecutionMode).
        cost: the virtual-time cost model.
        score_cutoff: optional minimum score for reporting a hit ("if the
            score is above a user-specified cutoff then the ... peptide
            is reported as a hit").
        sweep_cohort: maximum queries packed into one scoring block of
            the shard pass (queries sorted by precursor mass, overlapping
            windows coalesced, members scored against shared candidate
            blocks); bounds peak memory of the shared block.  Hits do
            not depend on it — a cohort of one is the per-query search.
            The default of 64 is the measured sweet spot on the
            benchmark workloads: larger cohorts amortize per-block
            probe/setup cost, while past ~64 the shared block outgrows
            cache and gains flatten.
    """

    delta: float = 3.0
    tau: int = 50
    scorer: str = "likelihood"
    fragment_tolerance: float = 0.5
    min_candidate_length: int = 5
    modifications: Tuple[Modification, ...] = ()
    execution: ExecutionMode = ExecutionMode.REAL
    cost: CostModel = field(default_factory=CostModel)
    score_cutoff: Optional[float] = None
    sweep_cohort: int = 64

    def __post_init__(self) -> None:
        if not self.delta >= 0:  # NaN included
            raise ConfigError(f"delta must be >= 0, got {self.delta}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.scorer not in SCORER_NAMES:
            raise ConfigError(f"unknown scorer {self.scorer!r}; expected {SCORER_NAMES}")
        if not self.fragment_tolerance > 0:  # NaN included
            raise ConfigError(f"fragment_tolerance must be > 0, got {self.fragment_tolerance}")
        if self.min_candidate_length < 1:
            raise ConfigError("min_candidate_length must be >= 1")
        if self.sweep_cohort < 1:
            raise ConfigError(f"sweep_cohort must be >= 1, got {self.sweep_cohort}")
        if not isinstance(self.execution, ExecutionMode):
            object.__setattr__(self, "execution", ExecutionMode(self.execution))

    def make_scorer(self):
        return make_scorer(self.scorer, self.fragment_tolerance)
