"""The Scorer protocol shared by all statistical models.

A scorer maps ``(experimental spectrum, candidate peptide)`` to a single
real number where larger means a better match.  The paper's quality
argument (Section I.A) contrasts *cheap* models (X!!Tandem's "fairly
simple, fast statistical model") with *expensive, accurate* ones
(MSPolygraph's likelihood models); we expose both behind one interface so
every search algorithm can run with either, and so the cost model can
attribute a per-candidate compute cost ``rho`` that differs by scorer.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.candidates.batch import CandidateBatch, LengthGroup
from repro.spectra.binning import group_by_key
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch, flatten_members


@runtime_checkable
class Scorer(Protocol):
    """Protocol for match scorers.

    Attributes:
        name: stable identifier used in configs and reports.
        relative_cost: approximate cost of one candidate evaluation
            relative to the shared-peak-count scorer (1.0).  The virtual
            time model multiplies this into the calibrated per-candidate
            cost ``rho``, so switching to a heavier model slows simulated
            runs exactly as the paper argues it slows real ones.
    """

    name: str
    relative_cost: float

    def score(self, spectrum: Spectrum, candidate: np.ndarray) -> float:
        """Score an encoded candidate peptide against a spectrum.

        Must be deterministic and side-effect free: the paper's
        validation experiment requires parallel runs to reproduce the
        serial engine's output exactly, whatever the order in which
        candidates are evaluated.
        """
        ...

    def score_modified(
        self, spectrum: Spectrum, candidate: np.ndarray, site: int, delta_mass: float
    ) -> float:
        """Score a candidate carrying a variable PTM at ``site``.

        The fragment model must shift every ion containing the modified
        residue by ``delta_mass``.  The search kernel evaluates every
        admissible site and keeps the best, so this too must be
        deterministic.
        """
        ...


def batch_scores(
    scorer: Scorer, spectrum: Spectrum, batch: CandidateBatch
) -> np.ndarray:
    """Per-candidate oracle: score a batch through the scalar interface.

    This is the reference implementation every block kernel must match
    bitwise, and the production route of the one scorer without a pair
    kernel: the library-backed likelihood model.
    """
    if len(batch) == 0:
        return np.empty(0, dtype=np.float64)
    row_scores = np.empty(batch.num_rows, dtype=np.float64)
    for r in range(batch.num_rows):
        residues = batch.row_residues(r)
        site = int(batch.row_site[r])
        if site >= 0:
            row_scores[r] = scorer.score_modified(
                spectrum, residues, site, float(batch.row_delta[r])
            )
        else:
            row_scores[r] = scorer.score(spectrum, residues)
    return batch.reduce_rows(row_scores)


# -- multi-spectrum (cohort) scoring ------------------------------------
#
# The candidate-major sweep scores one shared CandidateBatch against a
# whole SpectrumBatch of queries whose precursor windows overlap.  Every
# cohort kernel returns ONE float64 vector, member-major: the scores of
# ``selections[0]``'s candidates, then ``selections[1]``'s, and so on.
#
# Pair-kernel contract.  A scorer's ``pair_kernel(spectra)`` binds a
# cohort and returns ``kernel(member, *matrices) -> row scores``, called
# once per (cohort, length group): ``matrices`` are that group's dense
# per-length matrices (ladders, fragment m/z rows, model m/z rows with
# their series — each a *row-wise* product of the group's residue matrix,
# so the rows prepared once for the cohort are the rows the scalar model
# builds one by one), gathered to one row per (member, evaluation row)
# pair, and ``member`` — non-decreasing — names the spectrum each row is
# scored against.  Per member the kernel only runs the binary searches
# against that member's own peaks (or, for xcorr, applies its bin limit
# and its offset into the concatenated preprocessed vectors; for the
# likelihood model, gathers from its four-entry table of per-fragment
# terms, built once per cohort from the scalar's operands); every other
# step is row-wise — it reads one row's operands and reduces along the
# last axis only — and runs once over all rows.  A row's operands and
# reduction order are therefore the scalar scorer's for that (member,
# candidate) pair, so every score is bitwise identical to it.


def score_block_pairs(
    batch: CandidateBatch,
    selections: Sequence[np.ndarray],
    default: float,
    prepare: Callable[[LengthGroup], Optional[Tuple[np.ndarray, ...]]],
    kernel: Callable[..., np.ndarray],
) -> np.ndarray:
    """Shared driver for per-scorer ``score_block`` implementations.

    ``selections[k]`` lists the candidate indices (into ``batch``) that
    query ``k`` owns.  ``prepare`` runs ONCE per length group for the
    whole cohort and returns the group's dense matrices (``None`` marks
    the group unscoreable, leaving its rows at ``default`` — e.g. length
    < 2); ``kernel`` is the scorer's bound pair kernel (see above) and
    runs once per group on the rows every member selected from it.
    """
    cands, cand_member = flatten_members(selections)
    rows = batch.rows_of(cands)
    member = cand_member
    if batch.num_rows != len(batch):  # PTM tiers: a candidate owns a row per site
        member = np.repeat(cand_member, batch.selected_row_counts(cands))
    # Bring each length group's rows together with one stable sort: inside
    # a group rows keep their (member-major) order, so every slice of
    # ``member`` below is still non-decreasing.
    row_group, row_local = batch.group_positions()
    groups = batch.length_groups()
    order, runs = group_by_key(row_group[rows], len(groups))
    member = member[order]
    local = row_local[rows[order]]
    scores = np.full(len(rows), default, dtype=np.float64)
    for g, a, b in runs:
        matrices = prepare(groups[g])
        if matrices is not None:
            picked = local[a:b]
            scores[a:b] = kernel(member[a:b], *[m[picked] for m in matrices])
    row_scores = np.empty_like(scores)
    row_scores[order] = scores
    return batch.reduce_selected(row_scores, cands)


def score_block_fallback(
    scorer: Scorer,
    spectra: SpectrumBatch,
    batch: CandidateBatch,
    selections: Sequence[np.ndarray],
) -> np.ndarray:
    """Block oracle: score each query's sub-batch through ``batch_scores``.

    The scalar loop: the reference every ``score_block`` pair kernel
    must match bitwise, and what a scorer without one (library-backed
    likelihood) runs in production.
    """
    parts = [
        batch_scores(scorer, spectra.spectra[k], batch.take(np.asarray(sel, dtype=np.int64)))
        for k, sel in enumerate(selections)
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def block_scores(
    scorer: Scorer,
    spectra: SpectrumBatch,
    batch: CandidateBatch,
    selections: Sequence[np.ndarray],
) -> np.ndarray:
    """Dispatch to a scorer's ``score_block`` pair kernel, else the
    scalar oracle."""
    if len(batch) == 0:
        return np.empty(0, dtype=np.float64)
    impl = getattr(scorer, "score_block", None)
    if impl is not None:
        return impl(spectra, batch, selections)
    return score_block_fallback(scorer, spectra, batch, selections)
