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

from typing import Callable, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.candidates.batch import CandidateBatch, LengthGroup
from repro.spectra.binning import group_by_key
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

    Scores must be deterministic and side-effect free: the paper's
    validation experiment requires parallel runs to reproduce the serial
    engine's output exactly, whatever the order in which candidates are
    evaluated.  Each scorer's scalar definition — one (spectrum,
    candidate) pair at a time, a variable PTM at one site shifting every
    fragment that contains it — lives in ``tests/reference.py``, the
    oracle its kernel is checked against bit for bit.
    """

    name: str
    relative_cost: float

    def pair_kernel(self, spectra: SpectrumBatch) -> Callable[..., np.ndarray]:
        """Bind a cohort; see the pair-kernel contract below."""
        ...

    def score_block(
        self,
        spectra: SpectrumBatch,
        batch: CandidateBatch,
        selections: Sequence[np.ndarray],
    ) -> np.ndarray:
        """Score each member's selected candidates (member-major), usually
        through :func:`score_block_pairs` with the scorer's pair kernel."""
        ...


# -- multi-spectrum (cohort) scoring ------------------------------------
#
# The candidate-major sweep scores one shared CandidateBatch against a
# whole SpectrumBatch of queries whose precursor windows overlap.  Every
# cohort kernel returns ONE float64 vector, member-major: the scores of
# ``selections[0]``'s candidates, then ``selections[1]``'s, and so on.
#
# Pair-kernel contract.  A scorer's ``pair_kernel(spectra)`` binds a
# cohort and returns ``kernel(member, lengths, *matrices) -> row scores``,
# called once per (cohort, length band): ``matrices`` are that band's
# dense matrices (ladders, fragment m/z rows, model m/z rows with their
# series — each a *row-wise* product of the band's residue matrix, so the
# rows prepared once for the cohort are the rows the scalar model builds
# one by one), gathered to one row per (member, evaluation row) pair, and
# ``member`` — non-decreasing — names the spectrum each row is scored
# against.  ``lengths`` is ``None`` for a band of one candidate length,
# whose rows have no padding; for a band of several it holds each row's
# candidate length (at least 2), and a row's fragments past its own
# ``2 * (length - 1)`` are ``+inf`` pads that no step may count: a kernel
# sums over each row's own width (``row_prefix_sums``), and a pad matches
# no peak interval, lands in no xcorr bin and adds no draw.  Per member
# the kernel only runs the binary searches against that member's own
# peaks (or, for xcorr, applies its bin limit and its offset into the
# bound preprocessed vectors; for the likelihood model, gathers
# from its four-entry table of per-fragment terms, built once per batch
# from the scalar's operands); every other step is row-wise — it reads
# one row's operands and reduces along the last axis only — and runs
# once over all rows.  A row's operands and reduction order are
# therefore the scalar scorer's for that (member, candidate) pair, so
# every score is bitwise identical to it.
#
# Per-member state (likelihood's table, xcorr's vectors, hypergeometric's
# bins) is a *binding*: the scorer's ``bind(spectra)``, one entry per
# member along the first axis, which a kernel reads through
# ``spectra.bound(scorer)``.  A batch makes it once per
# ``scorer.binding_key``, and a slice of a batch slices its parent's, so
# a rank's queries are bound once however many blocks and passes read them.


def score_block_pairs(
    batch: CandidateBatch,
    selections: Sequence[np.ndarray],
    default: float,
    prepare: Callable[[LengthGroup], Tuple[np.ndarray, ...]],
    kernel: Callable[..., np.ndarray],
) -> np.ndarray:
    """Shared driver for per-scorer ``score_block`` implementations.

    ``selections[k]`` lists the candidate indices (into ``batch``) that
    query ``k`` owns.  ``prepare`` runs ONCE per length band for the
    whole cohort and returns the band's dense matrices; ``kernel`` is
    the scorer's bound pair kernel (see above) and runs once per band on
    the rows every member selected from it.  A row of fewer than two
    residues has no fragment and keeps ``default``, every scorer's
    score of an empty ladder or model spectrum; it never reaches the
    kernel.
    """
    cands, cand_member = flatten_members(selections)
    rows = batch.rows_of(cands)
    member = cand_member
    if batch.num_rows != len(batch):  # PTM tiers: a candidate owns a row per site
        member = np.repeat(cand_member, batch.selected_row_counts(cands))
    # Bring each band's rows together with one stable sort: inside a band
    # rows keep their (member-major) order, so every slice of ``member``
    # below is still non-decreasing.
    row_group, row_local = batch.group_positions()
    groups = batch.length_groups()
    order, runs = group_by_key(row_group[rows], len(groups))
    member = member[order]
    local = row_local[rows[order]]
    scores = np.full(len(rows), default, dtype=np.float64)
    for g, a, b in runs:
        group = groups[g]
        if group.length < 2:
            continue
        at, picked, lengths = slice(a, b), local[a:b], group.row_lengths
        if lengths is not None:
            lengths = lengths[picked]
            if group.row_lengths[0] < 2:  # lengths ascend: only a first band holds short rows
                at = a + np.flatnonzero(lengths >= 2)
                if len(at) == 0:
                    continue
                picked, lengths = local[at], lengths[at - a]
        scores[at] = kernel(member[at], lengths, *[m[picked] for m in prepare(group)])
    row_scores = np.empty_like(scores)
    row_scores[order] = scores
    return batch.reduce_selected(row_scores, cands)


def block_scores(
    scorer: Scorer,
    spectra: SpectrumBatch,
    batch: CandidateBatch,
    selections: Sequence[np.ndarray],
) -> np.ndarray:
    """Score a cohort's selections of one candidate block (member-major)."""
    if len(batch) == 0:
        return np.empty(0, dtype=np.float64)
    return scorer.score_block(spectra, batch, selections)
