"""The scalar reference every engine path and scoring kernel is compared against.

The scorers' scalar definitions: :func:`score` / :func:`score_modified`
score one (spectrum, candidate) pair with a registered scorer's
parameters, one fragment ladder or model spectrum at a time
(:func:`by_ion_ladder`, :func:`modified_by_ion_ladder`,
:func:`match_peaks`, ...).  Each scorer's pair kernel, and the posting
kernels of the index-served ones, must equal them bit for bit
(:func:`batch_scores` over one spectrum, :func:`scalar_block_scores`
over a cohort).

And the paper's serial loop, one query at a time, one candidate at a
time (:func:`reference_search`).  It enumerates candidates from their
definition (:func:`reference_candidates`: every prefix and proper suffix
of every sequence, not the row table the engines sweep), scores through
:func:`batch_scores` (not a pair kernel, a posting probe or a cached
matrix) and offers through :meth:`TopHitList.add_batch` (not the block
emit), so it shares no vectorised scoring, filtering or emit code with
``ShardSearcher.run`` / ``StreamingSearcher.run``.  Keep inputs small:
the scalar likelihood model is about ten times slower than its kernel.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from repro.candidates.batch import CandidateBatch
from repro.candidates.mass_index import CandidateSpans
from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.constants import PROTON_MASS, WATER_MASS
from repro.core.config import SearchConfig
from repro.scoring.base import Scorer
from repro.scoring.hits import Hit, TopHitList, as_hit_columns
from repro.spectra.spectrum import Spectrum
from repro.spectra.spectrum_batch import SpectrumBatch
from repro.spectra.theoretical import (
    IonSeries,
    _residue_masses_with_mod,
    fragment_mz,
    theoretical_spectrum,
)


# -- scalar fragment ladders and peak matching ------------------------------


def _sorted_by_ions(residue: np.ndarray) -> np.ndarray:
    """Sorted b+y m/z of per-residue masses: b folds the prefix, y the
    suffix from the C-terminus, as :func:`fragment_mz` does."""
    if len(residue) < 2:
        return np.empty(0, dtype=np.float64)
    b = residue[:-1].cumsum() + PROTON_MASS
    y = residue[::-1][:-1].cumsum() + WATER_MASS + PROTON_MASS
    ladder = np.concatenate((b, y))
    ladder.sort()
    return ladder


def by_ion_ladder(encoded: np.ndarray, monoisotopic: bool = True) -> np.ndarray:
    """Sorted m/z of the singly-charged b+y ladder (the default model):
    ``theoretical_spectrum(encoded)[0]`` bit for bit.  Returns an array
    of length ``2 * (L - 1)``."""
    return _sorted_by_ions(mass_table(monoisotopic)[encoded])


def modified_by_ion_ladder(
    encoded: np.ndarray,
    site: int,
    delta_mass: float,
    monoisotopic: bool = True,
) -> np.ndarray:
    """Sorted singly-charged b+y ladder with a mass shift at one residue.

    A variable PTM of ``delta_mass`` at position ``site`` shifts every b
    ion that *contains* the site (b_i for i > site) and every y ion that
    contains it (y_j for j >= L - site), leaving the rest untouched —
    exactly how a modified peptide's spectrum differs from the
    unmodified one.  ``theoretical_spectrum(encoded, mod_site=site,
    mod_delta=delta_mass)[0]`` bit for bit.
    """
    if site < 0:
        raise IndexError(f"site must be >= 0, got {site}")
    return _sorted_by_ions(_residue_masses_with_mod(encoded, monoisotopic, site, delta_mass))


def match_peaks(
    observed_mz: np.ndarray, ladder: np.ndarray, tolerance: float
) -> np.ndarray:
    """Boolean mask over ``observed_mz``: which peaks lie within
    ``tolerance`` of *some* ladder fragment.

    Both inputs must be sorted ascending.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if len(ladder) == 0:
        return np.zeros(len(observed_mz), dtype=bool)
    lo = np.searchsorted(ladder, observed_mz - tolerance, side="left")
    hi = np.searchsorted(ladder, observed_mz + tolerance, side="right")
    return hi > lo


def count_matches(
    observed_mz: np.ndarray, ladder: np.ndarray, tolerance: float
) -> int:
    """Number of observed peaks explained by the ladder (shared peak count)."""
    return int(match_peaks(observed_mz, ladder, tolerance).sum())


def matched_intensity(
    observed_mz: np.ndarray,
    observed_intensity: np.ndarray,
    ladder: np.ndarray,
    tolerance: float,
) -> Tuple[int, float]:
    """Shared peak count and the summed intensity of the matched peaks."""
    mask = match_peaks(observed_mz, ladder, tolerance)
    return int(mask.sum()), float(observed_intensity[mask].sum())


def bin_spectrum(
    mz: np.ndarray, intensity: np.ndarray, bin_width: float, mz_max: float
) -> np.ndarray:
    """Accumulate peaks into fixed-width m/z bins.

    Returns a dense vector of length ``ceil(mz_max / bin_width)`` whose
    entry ``k`` sums the intensity of peaks with
    ``k * bin_width <= mz < (k + 1) * bin_width``.  Peaks at or beyond
    ``mz_max`` are dropped.
    """
    if bin_width <= 0 or mz_max <= 0:
        raise ValueError("bin_width and mz_max must be positive")
    nbins = int(np.ceil(mz_max / bin_width))
    out = np.zeros(nbins)
    idx = (mz / bin_width).astype(np.int64)
    keep = (idx >= 0) & (idx < nbins)
    np.add.at(out, idx[keep], intensity[keep])
    return out


def xcorr_preprocessed(scorer, spectrum: Spectrum) -> np.ndarray:
    """Xcorr's preprocessed vector of one spectrum with peaks: the binned
    ``sqrt(intensity)`` ``y`` minus the mean of ``y`` over the
    ``offset_range`` bins either side of each bin (itself excluded), from
    a cumulative sum.  :meth:`XCorrScorer.bind` must give each member
    this vector bit for bit."""
    mz_max = float(max(spectrum.precursor_mz * spectrum.charge, spectrum.mz[-1])) + 2.0
    binned = bin_spectrum(spectrum.mz, np.sqrt(spectrum.intensity), scorer.bin_width, mz_max)
    w = scorer.offset_range
    csum = np.concatenate(([0.0], np.cumsum(binned)))
    n = len(binned)
    lo = np.maximum(np.arange(n) - w, 0)
    hi = np.minimum(np.arange(n) + w + 1, n)
    window_sum = csum[hi] - csum[lo] - binned
    window_len = (hi - lo - 1).astype(np.float64)
    mean = np.divide(window_sum, window_len, out=np.zeros(n), where=window_len > 0)
    return binned - mean


# -- the scalar scorers -------------------------------------------------------
#
# One definition per registered scorer, keyed by its ``name``: a function
# of the scorer (its parameters, and the per-spectrum helpers its kernel
# shares — xcorr's :func:`xcorr_preprocessed`, likelihood's
# ``_chance_match_probability``, hypergeometric's ``_bins``), the
# spectrum, the candidate and a PTM ``site`` (-1: unmodified) with its
# ``delta``.


def _ladder(candidate: np.ndarray, site: int, delta: float) -> np.ndarray:
    if site < 0:
        return by_ion_ladder(candidate)
    return modified_by_ion_ladder(candidate, site, delta)


def _shared_peaks(scorer, spectrum: Spectrum, candidate, site, delta) -> float:
    ladder = _ladder(candidate, site, delta)
    return float(count_matches(spectrum.mz, ladder, scorer.fragment_tolerance))


def _hyperscore(scorer, spectrum: Spectrum, candidate, site, delta) -> float:
    if spectrum.num_peaks == 0:
        return -math.inf
    mz = np.ascontiguousarray(spectrum.mz)
    intensity = np.ascontiguousarray(spectrum.intensity)
    nb, b_int = matched_intensity(
        mz, intensity,
        fragment_mz(candidate, IonSeries.B, mod_site=site, mod_delta=delta),
        scorer.fragment_tolerance,
    )
    ny, y_int = matched_intensity(
        mz, intensity,
        fragment_mz(candidate, IonSeries.Y, mod_site=site, mod_delta=delta),
        scorer.fragment_tolerance,
    )
    dot = b_int + y_int
    if dot <= 0.0 or (nb == 0 and ny == 0):
        return -math.inf
    # np.log rather than math.log: the two differ in the last bit for
    # some inputs
    ln = float(np.log(dot)) + math.lgamma(nb + 1) + math.lgamma(ny + 1)
    return ln / math.log(10.0)


def _xcorr(scorer, spectrum: Spectrum, candidate, site, delta) -> float:
    ladder = _ladder(candidate, site, delta)
    if spectrum.num_peaks == 0:
        return -math.inf
    processed = xcorr_preprocessed(scorer, spectrum)
    if len(ladder) == 0:
        return -math.inf
    bins = (ladder / scorer.bin_width).astype(np.int64)
    bins = np.unique(bins[(bins >= 0) & (bins < len(processed))])
    if len(bins) == 0:
        return -math.inf
    # Xcorr is conventionally scaled by 1e-4 of the raw correlation.
    return float(processed[bins].sum()) * 1e-2


def fragment_llrs(scorer, spectrum: Spectrum, model_mz, model_int) -> np.ndarray:
    """Bernoulli log-likelihood ratio of each model fragment position."""
    p0 = scorer._chance_match_probability(spectrum)
    # Per-fragment detection probability under H1, scaled by model
    # intensity (max-normalised): dominant ions are expected, weak
    # ions are optional.
    rel = model_int / model_int.max()
    p1 = np.clip(scorer.p_detect * rel, 1e-6, 0.999)
    matched = match_peaks(model_mz, np.ascontiguousarray(spectrum.mz), scorer.fragment_tolerance)
    llr_matched = np.log(p1 / p0)
    llr_unmatched = np.log((1.0 - p1) / (1.0 - p0))
    return np.where(matched, llr_matched, llr_unmatched)


def _likelihood(scorer, spectrum: Spectrum, candidate, site, delta) -> float:
    model_mz, model_int = theoretical_spectrum(candidate, mod_site=site, mod_delta=delta)
    if len(model_mz) == 0 or spectrum.num_peaks == 0:
        return -math.inf
    return float(fragment_llrs(scorer, spectrum, model_mz, model_int).sum())


def _hypergeometric(scorer, spectrum: Spectrum, candidate, site, delta) -> float:
    ladder = _ladder(candidate, site, delta)
    if spectrum.num_peaks == 0 or len(ladder) == 0:
        return -math.inf
    total_bins, occupied = scorer._bins(spectrum)
    draws = min(len(ladder), total_bins)
    matched = count_matches(ladder, np.ascontiguousarray(spectrum.mz), scorer.fragment_tolerance)
    matched = min(matched, draws, occupied)
    # P(X >= matched) with X ~ Hypergeom(M=total_bins, n=occupied, N=draws)
    tail = stats.hypergeom.sf(matched - 1, total_bins, occupied, draws)
    tail = max(float(tail), 1e-300)
    return -math.log10(tail)


_SCALAR = {
    "shared_peaks": _shared_peaks,
    "hyperscore": _hyperscore,
    "xcorr": _xcorr,
    "likelihood": _likelihood,
    "hypergeometric": _hypergeometric,
}


def score(scorer: Scorer, spectrum: Spectrum, candidate: np.ndarray) -> float:
    """``scorer``'s scalar score of an encoded, unmodified candidate."""
    return _SCALAR[scorer.name](scorer, spectrum, candidate, -1, 0.0)


def score_modified(
    scorer: Scorer, spectrum: Spectrum, candidate: np.ndarray, site: int, delta_mass: float
) -> float:
    """``scorer``'s scalar score of a candidate carrying a variable PTM of
    ``delta_mass`` at ``site``: every fragment containing it shifts."""
    return _SCALAR[scorer.name](scorer, spectrum, candidate, site, delta_mass)


def batch_scores(scorer: Scorer, spectrum: Spectrum, batch: CandidateBatch) -> np.ndarray:
    """Score a batch one evaluation row at a time; a PTM candidate keeps
    its best site (``CandidateBatch.reduce_rows``)."""
    if len(batch) == 0:
        return np.empty(0, dtype=np.float64)
    row_scores = np.empty(batch.num_rows, dtype=np.float64)
    for r in range(batch.num_rows):
        residues = batch.row_residues(r)
        site = int(batch.row_site[r])
        if site >= 0:
            row_scores[r] = score_modified(
                scorer, spectrum, residues, site, float(batch.row_delta[r])
            )
        else:
            row_scores[r] = score(scorer, spectrum, residues)
    return batch.reduce_rows(row_scores)


def scalar_block_scores(
    scorer: Scorer,
    spectra: SpectrumBatch,
    batch: CandidateBatch,
    selections: Sequence[np.ndarray],
) -> np.ndarray:
    """What ``block_scores`` must return: each member's sub-batch through
    :func:`batch_scores`, member-major."""
    parts = [
        batch_scores(scorer, spectra.spectra[k], batch.take(np.asarray(sel, dtype=np.int64)))
        for k, sel in enumerate(selections)
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


# -- the reference search ----------------------------------------------------


def reference_candidates(
    shard: ProteinDatabase, config: SearchConfig, spectrum: Spectrum
) -> CandidateSpans:
    """A query's candidates, enumerated from the definition.

    Every prefix and every proper suffix (a full-length span counts
    once, as a prefix) of each sequence, weighed with the documented
    formula — ``csum[stop] - csum[start] + WATER_MASS`` over the running
    residue-mass sum ``csum`` of the shard's flat buffer — and kept when
    the mass lies in ``[m - delta, m + delta]``.  Each variable
    modification adds a tier: the window shifted down by its
    ``delta_mass``, spans holding at least one of its target residue.
    """
    csum = np.concatenate(([0.0], np.cumsum(mass_table()[shard.residues])))
    m = spectrum.parent_mass
    lo, hi = m - config.delta, m + config.delta
    tiers = [(0.0, None)] + [
        (mod.delta_mass, ord(mod.target)) for mod in config.modifications if not mod.fixed
    ]
    parts = []
    for shift, target in tiers:
        for i in range(len(shard)):
            first, end = int(shard.offsets[i]), int(shard.offsets[i + 1])
            if end == first:
                continue
            k = np.arange(first, end)
            prefix = csum[k + 1] - csum[first] + WATER_MASS  # residues [first, k]
            suffix = csum[end] - csum[k] + WATER_MASS  # residues [k, end)
            start = np.concatenate((np.zeros(len(k), dtype=np.int64), k[1:] - first))
            stop = np.concatenate((k - first + 1, np.full(len(k) - 1, end - first)))
            mass = np.concatenate((prefix, suffix[1:]))
            keep = (mass >= lo - shift) & (mass <= hi - shift)
            if target is not None:  # holds a target residue: a count over the span
                flagged = np.concatenate(([0], np.cumsum(shard.residues[first:end] == target)))
                keep &= flagged[stop] - flagged[start] > 0
            parts.append(
                CandidateSpans(
                    np.full(int(keep.sum()), i, dtype=np.int64),
                    start[keep],
                    stop[keep],
                    mass[keep],
                    np.full(int(keep.sum()), shift),
                )
            )
    return CandidateSpans.concat(parts)


def reference_search(
    shard: ProteinDatabase,
    config: SearchConfig,
    queries: Iterable[Spectrum],
    hitlists: Optional[Dict[int, TopHitList]] = None,
) -> Dict[int, TopHitList]:
    """Search ``queries`` against ``shard`` the slow, obvious way.

    Returns the hit lists (``hitlists`` itself when given, so several
    shards can fold into one set).  A query's ``evaluated`` count is
    every candidate in its window — too short, below the cutoff or
    offered alike — so ``sum(h.evaluated)`` is the
    ``candidates_evaluated`` an engine must report.  ``sweep_cohort``
    is ignored and no fragment index is consulted: neither may change a
    result.
    """
    hitlists = {} if hitlists is None else hitlists
    scorer = config.make_scorer()
    mod_targets = {
        mod.delta_mass: ord(mod.target) for mod in config.modifications if not mod.fixed
    }
    for spectrum in queries:
        hitlist = hitlists.setdefault(spectrum.query_id, TopHitList(config.tau))
        spans = reference_candidates(shard, config, spectrum)
        long_enough = spans.lengths >= config.min_candidate_length
        hitlist.evaluated += len(spans) - int(long_enough.sum())
        spans = spans.take(long_enough)
        if len(spans) == 0:
            continue
        # best site per PTM candidate: reduce_rows inside batch_scores
        batch = CandidateBatch.from_spans(shard, spans, mod_targets)
        scores = batch_scores(scorer, spectrum, batch)
        if config.score_cutoff is not None:
            passing = scores >= config.score_cutoff
            hitlist.evaluated += len(scores) - int(passing.sum())
            spans = spans.take(passing)
            scores = scores[passing]
        hitlist.add_batch(
            spectrum.query_id,
            scores,
            shard.ids[spans.seq_index],
            spans.start,
            spans.stop,
            spans.mass,
            spans.mod_delta,
        )
    return hitlists


def assert_same_hitlists(
    reference: Dict[int, TopHitList], hitlists: Dict[int, TopHitList]
) -> None:
    """Same queries, bitwise-equal ranked hits, equal ``evaluated`` counts."""
    assert set(reference) == set(hitlists)
    for qid in reference:
        assert reference[qid].sorted_hits() == hitlists[qid].sorted_hits()
        assert reference[qid].evaluated == hitlists[qid].evaluated


def candidates_evaluated(hitlists: Dict[int, TopHitList]) -> int:
    """The ``candidates_evaluated`` total a set of hit lists implies."""
    return sum(h.evaluated for h in hitlists.values())


def assert_report_matches(reference: Dict[int, TopHitList], report) -> None:
    """A ``SearchReport`` carries exactly the reference's hits and total."""
    assert set(reference) == set(report.hits)
    for qid, hitlist in reference.items():
        assert hitlist.sorted_hits() == report.hits[qid]
    assert report.candidates_evaluated == candidates_evaluated(reference)


def top_tau(hits: Iterable[Hit], tau: int) -> List[Hit]:
    """What a running list of everything in ``hits`` must hold: the
    best tau under :meth:`Hit.sort_key`, best first."""
    return sorted(hits, key=Hit.sort_key)[:tau]


def offer_hits(hitlist: TopHitList, query_id: int, hits: Sequence[Hit]) -> int:
    """Offer ``hits`` to ``hitlist`` as one ``add_batch``."""
    return hitlist.add_batch(query_id, *as_hit_columns({query_id: hits})[2:])


def reference_tsv(report, database=None) -> str:
    """What ``write_tsv`` writes, one f-string per ``Hit``: the per-hit
    writer it replaced, kept as its oracle."""
    header = "query_id\trank\tscore\tprotein\tstart\tstop\tmass\tmod_delta"
    protein = None
    if database is not None:
        header += "\tpeptide"
        text = database.residues.tobytes().decode("ascii")
        bounds = database.offsets.tolist()
        protein = {
            pid: text[a:b] for pid, a, b in zip(database.ids.tolist(), bounds, bounds[1:])
        }
    lines = [header]
    for qid in sorted(report.hits):
        for rank, (_q, score, pid, start, stop, mass, mod) in enumerate(report.hits[qid], 1):
            row = f"{qid}\t{rank}\t{score:.6f}\t{pid}\t{start}\t{stop}\t{mass:.4f}\t{mod:.4f}"
            if protein is not None:
                row += "\t" + (protein[pid][start:stop] if pid in protein else "?")
            lines.append(row)
    return "\n".join(lines + [""])
