"""The scalar reference search every engine path is compared against.

One query at a time, one candidate at a time: the paper's serial loop
written out with the scorers' scalar ``score`` / ``score_modified``.  It
enumerates candidates from their definition (:func:`reference_candidates`:
every prefix and proper suffix of every sequence, not the row table the
engines sweep), scores through
:func:`~repro.scoring.base.batch_scores` (not a pair kernel, a
posting probe or a cached matrix) and offers through
:meth:`TopHitList.add_batch` (not the block emit), so it shares no
vectorised scoring, filtering or emit code with
``ShardSearcher.run`` / ``StreamingSearcher.run``.  Keep inputs small:
the scalar likelihood model is about ten times slower than its kernel.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.candidates.batch import CandidateBatch
from repro.candidates.mass_index import CandidateSpans
from repro.chem.amino_acids import mass_table
from repro.chem.protein import ProteinDatabase
from repro.constants import WATER_MASS
from repro.core.config import SearchConfig
from repro.scoring.base import batch_scores
from repro.scoring.hits import Hit, TopHitList, as_hit_columns
from repro.spectra.spectrum import Spectrum


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
    library=None,
) -> Dict[int, TopHitList]:
    """Search ``queries`` against ``shard`` the slow, obvious way.

    Returns the hit lists (``hitlists`` itself when given, so several
    shards can fold into one set).  A query's ``evaluated`` count is
    every candidate in its window — too short, below the cutoff or
    offered alike — so ``sum(h.evaluated)`` is the
    ``candidates_evaluated`` an engine must report.  ``sweep_cohort``
    is ignored and no fragment index is consulted: neither may change a
    result.  ``library`` backs the likelihood model's lookups.
    """
    hitlists = {} if hitlists is None else hitlists
    scorer = config.make_scorer(library)
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
