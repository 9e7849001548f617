"""Candidate enumeration for queries against a database shard.

Wraps :class:`~repro.candidates.mass_index.MassIndex` with the paper's
candidate rule — spans whose m/z lies within ``m(q) +/- delta`` — plus
optional variable-PTM expansion, which the paper singles out as the
factor that "further exacerbates" candidate explosion (Section I).

PTM model: for each configured variable modification, a span containing
at least one target residue may additionally be matched at
``mass + delta_mass`` (single occurrence).  That adds one extra window
search per modification — the same row table, the window shifted by
``delta_mass``, then this presence filter — and multiplies candidate
counts accordingly, the qualitative behaviour Figure 1b's discussion
relies on, without the full combinatorial enumeration real engines
implement.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.candidates.mass_index import CandidateSpans, MassIndex
from repro.chem.amino_acids import Modification
from repro.chem.protein import ProteinDatabase
from repro.spectra.spectrum import Spectrum

#: one PTM tier: the modification and the cumulative count of its target
#: residue over the shard's flat buffer (length ``N + 1``)
ModTier = Tuple[Modification, np.ndarray]


def mass_window(spectrum: Spectrum, delta: float) -> Tuple[float, float]:
    """Neutral-mass window ``[m(q) - delta, m(q) + delta]`` for a query.

    The paper phrases the tolerance on m/z; at charge 1 (our canonical
    key space) the two are offset by one proton, so applying delta to the
    neutral parent mass is equivalent.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    m = spectrum.parent_mass
    return m - delta, m + delta


def heaviest_parent_mass(queries: Iterable[Spectrum]) -> float:
    """The heaviest parent mass among ``queries`` (``-inf`` for none): what
    a searcher that knows its queries builds its row table for."""
    return max((q.parent_mass for q in queries), default=-np.inf)


def table_reach(
    max_parent_mass: float, delta: float, modifications: Sequence[Modification]
) -> float:
    """The heaviest mass any window of a query of at most
    ``max_parent_mass`` asks about: its window's top, raised by the most
    negative shift among the PTM tiers' ``modifications``.  Computed as
    the windows are (``m + delta``, then ``- delta_mass``), so the
    heaviest window equals it bitwise."""
    lightest = min([0.0] + [mod.delta_mass for mod in modifications])
    return (max_parent_mass + delta) - lightest


def modification_tiers(
    shard: ProteinDatabase, modifications: Sequence[Modification]
) -> List[ModTier]:
    """The PTM tiers of ``modifications`` over ``shard`` (fixed ones are
    not tiers), in configuration order."""
    return [
        (mod, np.concatenate(([0], np.cumsum(shard.residues == ord(mod.target)))))
        for mod in modifications
        if not mod.fixed
    ]


def mod_targets(tiers: Sequence[ModTier]) -> Dict[float, int]:
    """Each tier's delta -> its target residue code: how a scoring batch
    expands a modified candidate into one row per site."""
    return {mod.delta_mass: ord(mod.target) for mod, _csum in tiers}


def contains_target(
    spans: CandidateSpans, offsets: np.ndarray, target_csum: np.ndarray
) -> np.ndarray:
    """Which ``spans`` hold at least one of a tier's target residues."""
    first = offsets[spans.seq_index]
    return (target_csum[first + spans.stop] - target_csum[first + spans.start]) > 0


class CandidateGenerator:
    """Enumerates (and counts) candidates for queries against one shard.

    ``max_parent_mass`` bounds the queries it will be asked about: the
    shard's row table is built up to their heaviest window
    (:func:`table_reach`), and a heavier query is refused with
    :class:`~repro.errors.ConfigError`.  The default, ``inf``, builds
    the full table (queries not known in advance).
    """

    def __init__(
        self,
        shard: ProteinDatabase,
        delta: float = 3.0,
        modifications: Sequence[Modification] = (),
        max_parent_mass: float = np.inf,
    ):
        self.shard = shard
        self.delta = delta
        self.tiers = modification_tiers(shard, modifications)
        self.modifications = tuple(mod for mod, _csum in self.tiers)
        self.max_parent_mass = max_parent_mass
        self.index = MassIndex.for_shard(
            shard, table_reach(max_parent_mass, delta, self.modifications)
        )
        # per length floor, running counts over the table: of the rows at
        # least that long (None at a floor every row passes) and, per tier,
        # of those holding its target residue — a window's count is two
        # lookups (built on first count)
        self._running: Dict[int, Tuple[Optional[np.ndarray], List[np.ndarray]]] = {}

    @property
    def nbytes(self) -> int:
        """Index memory, charged to the owning rank by the simulator."""
        total = self.index.nbytes + sum(csum.nbytes for _mod, csum in self.tiers)
        for rows, tier_rows in self._running.values():
            total += sum(c.nbytes for c in tier_rows) + (0 if rows is None else rows.nbytes)
        return total

    def candidates(self, spectrum: Spectrum) -> CandidateSpans:
        """All candidates for one query, unmodified first, then per-PTM.

        Order is deterministic: (mod tier, mass rank within tier), which
        keeps parallel runs bitwise-reproducible.
        """
        lo, hi = mass_window(spectrum, self.delta)
        parts = [self.index.candidates_in_window(lo, hi)]
        for mod, target_csum in self.tiers:
            spans = self.index.candidates_in_window(lo - mod.delta_mass, hi - mod.delta_mass)
            spans = spans.take(contains_target(spans, self.shard.offsets, target_csum))
            parts.append(replace(spans, mod_delta=np.full(len(spans), mod.delta_mass)))
        return CandidateSpans.concat(parts)

    def count_many(self, parent_masses: np.ndarray, min_length: int = 1) -> np.ndarray:
        """Exact candidate counts, PTM tiers included, without decoding a
        row per query: two binary searches per tier.  With ``min_length``
        only candidates of at least that many residues count: what a pass
        keeps past ``SearchConfig.min_candidate_length``."""
        parent_masses = np.asarray(parent_masses, dtype=np.float64)
        lows = parent_masses - self.delta
        highs = parent_masses + self.delta
        rows, tier_rows = self._running_counts(min_length)
        if rows is None:
            counts = self.index.count_many(lows, highs)
        else:
            lo, hi = self.index.windows_many(lows, highs)
            counts = rows[np.maximum(hi, lo)] - rows[lo]
        for (mod, _csum), running in zip(self.tiers, tier_rows):
            lo, hi = self.index.windows_many(lows - mod.delta_mass, highs - mod.delta_mass)
            counts += running[np.maximum(hi, lo)] - running[lo]
        return counts

    def _running_counts(self, min_length: int) -> Tuple[Optional[np.ndarray], List[np.ndarray]]:
        """The running counts :meth:`count_many` looks windows up in, for
        a length floor of ``min_length`` (built on first use)."""
        cached = self._running.get(min_length)
        if cached is None:
            if min_length <= 1 and not self.tiers:
                cached = (None, [])  # every row is at least one residue long
            else:
                every = self.index.spans(np.arange(len(self.index)))
                long_enough = every.lengths >= min_length
                offsets = self.shard.offsets
                cached = (
                    None if min_length <= 1 else _running_count(long_enough),
                    [
                        _running_count(long_enough & contains_target(every, offsets, csum))
                        for _mod, csum in self.tiers
                    ],
                )
            self._running[min_length] = cached
        return cached


def _running_count(mask: np.ndarray) -> np.ndarray:
    """How many of ``mask``'s first ``i`` entries are set, for every ``i``."""
    return np.concatenate(([0], np.cumsum(mask)))
