"""Candidate enumeration for queries against a database shard.

Wraps :class:`~repro.candidates.mass_index.MassIndex` with the paper's
candidate rule — spans whose m/z lies within ``m(q) +/- delta`` — plus
optional variable-PTM expansion, which the paper singles out as the
factor that "further exacerbates" candidate explosion (Section I).

PTM model: for each configured variable modification, a span containing
at least one target residue may additionally be matched at
``mass + delta_mass`` (single occurrence).  That adds one extra window
search per modification and multiplies candidate counts accordingly —
the qualitative behaviour Figure 1b's discussion relies on — without the
full combinatorial enumeration real engines implement.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Tuple

import numpy as np

from repro.candidates.mass_index import CandidateSpans, MassIndex
from repro.chem.amino_acids import Modification
from repro.chem.protein import ProteinDatabase
from repro.spectra.spectrum import Spectrum


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


class CandidateGenerator:
    """Enumerates (and counts) candidates for queries against one shard."""

    def __init__(
        self,
        shard: ProteinDatabase,
        delta: float = 3.0,
        modifications: Sequence[Modification] = (),
    ):
        self.shard = shard
        self.delta = delta
        self.modifications = tuple(m for m in modifications if not m.fixed)
        self.index = MassIndex.for_shard(shard)
        # Per-sequence presence cumsums for each variable-mod target, so
        # "span contains >= 1 target residue" is O(1) per candidate, plus
        # a window counter per mod so PTM tiers are counted in O(log N)
        # without enumerating spans.
        self._target_csums = {}
        self._mod_counters = {}
        for mod in self.modifications:
            is_target = (shard.residues == ord(mod.target)).astype(np.int64)
            csum = np.concatenate(([0], np.cumsum(is_target)))
            self._target_csums[mod.name] = csum
            self._mod_counters[mod.name] = self.index.presence_counter(csum)

    @property
    def nbytes(self) -> int:
        """Index memory, charged to the owning rank by the simulator."""
        total = self.index.nbytes
        for csum in self._target_csums.values():
            total += csum.nbytes
        for counter in self._mod_counters.values():
            total += counter.nbytes
        return total

    def presence_mask(self, spans: CandidateSpans, mod: Modification) -> np.ndarray:
        """Boolean mask: spans containing >= 1 of ``mod``'s target residue."""
        offsets = self.shard.offsets
        abs_start = offsets[spans.seq_index] + spans.start
        abs_stop = offsets[spans.seq_index] + spans.stop
        csum = self._target_csums[mod.name]
        return (csum[abs_stop] - csum[abs_start]) > 0

    def _filter_modified(self, spans: CandidateSpans, mod: Modification) -> CandidateSpans:
        """Keep spans containing >= 1 target residue; stamp the mod delta."""
        if len(spans) == 0:
            return spans
        kept = spans.take(self.presence_mask(spans, mod))
        return replace(kept, mod_delta=np.full(len(kept), mod.delta_mass))

    def candidates(self, spectrum: Spectrum) -> CandidateSpans:
        """All candidates for one query, unmodified first, then per-PTM.

        Order is deterministic: (mod tier, mass rank within tier), which
        keeps parallel runs bitwise-reproducible.
        """
        lo, hi = mass_window(spectrum, self.delta)
        parts = [self.index.candidates_in_window(lo, hi)]
        for mod in self.modifications:
            shifted = self.index.candidates_in_window(lo - mod.delta_mass, hi - mod.delta_mass)
            parts.append(self._filter_modified(shifted, mod))
        return CandidateSpans.concat(parts)

    def count(self, spectrum: Spectrum) -> int:
        """Candidate count for one query without materialising spans.

        Exact for every tier: the unmodified tier is two binary searches,
        and each PTM tier is counted through its per-mod target-presence
        cumsums (:class:`~repro.candidates.mass_index.PresenceCounter`),
        so no spans are ever enumerated.
        """
        lo, hi = mass_window(spectrum, self.delta)
        total = self.index.count_in_window(lo, hi)
        for mod in self.modifications:
            total += self._mod_counters[mod.name].count_in_window(
                lo - mod.delta_mass, hi - mod.delta_mass
            )
        return total

    def count_unmodified_many(self, parent_masses: np.ndarray) -> np.ndarray:
        """Vectorized unmodified candidate counts for many parent masses."""
        parent_masses = np.asarray(parent_masses, dtype=np.float64)
        return self.index.count_many(parent_masses - self.delta, parent_masses + self.delta)

    def extract(self, spans: CandidateSpans, i: int) -> np.ndarray:
        """Encoded residues of candidate ``i`` (zero-copy view into the shard)."""
        seq = self.shard.sequence(int(spans.seq_index[i]))
        return seq[int(spans.start[i]) : int(spans.stop[i])]


def count_candidates(
    database: ProteinDatabase,
    spectra: Sequence[Spectrum],
    delta: float = 3.0,
    modifications: Sequence[Modification] = (),
) -> np.ndarray:
    """Candidate counts per query against a whole database (convenience).

    With no variable modifications configured the counts are computed in
    one vectorized :meth:`CandidateGenerator.count_unmodified_many` call
    (two batched binary searches) instead of a per-spectrum Python loop.
    """
    gen = CandidateGenerator(database, delta, modifications)
    if not gen.modifications:
        if not spectra:
            return np.empty(0, dtype=np.int64)
        masses = np.array([s.parent_mass for s in spectra], dtype=np.float64)
        return gen.count_unmodified_many(masses).astype(np.int64)
    return np.array([gen.count(s) for s in spectra], dtype=np.int64)
