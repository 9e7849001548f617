"""Seeded synthetic protein database generator.

Stands in for the paper's NCBI GenBank downloads (offline substitution;
see DESIGN.md).  What the search pipeline is sensitive to is matched to
the real data:

* amino-acid composition follows natural frequencies, so tryptic site
  density (~K/R frequency), span-mass density (which sets candidate
  counts per Da of tolerance) and parent-m/z distribution are realistic;
* sequence lengths are log-normal around the paper's Table I means
  (301.66 residues for the human set, 314.44 for microbial);
* generation is vectorized and streamed in blocks so million-sequence
  databases build in seconds, and sequence ``k`` is identical regardless
  of the total requested — so the paper's nested subsets (1K c 2K c 4K
  ... c 2.65M) are literally prefixes of one deterministic stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.protein import ProteinDatabase
from repro.constants import AMINO_ACIDS, NATURAL_FREQUENCY
from repro.utils.rng import make_rng

_AA_CODES = np.frombuffer(AMINO_ACIDS.encode("ascii"), dtype=np.uint8)
_AA_PROBS = np.array([NATURAL_FREQUENCY[a] for a in AMINO_ACIDS])
_AA_CUM = np.cumsum(_AA_PROBS)
_AA_CUM[-1] = 1.0  # guard against floating-point undershoot


def _sample_residues(rng: np.random.Generator, length: int) -> np.ndarray:
    """Draw ``length`` residues from the natural composition, vectorized.

    Inverse-CDF sampling via searchsorted is ~10x faster than
    ``Generator.choice`` with probabilities for the many small draws the
    database builder makes.
    """
    return _AA_CODES[np.searchsorted(_AA_CUM, rng.random(length), side="right")]


@dataclass(frozen=True)
class SyntheticProteinGenerator:
    """Deterministic generator of natural-composition protein sequences.

    Attributes:
        seed: master seed; with the same seed, ``database(n)`` returns a
            prefix-consistent database for every n.
        mean_length: target mean sequence length (residues).
        sigma: sigma of the log-normal length distribution.
        min_length: lengths are clipped below at this value.
    """

    seed: int = 0
    mean_length: float = 314.44
    sigma: float = 0.45
    min_length: int = 30

    def __post_init__(self) -> None:
        if self.mean_length <= self.min_length:
            raise ValueError("mean_length must exceed min_length")
        if not 0 < self.sigma < 2:
            raise ValueError(f"sigma must be in (0, 2), got {self.sigma}")

    def lengths(self, start: int, stop: int) -> np.ndarray:
        """Sequence lengths for indices [start, stop), order-independent.

        Log-normal with mean ``mean_length``: mu = ln(mean) - sigma^2/2.
        Each index draws from its own derived stream, so subsets agree.
        Drawn in one vectorized batch keyed by block, for speed, with
        blocks aligned to absolute indices (block size 8192).
        """
        if not 0 <= start <= stop:
            raise ValueError(f"invalid index range [{start}, {stop})")
        mu = np.log(self.mean_length) - 0.5 * self.sigma**2
        out = np.empty(stop - start, dtype=np.int64)
        block = 8192
        first_block, last_block = start // block, (stop - 1) // block if stop > start else start // block
        for b in range(first_block, last_block + 1):
            rng = make_rng(self.seed, "lengths", b)
            vals = np.maximum(
                np.rint(rng.lognormal(mu, self.sigma, block)).astype(np.int64),
                self.min_length,
            )
            lo = max(start, b * block)
            hi = min(stop, (b + 1) * block)
            out[lo - start : hi - start] = vals[lo - b * block : hi - b * block]
        return out

    def sequence(self, index: int) -> np.ndarray:
        """Encoded residues of sequence ``index`` (deterministic)."""
        length = int(self.lengths(index, index + 1)[0])
        rng = make_rng(self.seed, "residues", index)
        return _sample_residues(rng, length)

    def database(self, n: int, name_prefix: str = "syn") -> ProteinDatabase:
        """Build the first ``n`` sequences as a :class:`ProteinDatabase`."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n == 0:
            return ProteinDatabase.empty()
        lengths = self.lengths(0, n)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        residues = np.empty(int(offsets[-1]), dtype=np.uint8)
        for i in range(n):
            rng = make_rng(self.seed, "residues", i)
            residues[offsets[i] : offsets[i + 1]] = _sample_residues(rng, int(lengths[i]))
        names = [f"{name_prefix}{i:07d}" for i in range(n)]
        return ProteinDatabase(residues, offsets, names=names)


def generate_database(
    n: int, seed: int = 0, mean_length: float = 314.44, name_prefix: str = "syn"
) -> ProteinDatabase:
    """Convenience wrapper: ``SyntheticProteinGenerator(...).database(n)``."""
    return SyntheticProteinGenerator(seed=seed, mean_length=mean_length).database(
        n, name_prefix
    )


#: Named scale tiers over the paper's Table I microbial size grid
#: ("arbitrary subsets of sizes 1K, 2K, 4K, ... up to 2.65 million").
#: Because sequence ``k`` is identical regardless of the total
#: requested, every tier's databases are literal prefixes of the next
#: tier's — and of the full 2,655,064-sequence Table I set — so scaling
#: experiments across tiers measure size, never content drift.  "full"
#: is the paper's grid at full size; out-of-core runs (the partitioned
#: store) are what make its top end searchable without holding the
#: fragment index resident.
SCALE_TIERS = {
    "smoke": (1_000, 2_000),
    "small": (1_000, 2_000, 4_000, 8_000),
    "medium": (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000),
    "large": (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000,
              100_000, 200_000, 400_000, 800_000),
    "full": (1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000,
             100_000, 200_000, 400_000, 800_000, 1_000_000, 2_000_000,
             2_655_064),
}


def tier_database(n: int) -> ProteinDatabase:
    """The first ``n`` sequences of the Table I microbial stand-in.

    Prefix-consistent across every ``n`` (and identical to
    ``load_dataset("microbial", n=n)``), so all tier sizes share their
    common prefix byte-for-byte.
    """
    from repro.workloads.datasets import MICROBIAL  # deferred: datasets imports us

    return MICROBIAL.build(n=n)
