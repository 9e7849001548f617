"""PeptideIdentifier: the session-style user-facing API.

`run_search` is a one-shot function; real pipelines identify *streams*
of spectra against one database — instrument runs arrive in batches, and
rebuilding the mass index per batch would dominate.  The identifier
owns the database, its mass index, the scorer, and an optional spectral
library, amortizing construction across any number of `identify` calls:

    engine = PeptideIdentifier(database, SearchConfig(tau=10))
    for batch in instrument:
        for match in engine.identify(batch):
            ...

Execution modes:

* ``"serial"`` — in-process, mass index built once (default);
* ``"multiprocess"`` — real OS processes via
  :mod:`repro.engines.multiproc` (per-call overhead, true parallelism).

Output is identical across modes (the validation property), and results
carry optional e-values when enough candidates were scored to fit a
null (see :mod:`repro.scoring.evalue`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.chem.protein import ProteinDatabase
from repro.core.config import ExecutionMode, SearchConfig
from repro.core.search import ShardSearcher
from repro.errors import ConfigError
from repro.scoring.evalue import fit_survival
from repro.scoring.hits import Hit, HitTable, pack_hit_columns
from repro.spectra.library import SpectralLibrary
from repro.spectra.spectrum import Spectrum


@dataclass(frozen=True)
class Identification:
    """Per-query identification result."""

    query_id: int
    hits: List[Hit]
    candidates_evaluated: int
    expect: Optional[float]  #: e-value of the top hit, when estimable

    @property
    def top_hit(self) -> Optional[Hit]:
        return self.hits[0] if self.hits else None


class PeptideIdentifier:
    """A reusable search session over one database."""

    def __init__(
        self,
        database: ProteinDatabase,
        config: Optional[SearchConfig] = None,
        library: Optional[SpectralLibrary] = None,
        mode: str = "serial",
        num_workers: Optional[int] = None,
    ):
        config = config or SearchConfig()
        if config.execution is not ExecutionMode.REAL:
            raise ConfigError("PeptideIdentifier requires REAL execution (it returns hits)")
        if mode not in ("serial", "multiprocess"):
            raise ConfigError(f"unknown mode {mode!r}; expected serial|multiprocess")
        self.database = database
        self.config = config
        self.library = library
        self.mode = mode
        self.num_workers = num_workers
        self._searcher = (
            ShardSearcher(database, config, library=library) if mode == "serial" else None
        )
        self.total_candidates = 0
        self.total_queries = 0

    # -- core ------------------------------------------------------------

    def identify(self, spectra: Sequence[Spectrum]) -> List[Identification]:
        """Identify a batch of spectra; order follows the input."""
        if self.mode == "serial":
            hitmap, per_query_counts = self._identify_serial(spectra)
        else:
            hitmap, per_query_counts = self._identify_multiprocess(spectra)
        out: List[Identification] = []
        for spectrum in spectra:
            hits = hitmap.get(spectrum.query_id, [])
            count = per_query_counts.get(spectrum.query_id, 0)
            out.append(
                Identification(
                    query_id=spectrum.query_id,
                    hits=hits,
                    candidates_evaluated=count,
                    expect=self._expect_of(hits),
                )
            )
        self.total_queries += len(spectra)
        return out

    def identify_one(self, spectrum: Spectrum) -> Identification:
        return self.identify([spectrum])[0]

    def stream(self, spectra: Sequence[Spectrum], batch_size: int = 64) -> Iterator[Identification]:
        """Generator over identifications, processing in bounded batches."""
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        for start in range(0, len(spectra), batch_size):
            yield from self.identify(spectra[start : start + batch_size])

    # -- internals ---------------------------------------------------------

    def _identify_serial(self, spectra):
        assert self._searcher is not None
        hitlists = {}
        stats = self._searcher.run(spectra, hitlists)
        self.total_candidates += stats.candidates_evaluated
        hitmap = HitTable(pack_hit_columns(hitlists, hitlists))
        counts = {qid: hl.evaluated for qid, hl in hitlists.items()}
        return hitmap, counts

    def _identify_multiprocess(self, spectra):
        from repro.engines.multiproc import run_multiprocess_search

        report = run_multiprocess_search(
            self.database, spectra, num_workers=self.num_workers, config=self.config
        )
        self.total_candidates += report.candidates_evaluated
        # per-query counts are not split out by the pool; attribute evenly
        counts = {
            q.query_id: report.candidates_evaluated // max(len(spectra), 1) for q in spectra
        }
        return report.hits, counts

    def _expect_of(self, hits: List[Hit]) -> Optional[float]:
        if len(hits) < 2:
            return None
        try:
            fit = fit_survival([h.score for h in hits[1:]])
        except ValueError:
            return None
        return fit.expect(hits[0].score)

    # -- bookkeeping --------------------------------------------------------

    @property
    def index_bytes(self) -> int:
        """Real memory held by the session's index (serial mode)."""
        return self._searcher.nbytes if self._searcher is not None else 0

    def __repr__(self) -> str:
        return (
            f"PeptideIdentifier(n={len(self.database)}, mode={self.mode!r}, "
            f"scorer={self.config.scorer!r}, queries={self.total_queries})"
        )
