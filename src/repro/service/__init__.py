"""Long-lived, resilient search service over the persisted index.

The batch CLI answers one job and exits; this package keeps the index
resident and answers *traffic*: many concurrent clients, coalesced
across requests into the candidate-major sweep kernel's mass-sorted
cohorts, under admission control, per-request deadlines, and a
supervisor that rebuilds a dead scorer and degrades gracefully instead
of melting.

* :mod:`repro.service.service` — :class:`SearchService`: submit /
  search / health / stats / drain-on-stop.
* :mod:`repro.service.config` — :class:`ServiceConfig`: admission,
  backpressure, coalescing, deadline, and supervision knobs.
* :mod:`repro.service.request` — :class:`RequestHandle` /
  :class:`SearchResponse` with the four terminal statuses.
* :mod:`repro.service.storm` — deterministic multi-client load driver
  (the ``service-soak`` CI scenario and ``repro serve``).

See ``docs/service.md`` for lifecycle, backpressure policies, deadline
semantics, health probes, and the fault matrix.
"""

from repro.service.config import BACKPRESSURE_POLICIES, ServiceConfig
from repro.service.request import RESPONSE_STATUSES, RequestHandle, SearchResponse
from repro.service.service import SearchService
from repro.service.storm import StormOutcome, StormResult, run_storm, storm_queries

__all__ = [
    "BACKPRESSURE_POLICIES",
    "RESPONSE_STATUSES",
    "RequestHandle",
    "SearchResponse",
    "SearchService",
    "ServiceConfig",
    "StormOutcome",
    "StormResult",
    "run_storm",
    "storm_queries",
]
