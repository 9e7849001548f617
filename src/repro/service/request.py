"""Request/response types for the long-lived search service.

A client submits spectra and gets back a :class:`RequestHandle`
immediately; the terminal :class:`SearchResponse` arrives through
:meth:`RequestHandle.result` once the service finishes (or abandons)
the request.  Every admitted request reaches exactly one terminal
status:

* ``"ok"`` — every query completed; ``hits`` holds the full answer.
* ``"partial"`` — the deadline expired mid-execution; queries that
  completed before the cut keep their (bitwise-deterministic) hits,
  ``missing_query_ids`` names the rest.
* ``"expired"`` — the deadline expired before any query completed.
* ``"failed"`` — execution was abandoned (batch retry budget exhausted,
  or the scorer died with no restart budget left); ``error`` says why.

Completed hits are *final* regardless of status: a query listed in
``completed_query_ids`` scored against every shard, so its hit list is
bitwise identical to what a fault-free, deadline-free run would return.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import DeadlineExceededError, ServiceBatchError, ServiceError
from repro.scoring.hits import Hit
from repro.spectra.spectrum import Spectrum

#: the terminal statuses a response can carry
RESPONSE_STATUSES = ("ok", "partial", "expired", "failed")


@dataclass(frozen=True)
class SearchResponse:
    """Terminal outcome of one admitted request."""

    request_id: int
    status: str
    hits: Dict[int, List[Hit]]
    completed_query_ids: Tuple[int, ...]
    missing_query_ids: Tuple[int, ...] = ()
    error: str = ""
    latency_s: float = 0.0
    queue_wait_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> "SearchResponse":
        """Raise the typed error matching a non-``ok`` status.

        ``partial``/``expired`` raise
        :class:`~repro.errors.DeadlineExceededError` (completed hits
        remain available on the response), ``failed`` raises
        :class:`~repro.errors.ServiceBatchError`.  Returns ``self`` on
        ``ok`` so calls chain.
        """
        if self.status in ("partial", "expired"):
            raise DeadlineExceededError(self.error or "deadline exceeded")
        if self.status == "failed":
            raise ServiceBatchError(self.error or "request failed")
        return self


@dataclass
class RequestHandle:
    """Client-side handle to one admitted request.

    Internal fields are mutated only by the service under its lock; a
    client touches :attr:`request_id` and :meth:`result` / :meth:`done`.
    """

    request_id: int
    queries: Tuple[Spectrum, ...]
    client: str = ""
    deadline_ts: Optional[float] = None  # monotonic-clock absolute deadline
    submitted_ts: float = 0.0  # monotonic, on entry to submit(): counts a blocked wait
    started_ts: Optional[float] = None  # monotonic, set at batch formation

    # -- service-owned state ----------------------------------------------
    expired: bool = False
    failure: str = ""
    _inflight: bool = False
    hits: Dict[int, List[Hit]] = field(default_factory=dict)
    completed: List[int] = field(default_factory=list)
    response: Optional[SearchResponse] = None
    _event: threading.Event = field(default_factory=threading.Event, repr=False)

    def done(self) -> bool:
        """True once a terminal :class:`SearchResponse` is available."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> SearchResponse:
        """Block until the terminal response (or ``timeout`` seconds).

        Raises :class:`ServiceError` on timeout — an admitted request
        always terminates (the service's drain/failure paths guarantee
        it), so a timeout here means the caller chose one shorter than
        the request's lifetime, not that the service hung.
        """
        if not self._event.wait(timeout):
            raise ServiceError(
                f"request {self.request_id} did not complete within {timeout} s"
            )
        assert self.response is not None
        return self.response
