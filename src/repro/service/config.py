"""Service configuration: admission, batching, deadlines, supervision.

One frozen dataclass holds every knob of the long-lived search service,
validated at construction so a bad deployment fails at startup, not
under load.  The knobs fall into four groups mirroring the service's
responsibilities:

* **Admission / backpressure** — ``queue_limit`` bounds the admission
  queue; ``backpressure`` picks what happens at the bound (``"block"``
  waits up to ``admission_timeout`` seconds for space, ``"shed"``
  rejects immediately); both reject with a typed
  :class:`~repro.errors.ServiceOverloadedError` rather than queueing
  without bound or hanging the client.
* **Coalescing** — ``coalesce`` merges every queued request (up to
  ``max_batch_queries`` queries) into one mass-sorted sweep batch,
  reusing the candidate-major kernel's cohort sharing across requests;
  off, each request executes alone.
* **Deadlines** — ``default_deadline`` (seconds from admission) applies
  to requests that do not carry their own; ``chunk_queries`` sets the
  granularity at which batch execution checks deadlines, so a deadline
  costs at most one chunk of overrun.
* **Supervision** — ``retry`` (the PR 2 :class:`RetryPolicy`) governs
  batch-level retry with backoff before a batch is abandoned;
  ``max_worker_restarts`` and ``workers`` bound how often a dead scorer
  is rebuilt; ``drain_timeout`` bounds how long shutdown waits for
  in-flight work.

``workers`` is crash tolerance, not a thread count: the service has one
scorer thread (see the service module), rebuilt in place when it dies.
It survives ``workers - 1 + max_worker_restarts`` scorer deaths — what
a pool of ``workers`` threads with that restart budget survived — and
reports ``degraded`` once more than ``max_worker_restarts`` happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faults.supervisor import RetryPolicy

#: admission-queue overflow policies
BACKPRESSURE_POLICIES = ("block", "shed")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the search service needs besides the search itself."""

    workers: int = 2
    queue_limit: int = 64
    backpressure: str = "block"
    admission_timeout: float = 5.0
    default_deadline: float = 0.0  # 0 = no deadline
    coalesce: bool = True
    max_batch_queries: int = 256
    chunk_queries: int = 32
    max_worker_restarts: int = 2
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.admission_timeout < 0:
            raise ConfigError(
                f"admission_timeout must be >= 0, got {self.admission_timeout}"
            )
        if self.default_deadline < 0:
            raise ConfigError(
                f"default_deadline must be >= 0, got {self.default_deadline}"
            )
        if self.max_batch_queries < 1:
            raise ConfigError(
                f"max_batch_queries must be >= 1, got {self.max_batch_queries}"
            )
        if self.chunk_queries < 1:
            raise ConfigError(f"chunk_queries must be >= 1, got {self.chunk_queries}")
        if self.max_worker_restarts < 0:
            raise ConfigError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        if self.drain_timeout < 0:
            raise ConfigError(f"drain_timeout must be >= 0, got {self.drain_timeout}")
