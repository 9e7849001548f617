"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers
can catch one base class.  The memory-related errors exist because a core
claim of the paper is *space optimality*: the replicated-database baseline
must fail (out of memory) on inputs the distributed algorithms handle, and
we surface that as a typed exception rather than a crash.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class InvalidSequenceError(ReproError, ValueError):
    """A protein/peptide string contains characters outside the residue alphabet."""


class SpectrumError(ReproError, ValueError):
    """A spectrum is malformed (unsorted m/z, negative intensity, ...)."""


class ConfigError(ReproError, ValueError):
    """A search or machine configuration is inconsistent."""


class OutOfMemoryError(ReproError, MemoryError):
    """A simulated rank exceeded its memory budget.

    Raised by :class:`repro.simmpi.memory.MemoryTracker` when an
    allocation would push a rank past its configured RAM cap (the paper
    uses 1 GB per MPI process).  This is how the O(N)-space baseline
    "crashes out of memory" in our reproduction of the paper's Section I
    observation.
    """

    def __init__(self, rank: int, requested: int, in_use: int, limit: int):
        self.rank = rank
        self.requested = requested
        self.in_use = in_use
        self.limit = limit
        super().__init__(
            f"rank {rank}: allocation of {requested} B would exceed memory "
            f"limit ({in_use} B in use of {limit} B)"
        )


class CommunicationError(ReproError, RuntimeError):
    """Invalid use of the simulated communication API (bad rank, unposted window, ...)."""


class DeadlockError(ReproError, RuntimeError):
    """The simulated machine made no progress while ranks were still blocked."""


class FastaError(ReproError, ValueError):
    """A FASTA file or byte range is malformed (content before the first
    header, an invalid chunk range, ...).  Subclasses ValueError so
    pre-existing callers that caught ValueError keep working."""


class FaultPlanError(ReproError, ValueError):
    """A fault plan is inconsistent (negative times, out-of-range ranks,
    non-physical degradation factors) or could not be parsed."""


class RankFailedError(ReproError, RuntimeError):
    """A simulated rank crashed (fail-stop) and a peer touched it.

    Raised inside surviving rank programs when they issue a one-sided
    Get against a dead peer's window — the simulated analogue of an MPI
    implementation reporting ``MPI_ERR_PROC_FAILED`` (ULFM).  Recovery-
    aware programs catch it and re-fetch the lost shard from a surviving
    holder; everything else aborts, as stock MPI would.
    """

    def __init__(self, rank: int, message: str = ""):
        self.rank = rank
        super().__init__(message or f"rank {rank} has failed")


class WorkerCrashError(ReproError, RuntimeError):
    """An injected crash inside a multiprocessing worker task.

    Only ever raised by the opt-in fault injector
    (:class:`repro.faults.injector.FaultInjector`); the supervised
    engine treats it like any other task failure: retry with backoff,
    then quarantine.
    """


class CheckpointError(ReproError, ValueError):
    """A checkpoint file is unreadable or belongs to a different run
    (mismatched shard count, search parameters, or query workload)."""


class IndexStoreError(ReproError, ValueError):
    """A persisted fragment-index directory cannot be trusted.

    Raised by :mod:`repro.store` when an index directory is missing, its
    header is unreadable or carries an unknown schema version, a buffer
    is truncated or disagrees with the manifest, or the content
    fingerprint does not match the database/configuration the caller is
    searching.  A stale or corrupt index must be *rejected*, never
    silently served: the build-once/load-many contract only holds if a
    loaded index is bitwise-equivalent to an in-process rebuild.
    """


class RowKeyOverflowError(ReproError, OverflowError):
    """A database of 2^31 residues or more, whose row table's int32 keys
    cannot address it, or a row table of 2^31 rows or more, whose
    postings' int32 row ids cannot.  Raised before anything is
    allocated."""


class ServiceError(ReproError, RuntimeError):
    """Base class for long-lived search-service failures.

    Everything the service refuses or abandons is reported through a
    subclass of this type, never a bare RuntimeError or a hang: clients
    of :class:`repro.service.SearchService` can always distinguish
    *rejected* (admission control said no), *expired* (the request's
    deadline passed) and *failed* (execution was abandoned after
    retries) outcomes programmatically.
    """


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request because the queue is full.

    Raised immediately under the ``shed`` backpressure policy, or after
    ``admission_timeout`` seconds under the ``block`` policy.  This is
    the typed alternative to melting: an overloaded service answers
    "try again later" in bounded time instead of queueing without bound
    or hanging the client.
    """


class ServiceUnavailableError(ServiceError):
    """The service cannot admit requests right now.

    Raised when submitting before :meth:`~repro.service.SearchService.start`,
    during drain (shutdown completes in-flight work but admits nothing
    new), after :meth:`~repro.service.SearchService.stop`, or once the
    scorer has died with no restart budget left.
    """


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before execution finished.

    Completed queries keep their (bitwise-deterministic) hits — the
    response is *partial*, not discarded; this error names the queries
    that were cut off.
    """


class ServiceBatchError(ServiceError):
    """A service batch was abandoned after exhausting its retry budget.

    The requests coalesced into the batch complete with status
    ``failed`` and this error's message; the service itself stays up
    (degraded), mirroring the supervised engine's quarantine semantics.
    """


class ExperimentSpecError(ConfigError):
    """An experiment scenario spec is malformed.

    Raised by :mod:`repro.experiments` when a YAML/dict scenario does
    not describe a runnable grid: an unknown axis or field, the same
    knob set twice in one mapping (dotted *and* nested forms),
    a ``faults.plan`` reference naming no declared fault plan, a table
    over an axis the grid does not vary, or an unparseable file.  A bad
    spec must fail before any cell runs — a 40-cell grid that dies on
    cell 37 because of a typo wastes hours; subclassing
    :class:`ConfigError` keeps the CLI's one-line typed-error contract.
    """


class IndexCompatError(ConfigError):
    """A search was configured with options a persisted index cannot serve.

    Raised when ``--index-path`` is combined with options that
    contradict it (a simulated engine, modeled execution, a shard
    layout the store does not hold).  Subclasses
    :class:`ConfigError` because it is a configuration contradiction,
    not a corrupt store.
    """
