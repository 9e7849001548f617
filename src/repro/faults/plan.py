"""Declarative, seeded fault plans for the simulated cluster.

A :class:`FaultPlan` is pure data: *what goes wrong, where, and when*,
in virtual time.  The simulated machine consumes it (see
``ClusterConfig.fault_plan``) and the same plan always produces the same
run — fault injection is an input, never a source of nondeterminism, so
recovery tests can assert exact output equality against fault-free runs.

Event vocabulary, chosen to cover the failure classes large MPI
proteomics runs actually see:

* :class:`RankCrash` — fail-stop death of one rank at virtual time t
  (node crash, OOM kill).
* :class:`Straggler` — a rank computes at ``factor`` of nominal speed
  from ``start`` onward (thermal throttling, noisy neighbour).
* :class:`NicDegradation` — a rank's NIC delivers ``factor`` of nominal
  bandwidth from ``start`` onward (link renegotiation, congestion).
* :class:`TransientFaults` — each point-to-point transfer independently
  fails ``k`` times before succeeding, ``k`` drawn from a seeded RNG;
  every failure costs a retransmit penalty plus the wasted wire time.

Service phase (consumed by :class:`repro.service.SearchService` via
:class:`repro.faults.injector.ServiceFaultInjector`, not by the
simulated machine) — the failure classes a *long-lived* search service
sees, grouped under :class:`ServiceFaults` on ``FaultPlan.service``:

* :class:`ServiceWorkerCrash` — the scorer thread dies mid-batch while
  executing global batch number ``batch`` (OOM kill, segfault in a
  native kernel).
* :class:`ServiceSlowWorker` — scorer incarnation ``worker`` stalls
  ``delay`` seconds per batch (thermal throttling, page-cache misses on a cold
  index).
* :class:`ServiceStoreOutage` — the persisted index store goes missing
  mid-serve for the first ``attempts`` tries of batch ``batch`` (NFS
  blip, volume detach).
* :class:`RequestStorm` — not a fault *in* the service but the load
  that provokes the others: a deterministic many-client burst the storm
  driver (:mod:`repro.service.storm`) replays against the service.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass, field
from typing import Optional, Tuple, Union

from repro.errors import FaultPlanError


@dataclass(frozen=True)
class RankCrash:
    """Fail-stop crash of ``rank`` at virtual time ``time``."""

    rank: int
    time: float


@dataclass(frozen=True)
class Straggler:
    """``rank`` computes at ``factor`` (0 < f <= 1) of nominal speed from ``start``."""

    rank: int
    factor: float
    start: float = 0.0


@dataclass(frozen=True)
class NicDegradation:
    """``rank``'s NIC delivers ``factor`` (0 < f <= 1) of nominal bandwidth from ``start``."""

    rank: int
    factor: float
    start: float = 0.0


@dataclass(frozen=True)
class TransientFaults:
    """Transient point-to-point transfer failures.

    Each transfer attempt independently fails with ``probability``; a
    failed attempt costs ``penalty`` seconds (detection + retransmit
    setup) plus the wasted wire time, then the transfer is retried.  At
    most ``max_consecutive`` failures are charged per transfer, so a
    transfer always eventually lands (transient, not permanent, faults).
    Draws come from an RNG seeded with ``seed``, consumed in the
    scheduler's deterministic issue order.
    """

    probability: float
    penalty: float = 1e-4
    max_consecutive: int = 3
    seed: int = 0


#: attempts/batches value meaning "every attempt / every batch"
EVERY = -1


@dataclass(frozen=True)
class ServiceWorkerCrash:
    """Kill the scorer executing global batch ``batch`` mid-execution.

    Fires on the batch's first ``attempts`` tries (``EVERY`` = every
    try, modelling a poison batch that exhausts the retry budget), when
    execution reaches chunk index ``chunk`` — so the crash lands *after*
    part of the batch was scored, exercising the re-queue path.
    """

    batch: int
    attempts: int = 1
    chunk: int = 0


@dataclass(frozen=True)
class ServiceSlowWorker:
    """The scorer stalls ``delay`` wall seconds at each batch start.

    ``worker`` names an incarnation of the service's one scorer: 0 for
    the first, +1 per restart (a ``worker: 0`` plan written for a pool
    still afflicts the scorer the service starts with).  ``batches``
    bounds how many batches are afflicted (``EVERY`` = all).
    """

    worker: int
    delay: float
    batches: int = EVERY


@dataclass(frozen=True)
class ServiceStoreOutage:
    """The index store is unreachable during batch ``batch``.

    Raises a typed :class:`~repro.errors.IndexStoreError` inside batch
    execution for the first ``attempts`` tries (``EVERY`` = always); the
    service treats it as a retryable batch failure, not a worker death.
    """

    batch: int
    attempts: int = 1


@dataclass(frozen=True)
class RequestStorm:
    """A deterministic many-client request burst.

    ``clients`` concurrent clients each submit ``requests_per_client``
    requests of ``queries_per_request`` spectra, pausing ``interval``
    seconds between submissions; queries are drawn deterministically
    from ``seed``.  Consumed by the storm driver
    (:func:`repro.service.storm.run_storm`), which is what the soak CI
    job and ``repro serve`` replay.
    """

    clients: int = 8
    requests_per_client: int = 4
    queries_per_request: int = 4
    interval: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class ServiceFaults:
    """Everything that will go wrong during one service run."""

    worker_crashes: Tuple[ServiceWorkerCrash, ...] = ()
    slow_workers: Tuple[ServiceSlowWorker, ...] = ()
    store_outages: Tuple[ServiceStoreOutage, ...] = ()
    storm: Optional[RequestStorm] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "worker_crashes", tuple(self.worker_crashes))
        object.__setattr__(self, "slow_workers", tuple(self.slow_workers))
        object.__setattr__(self, "store_outages", tuple(self.store_outages))
        for c in self.worker_crashes:
            if c.batch < 0:
                raise FaultPlanError(f"crash batch must be >= 0, got {c.batch}")
            if c.attempts < EVERY:
                raise FaultPlanError(f"crash attempts must be >= -1, got {c.attempts}")
            if c.chunk < 0:
                raise FaultPlanError(f"crash chunk must be >= 0, got {c.chunk}")
        for s in self.slow_workers:
            if s.worker < 0:
                raise FaultPlanError(f"slow worker id must be >= 0, got {s.worker}")
            if s.delay < 0:
                raise FaultPlanError(f"slow worker delay must be >= 0, got {s.delay}")
            if s.batches < EVERY:
                raise FaultPlanError(f"slow worker batches must be >= -1, got {s.batches}")
        for o in self.store_outages:
            if o.batch < 0:
                raise FaultPlanError(f"outage batch must be >= 0, got {o.batch}")
            if o.attempts < EVERY:
                raise FaultPlanError(f"outage attempts must be >= -1, got {o.attempts}")
        storm = self.storm
        if storm is not None:
            if storm.clients < 1:
                raise FaultPlanError(f"storm clients must be >= 1, got {storm.clients}")
            if storm.requests_per_client < 1:
                raise FaultPlanError(
                    f"storm requests_per_client must be >= 1, got {storm.requests_per_client}"
                )
            if storm.queries_per_request < 1:
                raise FaultPlanError(
                    f"storm queries_per_request must be >= 1, got {storm.queries_per_request}"
                )
            if storm.interval < 0:
                raise FaultPlanError(f"storm interval must be >= 0, got {storm.interval}")

    @classmethod
    def from_payload(cls, payload: dict) -> "ServiceFaults":
        storm = payload.get("storm")
        return cls(
            worker_crashes=tuple(
                ServiceWorkerCrash(**c) for c in payload.get("worker_crashes", ())
            ),
            slow_workers=tuple(
                ServiceSlowWorker(**s) for s in payload.get("slow_workers", ())
            ),
            store_outages=tuple(
                ServiceStoreOutage(**o) for o in payload.get("store_outages", ())
            ),
            storm=RequestStorm(**storm) if storm else None,
        )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong during one simulated run."""

    crashes: Tuple[RankCrash, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    nic_degradations: Tuple[NicDegradation, ...] = ()
    transient: Optional[TransientFaults] = None
    seed: int = 0
    description: str = ""
    service: Optional[ServiceFaults] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "nic_degradations", tuple(self.nic_degradations))
        for c in self.crashes:
            if c.rank < 0:
                raise FaultPlanError(f"crash rank must be >= 0, got {c.rank}")
            if c.time < 0:
                raise FaultPlanError(f"crash time must be >= 0, got {c.time}")
        seen = [c.rank for c in self.crashes]
        if len(seen) != len(set(seen)):
            raise FaultPlanError(f"duplicate crash entries for ranks {sorted(seen)}")
        for s in self.stragglers:
            if s.rank < 0:
                raise FaultPlanError(f"straggler rank must be >= 0, got {s.rank}")
            if not 0.0 < s.factor <= 1.0:
                raise FaultPlanError(f"straggler factor must be in (0, 1], got {s.factor}")
            if s.start < 0:
                raise FaultPlanError(f"straggler start must be >= 0, got {s.start}")
        for d in self.nic_degradations:
            if d.rank < 0:
                raise FaultPlanError(f"degradation rank must be >= 0, got {d.rank}")
            if not 0.0 < d.factor <= 1.0:
                raise FaultPlanError(f"bandwidth factor must be in (0, 1], got {d.factor}")
            if d.start < 0:
                raise FaultPlanError(f"degradation start must be >= 0, got {d.start}")
        t = self.transient
        if t is not None:
            if not 0.0 <= t.probability < 1.0:
                raise FaultPlanError(f"fault probability must be in [0, 1), got {t.probability}")
            if t.penalty < 0:
                raise FaultPlanError(f"retry penalty must be >= 0, got {t.penalty}")
            if t.max_consecutive < 0:
                raise FaultPlanError(f"max_consecutive must be >= 0, got {t.max_consecutive}")

    # -- queries the machine makes ---------------------------------------

    def validate_for(self, num_ranks: int) -> None:
        """Check every event's rank fits a ``num_ranks``-rank machine."""
        for ev in (*self.crashes, *self.stragglers, *self.nic_degradations):
            if ev.rank >= num_ranks:
                raise FaultPlanError(
                    f"{type(ev).__name__} targets rank {ev.rank} on a "
                    f"{num_ranks}-rank machine"
                )
        if len(self.crashes) >= num_ranks and num_ranks > 0:
            raise FaultPlanError(
                f"plan kills all {num_ranks} ranks; at least one must survive"
            )

    def crash_time(self, rank: int) -> Optional[float]:
        for c in self.crashes:
            if c.rank == rank:
                return c.time
        return None

    def speed_factor(self, rank: int, now: float) -> float:
        """Compound straggler slowdown active on ``rank`` at time ``now``."""
        factor = 1.0
        for s in self.stragglers:
            if s.rank == rank and now >= s.start:
                factor *= s.factor
        return factor

    def bandwidth_factor(self, rank: int, now: float) -> float:
        """Compound NIC bandwidth factor for ``rank`` at time ``now``."""
        factor = 1.0
        for d in self.nic_degradations:
            if d.rank == rank and now >= d.start:
                factor *= d.factor
        return factor

    # -- construction ------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        num_ranks: int,
        horizon: float,
        max_crashes: int = 1,
        crash_probability: float = 0.5,
        straggler_probability: float = 0.5,
        degradation_probability: float = 0.5,
        transient_probability: float = 0.5,
    ) -> "FaultPlan":
        """Sample a plan; the same ``(seed, num_ranks, horizon)`` always
        yields the same plan.  ``horizon`` bounds event times — pass the
        fault-free makespan so crashes land mid-run, not after it."""
        if num_ranks < 1:
            raise FaultPlanError(f"num_ranks must be >= 1, got {num_ranks}")
        if horizon <= 0:
            raise FaultPlanError(f"horizon must be > 0, got {horizon}")
        rng = random.Random(seed)
        crashes = []
        max_crashes = min(max_crashes, num_ranks - 1)
        victims = rng.sample(range(num_ranks), k=num_ranks)
        for rank in victims[:max_crashes]:
            if rng.random() < crash_probability:
                crashes.append(RankCrash(rank, rng.uniform(0.1, 0.9) * horizon))
        stragglers = []
        if num_ranks > 1 and rng.random() < straggler_probability:
            stragglers.append(
                Straggler(
                    rng.randrange(num_ranks),
                    factor=rng.uniform(0.3, 0.9),
                    start=rng.uniform(0.0, 0.5) * horizon,
                )
            )
        degradations = []
        if num_ranks > 1 and rng.random() < degradation_probability:
            degradations.append(
                NicDegradation(
                    rng.randrange(num_ranks),
                    factor=rng.uniform(0.1, 0.9),
                    start=rng.uniform(0.0, 0.5) * horizon,
                )
            )
        transient = None
        if rng.random() < transient_probability:
            transient = TransientFaults(
                probability=rng.uniform(0.05, 0.4), seed=rng.randrange(1 << 30)
            )
        return cls(
            crashes=tuple(crashes),
            stragglers=tuple(stragglers),
            nic_degradations=tuple(degradations),
            transient=transient,
            seed=seed,
            description=f"random plan (seed={seed}, horizon={horizon:g})",
        )

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        try:
            transient = payload.get("transient")
            service = payload.get("service")
            return cls(
                crashes=tuple(RankCrash(**c) for c in payload.get("crashes", ())),
                stragglers=tuple(Straggler(**s) for s in payload.get("stragglers", ())),
                nic_degradations=tuple(
                    NicDegradation(**d) for d in payload.get("nic_degradations", ())
                ),
                transient=TransientFaults(**transient) if transient else None,
                seed=int(payload.get("seed", 0)),
                description=str(payload.get("description", "")),
                service=ServiceFaults.from_payload(service) if service else None,
            )
        except TypeError as exc:
            raise FaultPlanError(f"fault plan has unknown or missing fields: {exc}") from exc

    @classmethod
    def from_file(cls, path: Union[str, os.PathLike]) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json(fh.read())
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path!s}: {exc}") from exc


@dataclass
class TransientFaultState:
    """Mutable RNG state consuming a :class:`TransientFaults` spec.

    Owned by the simulated cluster; drawn in scheduler issue order, which
    is deterministic, so a plan's transfer failures are reproducible.
    """

    spec: TransientFaults
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.spec.seed)

    def failures_for_next_transfer(self) -> int:
        """Number of failed attempts charged to the next transfer."""
        k = 0
        while k < self.spec.max_consecutive and self._rng.random() < self.spec.probability:
            k += 1
        return k
