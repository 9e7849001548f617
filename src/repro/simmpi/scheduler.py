"""The discrete-event scheduler driving simulated rank programs.

:class:`SimCluster` owns the machine state: per-rank virtual clocks
(inside each :class:`~repro.simmpi.comm.SimComm`), RMA windows, NIC
availability, mailboxes, in-flight collectives, memory trackers and
traces.  Rank programs are generators; the scheduler repeatedly advances
the runnable rank with the smallest virtual clock (ties broken by rank
id), which both guarantees determinism and keeps message causality
conservative (a rank never consumes a message that an earlier-in-time
rank could still have preceded).

Fault model (``ClusterConfig.fault_plan``): the machine can be run
against a declarative :class:`~repro.faults.plan.FaultPlan` describing
rank crashes, stragglers, NIC degradation and transient transfer
failures.  Crashes are *fail-stop at synchronization granularity*: a
rank whose crash time has passed dies the next time the scheduler would
advance it, or inside a collective whose release time reaches its crash
time — so a rank never acts after its planned death, and a rank that
returned its results before the crash time completed legitimately.
Surviving ranks observe failures two ways: an immediate typed
:class:`~repro.errors.RankFailedError` when they touch a dead peer's
window, and a consistent snapshot (``SimComm.sync_failures``) stamped at
every collective release, which recovery protocols use to agree on who
adopts a dead rank's work.  Fault injection is seeded and consumed in
deterministic scheduler order, so a given plan always produces the same
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.constants import PAPER_RAM_PER_RANK_BYTES
from repro.errors import CommunicationError, DeadlockError, RankFailedError
from repro.faults.plan import FaultPlan, TransientFaultState
from repro.simmpi.comm import (
    ANY_SOURCE,
    CollectiveOp,
    RecvOp,
    SimComm,
    reduce_values,
)
from repro.simmpi.memory import MemoryTracker
from repro.simmpi.network import NetworkModel
from repro.simmpi.nic import NicTimeline, reserve_transfer
from repro.simmpi.request import SimRequest
from repro.simmpi.trace import RankFailure, RankTrace, TraceSummary

RankProgram = Callable[[SimComm], Generator[Any, Any, Any]]

_READY = "ready"
_BLOCKED_RECV = "blocked_recv"
_BLOCKED_COLL = "blocked_coll"
_DONE = "done"
_FAILED = "failed"


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and physics of the simulated machine.

    Defaults mirror the paper's testbed: 1 GB RAM per MPI process over
    gigabit ethernet.

    ``rank_speeds`` models a *heterogeneous* cluster: entry r scales rank
    r's compute throughput (1.0 = nominal, 0.5 = half speed).  The
    paper's testbed was homogeneous; heterogeneity is the regime where
    the master-worker baseline's dynamic balancing beats Algorithm A's
    static split (see tests/integration/test_heterogeneous.py).

    ``fault_plan`` injects failures (crashes, stragglers, NIC
    degradation, transient transfer faults) into the run; ``None`` (the
    default) is the perfect machine every pre-existing experiment runs
    on.
    """

    num_ranks: int
    ram_per_rank: int = PAPER_RAM_PER_RANK_BYTES
    network: NetworkModel = field(default_factory=NetworkModel)
    record_events: bool = False
    rank_speeds: Optional[Tuple[float, ...]] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {self.num_ranks}")
        if self.rank_speeds is not None:
            if len(self.rank_speeds) != self.num_ranks:
                raise ValueError(
                    f"rank_speeds has {len(self.rank_speeds)} entries for "
                    f"{self.num_ranks} ranks"
                )
            if any(s <= 0 for s in self.rank_speeds):
                raise ValueError("rank_speeds must be positive")
        if self.fault_plan is not None:
            self.fault_plan.validate_for(self.num_ranks)

    def speed_of(self, rank: int) -> float:
        return self.rank_speeds[rank] if self.rank_speeds is not None else 1.0


@dataclass
class RankOutcome:
    """What one rank produced: its return value and final clock."""

    rank: int
    value: Any
    finish_time: float


@dataclass
class _Message:
    arrival: float
    seq: int
    source: int
    tag: int
    payload: Any


@dataclass
class _PendingCollective:
    kind: str
    arrivals: Dict[int, Tuple[float, CollectiveOp]] = field(default_factory=dict)


class SimCluster:
    """A simulated distributed-memory machine run."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        p = config.num_ranks
        self.memory: Dict[int, MemoryTracker] = {
            r: MemoryTracker(r, config.ram_per_rank) for r in range(p)
        }
        self.traces: Dict[int, RankTrace] = {
            r: RankTrace(r, record_events=config.record_events) for r in range(p)
        }
        self._comms = [SimComm(r, p, self) for r in range(p)]
        self._windows: Dict[Tuple[int, str], Tuple[Any, int]] = {}
        self._nics: List[NicTimeline] = [NicTimeline() for _ in range(p)]
        self._mailboxes: Dict[int, List[_Message]] = {r: [] for r in range(p)}
        self._send_seq = 0
        self._collectives: Dict[int, _PendingCollective] = {}
        self._recv_filter: Dict[int, Tuple[int, int]] = {}
        # -- fault bookkeeping ------------------------------------------
        plan = config.fault_plan
        self._dead: set = set()
        self.failure_log: List[RankFailure] = []
        self.transfer_retries = 0
        self.recovery_fetches = 0
        self._crash_times: Dict[int, float] = {}
        self._transient: Optional[TransientFaultState] = None
        if plan is not None:
            self._crash_times = {
                r: t for r in range(p) if (t := plan.crash_time(r)) is not None
            }
            if plan.transient is not None and plan.transient.probability > 0:
                self._transient = TransientFaultState(plan.transient)
        # populated for the duration of run()
        self._gens: List[Generator] = []
        self._state: List[str] = []
        self._inject: List[Any] = []
        #: ranks done or failed: the live ones are the rest
        self._finished = 0

    # ------------------------------------------------------------------
    # machine services called by SimComm
    # ------------------------------------------------------------------

    def effective_speed(self, rank: int, now: float) -> float:
        """Compute throughput of ``rank`` at virtual time ``now``."""
        speed = self.config.speed_of(rank)
        if self.config.fault_plan is not None:
            speed *= self.config.fault_plan.speed_factor(rank, now)
        return speed

    def _transfer_window(
        self, origin: int, target: int, nbytes: int, now: float
    ) -> Tuple[float, float, float]:
        """Reserve a transfer; returns ``(start, end, occupied_wire_time)``.

        Applies the fault plan's NIC degradation (both endpoints; the
        slower one bounds the transfer) and transient transfer failures
        (each failed attempt delays completion by a wasted wire pass
        plus the retransmit penalty).
        """
        net = self.config.network
        wire = net.byte_cost * nbytes
        stretch = 1.0
        plan = self.config.fault_plan
        if plan is not None:
            factor = min(
                plan.bandwidth_factor(origin, now), plan.bandwidth_factor(target, now)
            )
            if factor < 1.0:
                stretch = 1.0 / factor
        start = reserve_transfer(
            self._nics[origin], self._nics[target], now, wire, stretch
        )
        occupied = wire * stretch
        end = start + occupied + net.latency
        if self._transient is not None:
            failures = self._transient.failures_for_next_transfer()
            if failures:
                self.transfer_retries += failures
                end += failures * net.failed_attempt_time(
                    occupied, self._transient.spec.penalty
                )
        return start, end, occupied

    def expose_window(self, rank: int, name: str, payload: Any, nbytes: int) -> None:
        key = (rank, name)
        if key in self._windows:
            raise CommunicationError(f"rank {rank} window {name!r} already exposed")
        self._windows[key] = (payload, int(nbytes))

    def salvage_window(self, rank: int, name: str) -> Any:
        """Read a window payload regardless of owner liveness.

        Recovery-only: models reading the copy of a dead rank's shard
        that a surviving rank still holds from the rotation.  Callers
        must charge the transfer separately (``SimComm.recovery_fetch``).
        """
        try:
            return self._windows[(rank, name)][0]
        except KeyError:
            raise CommunicationError(
                f"salvage: rank {rank} window {name!r} was never exposed"
            ) from None

    def issue_get(self, origin: int, target: int, window: str, now: float) -> SimRequest:
        if target in self._dead:
            raise RankFailedError(
                target, f"iget {window!r}@{target}: target rank has failed"
            )
        try:
            payload, nbytes = self._windows[(target, window)]
        except KeyError:
            raise CommunicationError(
                f"iget: rank {target} has no exposed window {window!r}"
            ) from None
        if origin == target:
            # local read: no wire, immediate completion
            return SimRequest(origin, target, window, 0, now, now, payload)
        start, end, occupied = self._transfer_window(origin, target, nbytes, now)
        net = self.config.network
        self.traces[origin].add(
            "comm_issued", start, occupied + net.latency, f"get {window}@{target}"
        )
        return SimRequest(origin, target, window, nbytes, now, end, payload)

    def post_send(
        self, source: int, dest: int, payload: Any, nbytes: int, tag: int, now: float
    ) -> None:
        net = self.config.network
        if dest == source:
            arrival = now
        else:
            start, arrival, occupied = self._transfer_window(source, dest, nbytes, now)
            self.traces[source].add(
                "comm_issued", start, occupied + net.latency, f"send->{dest}"
            )
        self._send_seq += 1
        self._mailboxes[dest].append(_Message(arrival, self._send_seq, source, tag, payload))

    def charge_recovery_fetch(
        self, origin: int, source: int, nbytes: int, now: float
    ) -> float:
        """Charge re-fetching rank ``source``'s shard from a surviving holder.

        The holder is deterministic: the first alive rank scanning the
        ring from ``source`` (the owner itself when alive — the normal
        re-fetch path; after a crash, its ring successor, which under the
        rotation schedule held the shard most recently).  When the
        holder *is* the origin, the copy is local and costs nothing.
        Returns the virtual completion time; the caller traces it.
        """
        self.recovery_fetches += 1
        p = self.config.num_ranks
        holder = source
        for k in range(p):
            candidate = (source + k) % p
            if candidate not in self._dead:
                holder = candidate
                break
        else:  # pragma: no cover - validate_for keeps one rank alive
            raise RankFailedError(source, "no surviving holder for recovery fetch")
        if holder == origin:
            return now
        _start, end, _occupied = self._transfer_window(origin, holder, nbytes, now)
        return end

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def run(
        self,
        program: RankProgram,
        args: Optional[Dict[int, tuple]] = None,
    ) -> Tuple[List[RankOutcome], TraceSummary]:
        """Run ``program(comm, *args[rank])`` on every rank to completion.

        Returns per-rank outcomes (in rank order, crashed ranks omitted)
        and the trace summary.  Any exception raised inside a rank
        program propagates to the caller (with rank context), mirroring
        an MPI abort.

        A cluster runs once.  When the run ends — returning or raising —
        it lets go of the rank programs, their communicators and every
        exposed window, so what the ranks held (shards, mass indexes,
        searchers) dies with the last outside reference instead of
        waiting for the cycle collector; ``memory``, ``traces`` and the
        failure log stay readable.
        """
        if not self._comms:
            raise CommunicationError("this SimCluster has already run; build a new one")
        try:
            return self._run(program, args)
        finally:
            self._release()

    def _release(self) -> None:
        """Drop what only a run in progress needs, and the reference
        cycles (cluster <-> communicators, cluster -> suspended
        generators -> communicators) that would keep it all alive."""
        self._gens, self._state, self._inject = [], [], []
        self._windows.clear()
        self._mailboxes.clear()
        self._collectives.clear()
        for comm in self._comms:
            comm._cluster = None
        self._comms = []

    def _run(
        self,
        program: RankProgram,
        args: Optional[Dict[int, tuple]] = None,
    ) -> Tuple[List[RankOutcome], TraceSummary]:
        p = self.config.num_ranks
        gens: List[Generator] = []
        for r in range(p):
            extra = args.get(r, ()) if args else ()
            gens.append(program(self._comms[r], *extra))

        state = [_READY] * p
        inject: List[Any] = [None] * p  # value to send into the generator
        outcomes: List[Optional[RankOutcome]] = [None] * p
        self._gens, self._state, self._inject = gens, state, inject

        def runnable_candidates() -> List[Tuple[float, int, str]]:
            cands: List[Tuple[float, int, str]] = []
            for r in range(p):
                if state[r] == _READY:
                    cands.append((self._comms[r].clock, r, "run"))
                elif state[r] == _BLOCKED_RECV:
                    msg = self._match_message(r)
                    if msg is not None:
                        cands.append((max(self._comms[r].clock, msg.arrival), r, "recv"))
            return cands

        while self._finished < p:
            cands = runnable_candidates()
            if not cands:
                blocked = {
                    r: state[r] for r in range(p) if state[r] not in (_DONE, _FAILED)
                }
                raise DeadlockError(f"no runnable rank; blocked states: {blocked}")
            _t, rank, action = min(cands)
            comm = self._comms[rank]
            crash_at = self._crash_times.get(rank)
            if crash_at is not None and comm.clock >= crash_at:
                self._kill_rank(rank)
                continue
            if action == "recv":
                msg = self._match_message(rank)
                assert msg is not None
                self._mailboxes[rank].remove(msg)
                if msg.arrival > comm.clock:
                    self.traces[rank].add("wait", comm.clock, msg.arrival - comm.clock, "recv")
                    comm.clock = msg.arrival
                inject[rank] = (msg.source, msg.payload)
                state[rank] = _READY

            try:
                op = gens[rank].send(inject[rank])
            except StopIteration as stop:
                state[rank] = _DONE
                self._finished += 1
                outcomes[rank] = RankOutcome(rank, stop.value, comm.clock)
                continue
            except Exception as exc:
                if hasattr(exc, "add_note"):
                    exc.add_note(f"raised inside simulated rank {rank}")
                raise
            finally:
                inject[rank] = None

            if isinstance(op, RecvOp):
                self._recv_filter[rank] = (op.source, op.tag)
                state[rank] = _BLOCKED_RECV
            elif isinstance(op, CollectiveOp):
                state[rank] = _BLOCKED_COLL
                self._enter_collective(rank, op)
            else:
                raise CommunicationError(
                    f"rank {rank} yielded {op!r}; only RecvOp/CollectiveOp may be yielded"
                )

        finished = [o for o in outcomes if o is not None]
        if not finished:
            raise RankFailedError(
                self.failure_log[0].rank if self.failure_log else 0,
                "no rank survived to completion",
            )
        summary = TraceSummary.from_traces(
            self.traces,
            makespan=max(o.finish_time for o in finished),
            failures=tuple(self.failure_log),
            transfer_retries=self.transfer_retries,
            recovery_fetches=self.recovery_fetches,
        )
        return finished, summary

    # ------------------------------------------------------------------
    # failure machinery
    # ------------------------------------------------------------------

    def _kill_rank(self, rank: int) -> None:
        """Fail-stop ``rank``: close it, then let any collective it was
        expected in complete over the survivors."""
        self._state[rank] = _FAILED
        self._finished += 1
        self._dead.add(rank)
        planned = self._crash_times.get(rank, self._comms[rank].clock)
        self.failure_log.append(RankFailure(rank, planned))
        try:
            self._gens[rank].close()
        except Exception:  # pragma: no cover - generator cleanup is best effort
            pass
        self._mailboxes[rank].clear()
        for instance in list(self._collectives):
            pending = self._collectives.get(instance)
            if pending is None:
                continue
            pending.arrivals.pop(rank, None)
            self._try_release_collective(instance)

    # ------------------------------------------------------------------

    def _match_message(self, rank: int) -> Optional[_Message]:
        source, tag = self._recv_filter.get(rank, (ANY_SOURCE, 0))
        best: Optional[_Message] = None
        for msg in self._mailboxes[rank]:
            if source != ANY_SOURCE and msg.source != source:
                continue
            if msg.tag != tag:
                continue
            if best is None or (msg.arrival, msg.seq) < (best.arrival, best.seq):
                best = msg
        return best

    def _enter_collective(self, rank: int, op: CollectiveOp) -> None:
        pending = self._collectives.setdefault(op.instance, _PendingCollective(op.kind))
        if pending.kind != op.kind:
            raise CommunicationError(
                f"collective mismatch at instance {op.instance}: rank {rank} called "
                f"{op.kind!r} but another rank called {pending.kind!r}"
            )
        if rank in pending.arrivals:
            raise CommunicationError(f"rank {rank} re-entered collective {op.instance}")
        pending.arrivals[rank] = (self._comms[rank].clock, op)
        if self._finished > len(self._dead):
            done_ranks = [r for r in range(self.config.num_ranks) if self._state[r] == _DONE]
            raise DeadlockError(
                f"collective {op.kind!r} cannot complete: ranks {done_ranks} already finished"
            )
        self._try_release_collective(op.instance)

    def _try_release_collective(self, instance: int) -> None:
        """Release a pending collective once every live rank has arrived.

        Failed ranks are not waited for (the surviving communicator
        shrinks, as under MPI ULFM shrink semantics).  If the release
        time reaches a participant's planned crash time, that rank dies
        *inside* the collective: it is killed, removed from the arrival
        set, and the release re-evaluated — so no rank ever acts after
        its crash, and survivors leave the collective already seeing the
        failure in their ``sync_failures`` snapshot.
        """
        pending = self._collectives.get(instance)
        if pending is None:
            return
        p = self.config.num_ranks
        live = p - self._finished
        if not live:
            del self._collectives[instance]
            return
        # arrivals hold live ranks only (a dead one is popped, a finished
        # one never enters): all of them have arrived once the counts meet
        if len(pending.arrivals) < live:
            return
        expected = sorted(pending.arrivals)
        net = self.config.network
        n = len(expected)
        arrival_max = max(pending.arrivals[r][0] for r in expected)
        ops = {r: pending.arrivals[r][1] for r in expected}
        results: Dict[int, Any] = {}
        if pending.kind in ("barrier", "rendezvous"):
            end = arrival_max + net.barrier_time(n)
            results = {r: None for r in expected}
        elif pending.kind == "allreduce":
            nbytes = max(o.nbytes for o in ops.values())
            end = arrival_max + net.allreduce_time(n, nbytes)
            reduced = reduce_values(
                [ops[r].payload for r in expected], ops[expected[0]].op or "sum"
            )
            results = {r: reduced for r in expected}
        elif pending.kind == "alltoallv":
            if n != p:
                raise DeadlockError(
                    "alltoallv cannot complete after a rank failure; crashes during "
                    "Algorithm B's sort phase are outside the supported fault window"
                )
            send_totals = [ops[src].nbytes for src in range(p)]
            recv_totals = [
                sum(int(ops[src].payload[dst][1]) for src in range(p)) for dst in range(p)
            ]
            end = arrival_max + net.alltoallv_time(p, max(send_totals), max(recv_totals))
            for dst in range(p):
                results[dst] = [ops[src].payload[dst][0] for src in range(p)]
            for src in range(p):
                self.traces[src].add(
                    "comm_issued", pending.arrivals[src][0], net.byte_cost * send_totals[src],
                    "alltoallv",
                )
        else:  # pragma: no cover - kinds are produced only by SimComm
            raise CommunicationError(f"unknown collective kind {pending.kind!r}")

        # A participant whose planned crash falls within the collective
        # window dies inside it; survivors re-form and complete without it.
        doomed = [
            r
            for r in expected
            if (t := self._crash_times.get(r)) is not None and t <= end
        ]
        if doomed:
            self._kill_rank(min(doomed))  # re-enters _try_release_collective
            return

        del self._collectives[instance]
        snapshot = tuple(f.rank for f in self.failure_log)
        category = "wait" if pending.kind == "rendezvous" else "collective"
        for r in expected:
            arrive_t = pending.arrivals[r][0]
            self.traces[r].add(category, arrive_t, end - arrive_t, pending.kind)
            self._comms[r].clock = end
            self._comms[r].sync_failures = snapshot
            self._inject[r] = results[r]
            self._state[r] = _READY
