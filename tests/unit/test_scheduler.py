"""Unit tests for the simulated cluster scheduler and SimComm semantics."""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.errors import (
    CommunicationError,
    DeadlockError,
    OutOfMemoryError,
    RankFailedError,
)
from repro.simmpi.comm import ANY_SOURCE
from repro.simmpi.network import NetworkModel, ZERO_NETWORK
from repro.simmpi.scheduler import ClusterConfig, SimCluster


def run(p, program, **cfg):
    cluster = SimCluster(ClusterConfig(num_ranks=p, **cfg))
    outcomes, summary = cluster.run(program)
    return cluster, outcomes, summary


class TestBasics:
    def test_single_rank_return_value(self):
        def program(comm):
            comm.compute(1.0)
            return comm.rank * 10
            yield  # makes this a generator

        _c, outcomes, summary = run(1, program)
        assert outcomes[0].value == 0
        assert summary.makespan == pytest.approx(1.0)

    def test_compute_advances_clock(self):
        def program(comm):
            comm.compute(2.0)
            comm.compute(3.0)
            return comm.clock
            yield

        _c, outcomes, _s = run(2, program)
        assert all(o.value == pytest.approx(5.0) for o in outcomes)

    def test_negative_compute_rejected(self):
        def program(comm):
            comm.compute(-1.0)
            yield comm.barrier_op()

        with pytest.raises(ValueError):
            run(2, program)

    def test_invalid_num_ranks(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_ranks=0)


class TestBarrier:
    def test_barrier_synchronizes_clocks(self):
        def program(comm):
            comm.compute(float(comm.rank))  # rank r computes r seconds
            yield comm.barrier_op()
            return comm.clock

        _c, outcomes, _s = run(4, program, network=ZERO_NETWORK)
        assert all(o.value == pytest.approx(3.0) for o in outcomes)

    def test_mismatched_collectives_detected(self):
        def program(comm):
            if comm.rank == 0:
                yield comm.barrier_op()
            else:
                yield comm.allreduce_op(1, "sum")

        with pytest.raises(CommunicationError, match="mismatch"):
            run(2, program)

    def test_rank_exiting_before_collective_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                return None
            yield comm.barrier_op()

        with pytest.raises(DeadlockError):
            run(2, program)


class TestAllreduce:
    def test_sum_scalar(self):
        def program(comm):
            total = yield comm.allreduce_op(comm.rank + 1, "sum")
            return total

        _c, outcomes, _s = run(4, program)
        assert all(o.value == 10 for o in outcomes)

    def test_max_array(self):
        def program(comm):
            vec = np.zeros(3)
            vec[comm.rank % 3] = comm.rank
            result = yield comm.allreduce_op(vec, "max")
            return result

        _c, outcomes, _s = run(3, program)
        assert np.allclose(outcomes[0].value, [0, 1, 2])

    def test_unknown_op_rejected(self):
        def program(comm):
            yield comm.allreduce_op(1, "xor")

        with pytest.raises(CommunicationError):
            run(2, program)

    def test_cost_charged(self):
        def program(comm):
            yield comm.allreduce_op(np.zeros(1000), "sum")
            return comm.clock

        net = NetworkModel(latency=1e-3, byte_cost=1e-6)
        _c, outcomes, _s = run(4, program, network=net)
        expected = net.allreduce_time(4, 8000)
        assert outcomes[0].value == pytest.approx(expected)


class TestAlltoallv:
    def test_exchange_semantics(self):
        def program(comm):
            payloads = [(f"{comm.rank}->{d}", 10) for d in range(comm.size)]
            received = yield comm.alltoallv_op(payloads)
            return received

        _c, outcomes, _s = run(3, program)
        assert outcomes[1].value == ["0->1", "1->1", "2->1"]

    def test_wrong_payload_count_rejected(self):
        def program(comm):
            yield comm.alltoallv_op([("x", 1)])  # needs comm.size entries

        with pytest.raises(CommunicationError):
            run(3, program)


class TestSendRecv:
    def test_basic_roundtrip(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(1, {"x": 42}, 100)
                src, reply = yield comm.recv_op(source=1)
                return reply
            else:
                src, msg = yield comm.recv_op(source=0)
                comm.send(0, msg["x"] + 1, 8)
                return None

        _c, outcomes, _s = run(2, program)
        assert outcomes[0].value == 43

    def test_any_source_takes_earliest_arrival(self):
        def program(comm):
            if comm.rank == 0:
                first_src, _ = yield comm.recv_op(source=ANY_SOURCE)
                second_src, _ = yield comm.recv_op(source=ANY_SOURCE)
                return (first_src, second_src)
            comm.compute(0.1 * comm.rank)  # rank 1 sends before rank 2
            comm.send(0, "hi", 8)
            return None

        _c, outcomes, _s = run(3, program)
        assert outcomes[0].value == (1, 2)

    def test_recv_with_no_sender_deadlocks(self):
        def program(comm):
            if comm.rank == 0:
                yield comm.recv_op(source=1)
            return None

        with pytest.raises(DeadlockError):
            run(2, program)

    def test_recv_blocks_until_arrival_time(self):
        net = NetworkModel(latency=0.5, byte_cost=0.0)

        def program(comm):
            if comm.rank == 0:
                comm.send(1, "x", 8)
                return None
            yield comm.recv_op(source=0)
            return comm.clock

        _c, outcomes, _s = run(2, program, network=net)
        assert outcomes[1].value == pytest.approx(0.5)

    def test_invalid_dest(self):
        def program(comm):
            comm.send(99, "x", 8)
            yield comm.barrier_op()

        with pytest.raises(CommunicationError):
            run(2, program)


class TestOneSided:
    def test_get_returns_window_payload(self):
        def program(comm):
            comm.expose("w", f"data{comm.rank}", 100)
            yield comm.barrier_op()
            req = comm.iget((comm.rank + 1) % comm.size, "w")
            return comm.wait(req)

        _c, outcomes, _s = run(3, program)
        assert [o.value for o in outcomes] == ["data1", "data2", "data0"]

    def test_local_get_is_free(self):
        def program(comm):
            comm.expose("w", "mine", 10**9)
            yield comm.barrier_op()
            before = comm.clock
            req = comm.iget(comm.rank, "w")
            comm.wait(req)
            return comm.clock - before

        _c, outcomes, _s = run(2, program)
        assert all(o.value == 0.0 for o in outcomes)

    def test_masked_transfer_produces_no_wait(self):
        net = NetworkModel(latency=0.0, byte_cost=1e-6, software_rma=False)

        def program(comm):
            comm.expose("w", comm.rank, 1000)  # 1 ms transfer
            yield comm.barrier_op()
            req = comm.iget((comm.rank + 1) % comm.size, "w")
            comm.compute(0.1)  # plenty to mask 1 ms
            comm.wait(req)
            return None

        _c, _o, summary = run(2, program, network=net)
        assert summary.total_wait == pytest.approx(0.0)
        assert summary.masking_effectiveness == pytest.approx(1.0)

    def test_unmasked_transfer_counted_as_wait(self):
        net = NetworkModel(latency=0.0, byte_cost=1e-6, software_rma=False)

        def program(comm):
            comm.expose("w", comm.rank, 1_000_000)  # 1 s transfer
            yield comm.barrier_op()
            req = comm.iget((comm.rank + 1) % comm.size, "w")
            comm.wait(req)  # nothing masked
            return None

        _c, _o, summary = run(2, program, network=net)
        assert summary.total_wait > 0.9

    def test_get_unknown_window(self):
        def program(comm):
            yield comm.barrier_op()
            comm.iget((comm.rank + 1) % comm.size, "ghost")

        with pytest.raises(CommunicationError):
            run(2, program)

    def test_double_expose_rejected(self):
        def program(comm):
            comm.expose("w", 1, 8)
            comm.expose("w", 2, 8)
            yield comm.barrier_op()

        with pytest.raises(CommunicationError):
            run(2, program)

    def test_rendezvous_traced_as_wait(self):
        def program(comm):
            comm.compute(float(comm.rank))
            yield comm.rendezvous_op()
            return None

        _c, _o, summary = run(2, program, network=ZERO_NETWORK)
        # rank 0 waited 1 s for rank 1 at the rendezvous
        assert summary.total_wait == pytest.approx(1.0)
        assert summary.total_collective == pytest.approx(0.0)


class TestMemoryIntegration:
    def test_oom_propagates_with_rank_context(self):
        def program(comm):
            comm.alloc("big", 2 << 30)
            yield comm.barrier_op()

        with pytest.raises(OutOfMemoryError):
            run(2, program)

    def test_peak_memory_recorded(self):
        def program(comm):
            comm.alloc("a", 100)
            comm.alloc("b", 200)
            comm.free("a")
            yield comm.barrier_op()
            return None

        cluster, _o, _s = run(2, program)
        assert cluster.memory[0].peak == 300
        assert cluster.memory[0].in_use == 200


@contextlib.contextmanager
def no_cycle_collector():
    """Whatever dies in the block died by reference count alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestRankLifetime:
    """A finished run is not cyclic garbage: what its ranks held is freed
    when ``run()`` has returned — or raised — and the caller has let go,
    without waiting for the cycle collector.  Five back-to-back p=8 passes
    of the benchmark used to climb 182 -> 215 MB on pinned shards."""

    class Held:
        """Stands in for a rank's shard: weakly referenceable, nothing else."""

    def test_windows_programs_and_communicators_are_released(self):
        alive = []

        def program(comm):
            held = self.Held()
            alive.append(weakref.ref(held))
            comm.alloc("shard", 8)
            comm.expose("shard", held, 8)
            yield comm.barrier_op()
            peer = comm.wait(comm.iget((comm.rank + 1) % comm.size, "shard"))
            yield comm.barrier_op()
            return comm.rank if peer is not None else None

        with no_cycle_collector():
            cluster, outcomes, _summary = run(3, program)
            assert [o.value for o in outcomes] == [0, 1, 2]
            assert [ref() for ref in alive] == [None] * 3
            assert cluster.memory[0].peak == 8  # still readable after the run
            cluster = weakref.ref(cluster)
            assert cluster() is None  # no cluster <-> communicator cycle left

    def test_released_on_the_exception_path_too(self):
        alive = []

        def program(comm):
            held = self.Held()
            alive.append(weakref.ref(held))
            comm.expose("shard", held, 8)
            yield comm.barrier_op()
            if comm.rank == 1:
                raise RankFailedError(0, "peer is gone")
            yield comm.barrier_op()  # ranks 0 and 2 are suspended here for good

        with no_cycle_collector():
            with pytest.raises(RankFailedError):
                run(3, program)
            assert len(alive) == 3 and [ref() for ref in alive] == [None] * 3

    def test_a_cluster_runs_once(self):
        def program(comm):
            return None
            yield

        cluster, _o, _s = run(2, program)
        with pytest.raises(CommunicationError, match="already run"):
            cluster.run(program)

    @pytest.fixture()
    def watched(self, monkeypatch):
        """Weak references to every searcher a rank program records a pass
        against (its resident shard's, each one a Get delivers) and every
        searcher a flush runs (one of those, or one built over their
        shards laid end to end), each with its shard buffer and mass
        index, taken inside the run."""
        from repro.core.rotation import PassLedger
        from repro.core.search import ShardSearcher

        refs = []
        record, run_shard = PassLedger.record, ShardSearcher.run

        def watch(searcher, into):
            if all(ref() is not searcher for ref in into):
                into.append(weakref.ref(searcher))
                refs.extend(
                    weakref.ref(obj)
                    for obj in (searcher, searcher.shard.residues, searcher.generator.index)
                )

        def recording(ledger, searcher, queries, hitlists):
            watch(searcher, watching.recorded)
            return record(ledger, searcher, queries, hitlists)

        def watching(searcher, queries, hitlists):
            watching.sequences.append(len(searcher.shard))
            watch(searcher, watching.swept)
            if watching.fail_after is not None and len(watching.sequences) > watching.fail_after:
                raise RankFailedError(1, "injected mid-run")
            return run_shard(searcher, queries, hitlists)

        watching.fail_after = None  # runs let through before one fails
        watching.recorded = []  # the searchers passes were recorded against
        watching.swept = []  # the searchers a flush ran
        watching.sequences = []  # the shard size of each run, in sequences
        monkeypatch.setattr(PassLedger, "record", recording)
        monkeypatch.setattr(ShardSearcher, "run", watching)
        return refs, watching

    @pytest.mark.parametrize("algorithm", ["algorithm_a", "algorithm_b", "master_worker"])
    def test_paper_algorithms_free_their_ranks(self, algorithm, watched):
        from repro.core.config import SearchConfig
        from repro.core.driver import run_search
        from repro.workloads import generate_database, generate_queries

        refs, watching = watched
        database = generate_database(40, seed=3)
        queries = generate_queries(24, seed=3)
        with no_cycle_collector():
            report = run_search(database, queries, algorithm, 4, SearchConfig(tau=5))
            assert report.candidates_evaluated > 0
            # A and B: each rank's own searcher, and the one merged sweep
            # over the four shards; master-worker: the caller's database
            ranks = 1 if algorithm == "master_worker" else 4
            assert len(watching.recorded) == ranks and watching.swept
            # the master-worker baseline searches the caller's own database:
            # its buffer and cached mass index live as long as `database`
            own = {id(database.residues), id(database._mass_index)}
            pinned = [obj for ref in refs if (obj := ref()) is not None and id(obj) not in own]
            assert pinned == []

    @pytest.mark.parametrize("algorithm", ["algorithm_a", "algorithm_b"])
    def test_a_run_that_ends_in_rank_failed_error_frees_them_too(self, algorithm, watched):
        from repro.core.config import SearchConfig
        from repro.core.driver import run_search
        from repro.workloads import generate_database, generate_queries

        refs, watching = watched
        # a p = 4 run scores its passes in one flush of one sweep over the
        # four shards laid end to end: fail inside it, the other ranks
        # suspended mid-flight.  Every rank's searcher, shard buffer and
        # row table go, and the merged searcher's too
        watching.fail_after = 0
        database = generate_database(40, seed=3)
        queries = generate_queries(24, seed=3)
        with no_cycle_collector():
            with pytest.raises(RankFailedError, match="injected"):
                run_search(database, queries, algorithm, 4, SearchConfig(tau=5))
            assert watching.sequences == [len(database)]
            assert len(watching.recorded) == 4 and len(watching.swept) == 1
            assert len(refs) == 3 * 5 and [ref() for ref in refs] == [None] * len(refs)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def program(comm):
            comm.expose("w", np.arange(100), 800)
            yield comm.barrier_op()
            req = comm.iget((comm.rank + 1) % comm.size, "w")
            comm.compute(0.01 * (comm.rank + 1))
            comm.wait(req)
            total = yield comm.allreduce_op(comm.clock, "sum")
            return total

        _c1, o1, s1 = run(5, program)
        _c2, o2, s2 = run(5, program)
        assert [o.value for o in o1] == [o.value for o in o2]
        assert s1.makespan == s2.makespan
        assert s1.total_wait == s2.total_wait


class TestCommHelpers:
    def test_payload_nbytes_estimates(self):
        import numpy as np

        from repro.simmpi.comm import _payload_nbytes

        assert _payload_nbytes(None) == 0
        assert _payload_nbytes(np.zeros(10)) == 80
        assert _payload_nbytes(b"abcd") == 4
        assert _payload_nbytes(3.14) == 8
        assert _payload_nbytes([np.zeros(2), 1]) == 24
        assert _payload_nbytes(object()) == 64

    def test_reduce_values_ops(self):
        import numpy as np

        from repro.simmpi.comm import reduce_values

        assert reduce_values([1, 2, 3], "sum") == 6
        assert reduce_values([1, 5, 3], "max") == 5
        assert reduce_values([4, 2, 9], "min") == 2
        arr = reduce_values([np.array([1, 5]), np.array([3, 2])], "max")
        assert list(arr) == [3, 5]
