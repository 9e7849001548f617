"""Integration: communication masking and residual-communication behavior.

The paper measured (Section III) that masking communication with
computation reduces run-time, and that residual communication stays a
bounded fraction of compute.  We assert the *direction and structure* of
those effects; EXPERIMENTS.md discusses why the paper's specific 72.75%
reduction is not reachable from its own reported volumes.
"""

import pytest

from repro.core.algorithm_a import run_algorithm_a
from repro.core.config import ExecutionMode, SearchConfig
from repro.simmpi.network import NetworkModel
from repro.simmpi.scheduler import ClusterConfig
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

MODELED = SearchConfig(execution=ExecutionMode.MODELED, tau=10)


@pytest.fixture(scope="module")
def db():
    return generate_database(800, seed=40)


@pytest.fixture(scope="module")
def queries():
    return generate_queries(60, seed=41)


def slow_network(**kw):
    """Transfers material (unmasked run clearly slower) but still small
    enough per iteration that prefetch can hide them behind compute."""
    return NetworkModel(latency=2e-4, byte_cost=1e-7, **kw)


class TestMasking:
    def test_masked_never_slower(self, db, queries):
        for p in (4, 8):
            cc = ClusterConfig(num_ranks=p, network=slow_network())
            masked = run_algorithm_a(db, queries, p, MODELED, mask=True, cluster_config=cc)
            cc2 = ClusterConfig(num_ranks=p, network=slow_network())
            unmasked = run_algorithm_a(db, queries, p, MODELED, mask=False, cluster_config=cc2)
            assert masked.virtual_time <= unmasked.virtual_time * 1.001

    def test_masking_saves_when_comm_is_material(self, db, queries):
        p = 8
        net = slow_network(software_rma=False)
        masked = run_algorithm_a(
            db, queries, p, MODELED, mask=True,
            cluster_config=ClusterConfig(num_ranks=p, network=net),
        )
        unmasked = run_algorithm_a(
            db, queries, p, MODELED, mask=False,
            cluster_config=ClusterConfig(num_ranks=p, network=net),
        )
        # every byte of wire time shows up in the unmasked run
        assert unmasked.virtual_time > masked.virtual_time
        assert masked.extras["masking_effectiveness"] > 0.9
        assert unmasked.extras["masking_effectiveness"] < 0.1

    def test_saving_grows_as_the_network_slows(self, db, queries):
        """Masking saves little on gigabit, where transfers are tiny next
        to scoring, and a substantial share on a 100x slower wire."""

        def saving(byte_cost_factor):
            net = NetworkModel(byte_cost=NetworkModel().byte_cost * byte_cost_factor)
            masked, unmasked = (
                run_algorithm_a(
                    db, queries, 8, MODELED, mask=mask,
                    cluster_config=ClusterConfig(num_ranks=8, network=net),
                )
                for mask in (True, False)
            )
            return 1.0 - masked.virtual_time / unmasked.virtual_time

        gigabit, slow = saving(1), saving(100)
        assert slow > gigabit
        assert slow > 0.15

    def test_masked_output_identical_to_unmasked(self, db):
        real = SearchConfig(tau=5)
        queries = generate_queries(8, seed=42)
        from repro.core.results import reports_equal

        a = run_algorithm_a(db, queries, 4, real, mask=True)
        b = run_algorithm_a(db, queries, 4, real, mask=False)
        assert reports_equal(a, b)


class TestResidualCommunication:
    def test_residual_reported(self, db, queries):
        rep = run_algorithm_a(db, queries, 8, MODELED)
        assert "residual_to_compute" in rep.extras
        assert rep.extras["residual_to_compute"] >= 0.0

    def test_residual_bounded_fraction_of_compute(self, db, queries):
        """The paper's ratio was 0.36 +/- 0.11 on its cluster; ours must
        stay a *bounded, sane* fraction (not runaway) for p in 4..32."""
        for p in (4, 8, 16, 32):
            rep = run_algorithm_a(db, queries, p, MODELED)
            assert rep.extras["residual_to_compute"] < 1.0, f"p={p}"

    def test_rdma_network_removes_rendezvous_residual(self, db, queries):
        sw = run_algorithm_a(db, queries, 8, MODELED)
        hw = run_algorithm_a(
            db, queries, 8, MODELED,
            cluster_config=ClusterConfig(
                num_ranks=8, network=NetworkModel(software_rma=False)
            ),
        )
        assert hw.trace.total_wait <= sw.trace.total_wait
