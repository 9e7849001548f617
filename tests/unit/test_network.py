"""Unit tests for the network cost model."""

import pytest

from repro.simmpi.network import NetworkModel, ZERO_NETWORK


class TestNetworkModel:
    def test_transfer_time(self):
        net = NetworkModel(latency=1e-3, byte_cost=1e-6)
        assert net.transfer_time(0) == pytest.approx(1e-3)
        assert net.transfer_time(1000) == pytest.approx(2e-3)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(latency=-1.0)

    def test_barrier_grows_logarithmically(self):
        net = NetworkModel(latency=1e-3, byte_cost=0.0)
        assert net.barrier_time(1) == 0.0
        assert net.barrier_time(2) == pytest.approx(1e-3)
        assert net.barrier_time(8) == pytest.approx(3e-3)
        assert net.barrier_time(9) == pytest.approx(4e-3)

    def test_allreduce_linear_grows_with_p(self):
        net = NetworkModel(latency=1e-4, byte_cost=1e-8, allreduce_linear=True)
        t8 = net.allreduce_time(8, 10_000)
        t64 = net.allreduce_time(64, 10_000)
        assert t64 / t8 == pytest.approx(63 / 7)

    def test_allreduce_tree_grows_logarithmically(self):
        net = NetworkModel(latency=1e-4, byte_cost=1e-8, allreduce_linear=False)
        assert net.allreduce_time(64, 1000) / net.allreduce_time(8, 1000) == pytest.approx(2.0)

    def test_allreduce_single_rank_free(self):
        assert NetworkModel().allreduce_time(1, 10**6) == 0.0

    def test_alltoallv_bounded_by_busiest_endpoint(self):
        net = NetworkModel(latency=0.0, byte_cost=1e-6)
        assert net.alltoallv_time(4, 1000, 5000) == pytest.approx(5e-3)

    def test_zero_network(self):
        assert ZERO_NETWORK.transfer_time(10**9) == 0.0
        assert ZERO_NETWORK.allreduce_time(128, 10**9) == 0.0

    def test_defaults_match_paper_testbed(self):
        net = NetworkModel()
        # gigabit ethernet: ~125 MB/s, tens of microseconds latency
        assert 1.0 / net.byte_cost == pytest.approx(125 * 1024 * 1024)
        assert net.latency == pytest.approx(50e-6)
        assert net.software_rma  # the paper's cluster had no RDMA
