"""Integration: the paper's space claims (Sections I and III).

* The replicated-database baselines (master-worker, X!!Tandem-like) hold
  O(N) per rank and crash out of memory past a size cap — "the maximum
  database size that the current implementation was able to handle was
  1.27 million protein sequences" at 1 GB/rank.
* Algorithms A and B hold O((N + m)/p): peak per-rank memory *falls* as
  p grows, and a database that OOMs the baseline fits the distributed
  algorithms.
* Extrapolated to 1 GB/rank, Algorithm A admits ~420K sequences per
  added rank and the replicated wall sits at ~1.27 M sequences.
"""

import pytest

from repro.core.config import ExecutionMode, SearchConfig
from repro.core.costmodel import CostModel
from repro.core.driver import run_search
from repro.errors import OutOfMemoryError
from repro.simmpi.scheduler import ClusterConfig
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database

#: a small simulated RAM cap so the tests exercise the 1 GB phenomenology
#: without building GB-scale inputs: 600 KB per rank.
CAP = 600_000

MODELED = SearchConfig(execution=ExecutionMode.MODELED, tau=10)


@pytest.fixture(scope="module")
def db():
    # ~700 sequences * (315 residues + 520 B metadata) ~ 585 KB footprint:
    # fits one 600 KB rank barely, so 2x the size must OOM the baseline
    return generate_database(700, seed=30)


@pytest.fixture(scope="module")
def big_db():
    return generate_database(1400, seed=30)


@pytest.fixture(scope="module")
def queries():
    return generate_queries(20, seed=31)


def cluster(p):
    return ClusterConfig(num_ranks=p, ram_per_rank=CAP)


@pytest.fixture(scope="module")
def max_fitting(queries):
    """Largest database (sequences, by binary search) that ``algorithm``
    fits on ``p`` ranks of ``CAP`` bytes each, memoized per module."""
    found = {}

    def search(algorithm, p):
        if (algorithm, p) not in found:
            lo, hi = 100, 6000
            while lo < hi:
                mid = (lo + hi + 1) // 2
                db = generate_database(mid, seed=32)
                try:
                    run_search(
                        db, queries, algorithm, p, MODELED,
                        cluster_config=cluster(p),
                    )
                    lo = mid
                except OutOfMemoryError:
                    hi = mid - 1
            found[algorithm, p] = lo
        return found[algorithm, p]

    return search


class TestReplicatedBaselineWall:
    def test_baseline_fits_at_capacity(self, db, queries):
        run_search(db, queries, "master_worker", 3, MODELED, cluster_config=cluster(3))

    def test_baseline_oom_past_capacity(self, big_db, queries):
        with pytest.raises(OutOfMemoryError):
            run_search(
                big_db, queries, "master_worker", 3, MODELED, cluster_config=cluster(3)
            )

    def test_baseline_oom_not_fixed_by_more_ranks(self, big_db, queries):
        """Replication means added ranks do NOT raise the size cap."""
        with pytest.raises(OutOfMemoryError):
            run_search(
                big_db, queries, "master_worker", 8, MODELED, cluster_config=cluster(8)
            )

    def test_xbang_shares_the_wall(self, big_db, queries):
        with pytest.raises(OutOfMemoryError):
            run_search(big_db, queries, "xbang", 4, MODELED, cluster_config=cluster(4))


class TestDistributedAlgorithmsScale:
    @pytest.mark.parametrize("algorithm", ["algorithm_a", "algorithm_b"])
    def test_database_that_ooms_baseline_fits_distributed(self, big_db, queries, algorithm):
        # B needs a little headroom over A: counting-sorted shards are
        # O(N/p) but not byte-perfect (same-key sequences stay together)
        cap = CAP if algorithm == "algorithm_a" else int(CAP * 1.25)
        report = run_search(
            big_db, queries, algorithm, 8, MODELED,
            cluster_config=ClusterConfig(num_ranks=8, ram_per_rank=cap),
        )
        assert report.max_peak_memory <= cap

    def test_peak_memory_shrinks_with_p(self, big_db, queries):
        peaks = {}
        for p in (4, 8, 16):
            rep = run_search(
                big_db, queries, "algorithm_a", p, MODELED,
                cluster_config=ClusterConfig(num_ranks=p, ram_per_rank=1 << 30),
            )
            peaks[p] = rep.max_peak_memory
        assert peaks[8] < peaks[4]
        assert peaks[16] < peaks[8]

    def test_space_bound_three_buffers(self, big_db, queries):
        """Peak must stay within 3 shard footprints + query block (the
        paper's Di + Drecv + Dcomp analysis), computed from the actual
        partition."""
        from repro.core.partition import partition_database

        p = 8
        cost = CostModel()
        rep = run_search(
            big_db, queries, "algorithm_a", p, MODELED,
            cluster_config=ClusterConfig(num_ranks=p, ram_per_rank=1 << 30),
        )
        max_shard = max(cost.shard_bytes(s) for s in partition_database(big_db, p))
        query_budget = sum(q.nbytes for q in queries)
        assert rep.max_peak_memory <= 3 * max_shard + query_budget

    def test_scaling_sequences_per_rank(self, max_fitting):
        """Adding a rank admits ~420K more sequences at the paper's scale;
        here (tiny cap) the same linearity must hold: the largest DB that
        fits at 2p ranks is ~2x the largest that fits at p."""
        at4 = max_fitting("algorithm_a", 4)
        at8 = max_fitting("algorithm_a", 8)
        assert at8 / at4 == pytest.approx(2.0, rel=0.25)


class TestExtrapolationToOneGigabyte:
    """The small-cap searches, scaled by ``2**30 / CAP``, land on the
    paper's 1 GB/rank numbers: one metadata constant plus the O(N/p)
    three-buffer structure carry the extrapolation."""

    def test_replicated_wall_is_flat_in_p(self, max_fitting):
        assert max_fitting("master_worker", 8) <= max_fitting("master_worker", 4) * 1.1

    def test_algorithm_a_admits_420k_sequences_per_added_rank(self, max_fitting):
        per_rank = (max_fitting("algorithm_a", 8) - max_fitting("algorithm_a", 4)) / 4
        assert per_rank * (1 << 30) / CAP == pytest.approx(420_000, rel=0.25)

    def test_replicated_wall_is_1_27m_sequences(self, max_fitting):
        wall = max_fitting("master_worker", 8) * (1 << 30) / CAP
        assert wall == pytest.approx(1_270_000, rel=0.25)
