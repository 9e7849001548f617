"""The analytic overlap projection the experiments aggregate reports.

Pins the workload profile it reads (exact engine counts, in query
order) and the point invariants at the default simulated rank counts:
overlap efficiency is a fraction, residual communication is never
negative, and the floor is the larger of its two terms.
"""

import pytest

from repro.core.config import SearchConfig
from repro.core.search import search_serial
from repro.experiments.lower_bounds import (
    DEFAULT_PROJECTION_RANKS,
    overlap_projection,
    profile_workload,
)
from repro.simmpi.network import NetworkModel
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


@pytest.fixture(scope="module")
def profile():
    db, queries = generate_database(120, seed=202), generate_queries(40, seed=17)
    return profile_workload(db, queries, SearchConfig())


class TestProfileWorkload:
    def test_real_workload_profile(self):
        db = generate_database(40, seed=5)
        queries = generate_queries(12, seed=6)
        config = SearchConfig()
        profile = profile_workload(db, queries, config)
        assert profile.num_queries == 12
        assert profile.db_sequences == 40
        assert profile.db_nbytes == db.nbytes
        assert profile.total_candidates == sum(profile.query_candidates)
        assert len(profile.query_candidates) == 12
        assert len(profile.seq_lengths) == 40
        assert profile.relative_cost > 0
        # the counts are the engine's own, in query order: a search of one
        # query evaluates exactly its entry
        for i in (0, 5, 11):
            report = search_serial(db, [queries[i]], config)
            assert report.candidates_evaluated == profile.query_candidates[i]


class TestOverlapProjection:
    @pytest.mark.parametrize("software_rma", [True, False])
    def test_point_invariants(self, profile, software_rma):
        projection = overlap_projection(
            profile, network=NetworkModel(software_rma=software_rma)
        )
        points = projection["points"]
        assert DEFAULT_PROJECTION_RANKS == (128, 512, 1024)
        assert set(points) == {"128", "512", "1024"}
        for p, point in points.items():
            assert point["ranks"] == int(p)
            assert 0.0 <= point["overlap_efficiency"] <= 1.0
            assert point["residual_to_compute"] >= 0.0
            assert point["floor_makespan_s"] == pytest.approx(
                max(point["comm_floor_s"], point["compute_floor_s"])
            )

    def test_named_ranks_only(self, profile):
        assert set(overlap_projection(profile, ranks=(2, 8))["points"]) == {"2", "8"}
