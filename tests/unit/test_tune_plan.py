"""Planner unit tests: profiling, grid enumeration/pruning, the timed pick.

These pin the planner's *decision logic* with a synthetic profile —
plans that cannot run here are pruned with a reason, the grid stays a
handful of plans, a timed trial turns two clock readings per plan into a
non-negative fixed cost and rate, and the pick is the argmin of the
line they give.
"""

import itertools
import multiprocessing
import os

import pytest

from repro.core.config import SearchConfig
from repro.tune import tuner
from repro.tune.plan import (
    CandidatePlan,
    WorkloadProfile,
    enumerate_plans,
    profile_workload,
)
from repro.tune.tuner import (
    SAMPLE_SIZES,
    PlanTrial,
    choose_plan,
    stratified_sample,
    time_plans,
)
from repro.workloads.queries import generate_queries
from repro.workloads.synthetic import generate_database


def make_profile(**overrides):
    base = dict(
        num_queries=200,
        query_bytes=200 * 2048,
        db_sequences=300,
        db_residues=90_000,
        db_nbytes=360_000,
        total_candidates=6_000,
        relative_cost=10.0,
        store={
            "row_bytes": 35_000_000,
            "num_partitions": 17,
            "max_partition_bytes": 2_200_000,
        },
        query_candidates=tuple([30] * 200),
        seq_lengths=tuple([300] * 300),
    )
    base.update(overrides)
    return WorkloadProfile(**base)


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


class TestProfileWorkload:
    def test_real_workload_profile(self, tmp_path):
        db = generate_database(40, seed=5)
        queries = generate_queries(12, seed=6)
        config = SearchConfig()
        profile = profile_workload(db, queries, config)
        assert profile.num_queries == 12
        assert profile.db_sequences == 40
        assert profile.total_candidates == sum(profile.query_candidates)
        assert len(profile.query_candidates) == 12
        assert len(profile.seq_lengths) == 40
        assert profile.relative_cost > 0
        assert profile.store is None
        # the counts are the engine's own, in query order: a search of one
        # query evaluates exactly its entry
        from repro.core.search import search_serial

        for i in (0, 5, 11):
            report = search_serial(db, [queries[i]], config)
            assert report.candidates_evaluated == profile.query_candidates[i]
        # a store adds its geometry, read off the directory: what a
        # streamed pass holds is the same under every scorer
        from repro.store import save_partitioned_index

        store = save_partitioned_index(db, tmp_path / "p", partition_mb=0.5)
        for scorer in ("hyperscore", "likelihood"):
            streamed = profile_workload(db, queries, SearchConfig(scorer=scorer), store=store)
            assert streamed.store == {
                "row_bytes": 12 * store.num_rows,
                "num_partitions": store.num_partitions,
                "max_partition_bytes": store.max_partition_bytes,
            }


class TestEnumeratePruning:
    def test_grid_on_two_cores_is_at_most_four_plans(self, two_cores):
        """{serial, multiproc at the host's width} x {direct, streamed}: the
        knobs with no measured effect are pinned, not enumerated."""
        plans, pruned = enumerate_plans(make_profile())
        assert len(plans) == 4
        assert {(p.engine, p.stream) for p in plans} == set(
            itertools.product(("serial", "multiproc"), (False, True))
        )
        for plan in plans:
            assert plan.sweep_cohort == SearchConfig().sweep_cohort
            if plan.engine == "multiproc":
                assert (plan.num_workers, plan.query_blocks) == (2, 4)
        no_store, _ = enumerate_plans(make_profile(store=None))
        assert len(no_store) == 2

    def test_spawn_plan_only_when_fork_is_missing(self, two_cores, monkeypatch):
        plans, _ = enumerate_plans(make_profile())
        if "fork" in multiprocessing.get_all_start_methods():
            assert {p.start_method for p in plans} == {None, "fork"}
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        plans, _ = enumerate_plans(make_profile())
        assert {p.start_method for p in plans} == {None, "spawn"}
        assert len(plans) == 4  # a fallback, not an extra axis

    def test_posting_less_scorer_keeps_its_stream_plans(self, two_cores, tmp_path):
        """A streamed plan is a budgeted direct pass over the partitions'
        rows under any scorer: feasible for the paper's likelihood model
        exactly as for hyperscore, and timed like any other."""
        from repro.store import save_partitioned_index

        db = generate_database(40, seed=5)
        queries = generate_queries(12, seed=6)
        store = save_partitioned_index(db, tmp_path / "p", partition_mb=0.5)
        for scorer in ("likelihood", "hyperscore"):
            profile = profile_workload(db, queries, SearchConfig(scorer=scorer), store=store)
            plans, pruned = enumerate_plans(profile)
            assert {p.stream for p in plans} == {False, True}
            assert all("oversubscribe" in reason for _, reason in pruned)

    def test_no_store_prunes_streamed_plans(self, two_cores):
        plans, pruned = enumerate_plans(make_profile(store=None))
        assert plans and all(not p.stream for p in plans)
        assert any("no partitioned store" in reason for _, reason in pruned)

    def test_no_store_yields_only_direct_plans(self, two_cores):
        plans, pruned = enumerate_plans(make_profile(store=None))
        assert {p.engine for p in plans} == {"serial", "multiproc"}
        assert all(":direct:" in p.label and "index" not in p.label for p in plans)
        assert all(plan.stream or plan.num_workers > 2 for plan, _ in pruned)

    def test_budget_prunes_resident_but_not_streamed(self, two_cores):
        # budget holds the streamed double buffer but not the database a
        # direct plan keeps resident
        budget_mb = 12.0
        plans, pruned = enumerate_plans(
            make_profile(db_nbytes=50_000_000), memory_budget_mb=budget_mb
        )
        assert plans and all(p.stream for p in plans)
        assert all(p.memory_budget_mb == budget_mb for p in plans)
        assert any("resident footprint" in reason for _, reason in pruned)
        tight, pruned = enumerate_plans(
            make_profile(db_nbytes=50_000_000), memory_budget_mb=1.0
        )
        assert tight == []
        assert any("double buffer" in reason for _, reason in pruned)

    def test_oversubscription_pruned(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        plans, pruned = enumerate_plans(make_profile())
        assert {p.engine for p in plans} == {"serial"}
        wide = [(plan, reason) for plan, reason in pruned if plan.engine == "multiproc"]
        assert {plan.num_workers for plan, _ in wide} == {2, 4}
        assert all("oversubscribe a 1-core host" in reason for _, reason in wide)

    def test_grid_covers_both_engines(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        plans, pruned = enumerate_plans(make_profile())
        assert not pruned
        assert {(p.engine, p.num_workers) for p in plans} == {
            ("serial", 1), ("multiproc", 2), ("multiproc", 4)
        }


class ScriptedRuns:
    """Stands in for ``run_plan``: no search runs, the injected clock is
    advanced by what the script says this plan costs on this sample."""

    def __init__(self, cost):
        self.cost = cost  #: (plan, num sample queries, call index) -> seconds
        self.now = 0.0
        self.calls = []

    def clock(self):
        return self.now

    def run_plan(self, plan, database, queries, config, *, store=None, clock):
        t0 = clock()
        self.now += self.cost(plan, len(queries), len(self.calls))
        self.calls.append((plan, len(queries)))
        return None, clock() - t0


class TestTimePlans:
    PLANS = [
        CandidatePlan(),
        CandidatePlan(engine="multiproc", num_workers=2, query_blocks=4, start_method="fork"),
    ]

    def profile(self, m, per_query=30):
        return make_profile(
            num_queries=m,
            total_candidates=per_query * m,
            query_candidates=tuple([per_query] * m),
        )

    def test_injected_clock_gives_nonnegative_terms_and_an_argmin_pick(self, monkeypatch):
        """Serial: no fixed cost, 4 us a candidate.  Multiproc: 80 ms of
        pool start, 2 us a candidate.  The first round is 10x slow (a
        cold start) and best-of-three must discard it."""

        def cost(plan, num_queries, call):
            cold = 10.0 if call < 4 else 1.0
            candidates = 30 * num_queries
            if plan.engine == "serial":
                return cold * 4e-6 * candidates
            return cold * (0.08 + 2e-6 * candidates)

        runs = ScriptedRuns(cost)
        monkeypatch.setattr(tuner, "run_plan", runs.run_plan)
        queries = generate_queries(2000, seed=3)
        profile = self.profile(2000)
        trials, sizes = time_plans(
            self.PLANS, None, queries, SearchConfig(), profile, clock=runs.clock
        )
        assert sizes == SAMPLE_SIZES
        assert len(runs.calls) == 3 * len(self.PLANS) * 2
        serial, pool = trials
        assert serial.fixed_s == pytest.approx(0.0, abs=1e-9)
        assert serial.seconds_per_candidate == pytest.approx(4e-6)
        assert pool.fixed_s == pytest.approx(0.08)
        assert pool.seconds_per_candidate == pytest.approx(2e-6)
        for trial in trials:
            assert trial.fixed_s >= 0 and trial.seconds_per_candidate >= 0
            assert trial.predicted_s == pytest.approx(
                trial.fixed_s + trial.seconds_per_candidate * profile.total_candidates
            )
        # 60 000 candidates: 0.24 s serial against 0.08 + 0.12 s
        assert choose_plan(trials)[0].plan.engine == "multiproc"
        # 400 queries, 12 000 candidates: 0.048 s against 0.104 s
        small = self.profile(400)
        trials, _ = time_plans(
            self.PLANS, None, queries[:400], SearchConfig(), small, clock=runs.clock
        )
        ranked = choose_plan(trials)
        assert ranked[0].plan.engine == "serial"
        assert ranked[0].predicted_s == min(t.predicted_s for t in trials)

    def test_noise_never_yields_a_negative_fixed_cost(self, monkeypatch):
        """A small sample that happens to time *slower* per candidate than
        the large one tips the line below zero at the origin (it did: one
        2000 x 2000 line read -0.003 s): the fixed cost clips to 0 and the
        rate is the large sample's own."""

        def cost(plan, num_queries, call):
            return 1e-4 if num_queries == SAMPLE_SIZES[0] else 0.5

        runs = ScriptedRuns(cost)
        monkeypatch.setattr(tuner, "run_plan", runs.run_plan)
        profile = self.profile(2000)
        trials, _ = time_plans(
            self.PLANS[:1], None, generate_queries(2000, seed=3), SearchConfig(),
            profile, clock=runs.clock,
        )
        (trial,) = trials
        assert trial.fixed_s == 0.0
        assert trial.seconds_per_candidate == pytest.approx(0.5 / (30 * SAMPLE_SIZES[1]))
        assert trial.predicted_s > 0

    def test_a_pool_is_never_timed_faster_than_its_workers_allow(self, monkeypatch):
        """Two fixed-cost-dominated points whose difference is mostly noise
        read as a near-free rate, and an 8x extrapolation turns that into a
        pick (regret 1.55 in 2 of 8 trials at 2000 x 2000).  A pool of w
        workers cannot score faster than w serial passes: the rate is held
        at its serial twin's / w, the line still through the large sample."""

        def cost(plan, num_queries, call):
            candidates = 30 * num_queries
            if plan.engine == "serial":
                return 4e-6 * candidates
            return 0.2 + 1e-7 * candidates  # 40x "speedup" on two workers

        runs = ScriptedRuns(cost)
        monkeypatch.setattr(tuner, "run_plan", runs.run_plan)
        profile = self.profile(2000)
        trials, _ = time_plans(
            list(reversed(self.PLANS)), None, generate_queries(2000, seed=3),
            SearchConfig(), profile, clock=runs.clock,
        )
        pool, serial = trials  # returned in the order given
        assert pool.plan.engine == "multiproc"
        assert pool.seconds_per_candidate == pytest.approx(serial.seconds_per_candidate / 2)
        large = 30 * SAMPLE_SIZES[1]
        assert pool.fixed_s + pool.seconds_per_candidate * large == pytest.approx(
            0.2 + 1e-7 * large
        )

    def test_small_workload_is_timed_whole_not_extrapolated(self, monkeypatch):
        runs = ScriptedRuns(lambda plan, num_queries, call: 0.01 * num_queries)
        monkeypatch.setattr(tuner, "run_plan", runs.run_plan)
        m = SAMPLE_SIZES[0] - 2
        trials, sizes = time_plans(
            self.PLANS, None, generate_queries(m, seed=3), SearchConfig(),
            self.profile(m), clock=runs.clock,
        )
        assert sizes == (m,)
        assert {n for _, n in runs.calls} == {m}
        for trial in trials:
            assert trial.seconds_per_candidate == 0.0
            assert trial.predicted_s == trial.fixed_s == pytest.approx(0.01 * m)
        # between the two sample sizes the large sample is the workload
        # itself, so the line read at m is the measurement
        m = 40
        trials, sizes = time_plans(
            self.PLANS[:1], None, generate_queries(m, seed=3), SearchConfig(),
            self.profile(m), clock=runs.clock,
        )
        assert sizes == (SAMPLE_SIZES[0], m)
        assert trials[0].predicted_s == pytest.approx(0.01 * m)

    def test_samples_are_mass_stratified_runs(self):
        """Eight strata, a run of mass-consecutive queries from the middle
        of each: every region of the mass axis, at the workload's own
        window overlap."""
        import numpy as np

        rng = np.random.default_rng(7)
        masses = rng.uniform(500.0, 4000.0, size=1000)
        ranks = np.argsort(np.argsort(masses))
        small = stratified_sample(masses, 8)
        assert len(small) == 8 and list(small) == sorted(small)
        assert sorted(ranks[small] // 125) == list(range(8))  # one per stratum
        large = stratified_sample(masses, 256)
        assert len(large) == 256 and len(set(large)) == 256
        by_rank = np.sort(ranks[large])
        runs = np.split(by_rank, np.flatnonzero(np.diff(by_rank) > 1) + 1)
        assert [len(r) for r in runs] == [32] * 8
        assert list(stratified_sample(masses[:100], 256)) == list(range(100))


class TestChoosePlan:
    def test_returns_argmin_and_full_ranking(self):
        trials = [
            PlanTrial(CandidatePlan(stream=stream, engine=engine), predicted, 0.0, 0)
            for engine, stream, predicted in [
                ("serial", False, 0.3),
                ("serial", True, 0.1),
                ("multiproc", False, 0.1),
                ("multiproc", True, 0.2),
            ]
        ]
        ranked = choose_plan(trials)
        assert [t.predicted_s for t in ranked] == [0.1, 0.1, 0.2, 0.3]
        assert len(ranked) == len(trials)
        # a tie keeps grid order: the simpler plan wins it
        assert ranked[0].plan == CandidatePlan(stream=True)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="no feasible plans"):
            choose_plan([])
