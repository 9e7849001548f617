"""Planner unit tests: profiling, grid enumeration/pruning, prediction.

These pin the planner's *decision logic* with a synthetic profile —
plans that cannot work are pruned with a reason, predicted makespans
respond to the knobs in the physically required direction, and
``choose_plan`` returns the argmin of its own predictions.
"""

import dataclasses

import pytest

from repro.core.config import SearchConfig
from repro.core.costmodel import CostModel
from repro.tune.plan import (
    CandidatePlan,
    WorkloadProfile,
    choose_plan,
    enumerate_plans,
    os_cpu_count,
    predict_makespan,
    profile_workload,
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
        scorer_indexable=True,
        index_served_fraction=0.8,
        cohorts={4: 60, 16: 50, 64: 40, 256: 30, 1024: 25},
        store={
            "blob_bytes": 9_000_000,
            "decoded_bytes": 35_000_000,
            "num_partitions": 17,
            "max_partition_bytes": 2_200_000,
        },
        query_candidates=tuple([30] * 200),
        seq_lengths=tuple([300] * 300),
    )
    base.update(overrides)
    return WorkloadProfile(**base)


class TestProfileWorkload:
    def test_real_workload_profile(self):
        db = generate_database(40, seed=5)
        queries = generate_queries(12, seed=6)
        profile = profile_workload(db, queries, SearchConfig())
        assert profile.num_queries == 12
        assert profile.db_sequences == 40
        assert profile.total_candidates == sum(profile.query_candidates)
        assert len(profile.query_candidates) == 12
        assert len(profile.seq_lengths) == 40
        assert profile.relative_cost > 0
        # cohort counts decrease (weakly) as the cap loosens
        caps = sorted(profile.cohorts)
        counts = [profile.cohorts[c] for c in caps]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("cap", [4, 16, 64])
    def test_profile_predicts_the_blocks_a_serial_sweep_forms(self, cap):
        from repro.core.search import search_serial

        db = generate_database(60, seed=5)
        queries = generate_queries(90, seed=6)
        config = SearchConfig(sweep_cohort=cap)
        profile = profile_workload(db, queries, config)
        report = search_serial(db, queries, config)
        assert profile.cohorts_for(cap) == report.extras["sweep_cohorts"]
        assert -(-len(queries) // cap) <= profile.cohorts_for(cap) < len(queries)

    def test_cohorts_for_interpolates(self):
        profile = make_profile()
        assert profile.cohorts_for(64) == 40
        assert profile.cohorts_for(100) in (40, 30)  # nearest computed cap
        assert make_profile(cohorts={}).cohorts_for(64) == 200


class TestEnumeratePruning:
    def test_posting_less_scorer_keeps_its_stream_plans(self):
        """A scorer without a posting kernel streams as a budgeted direct
        pass: the plans are feasible, priced as decode plus full-rate
        evaluation of every row, on the per-worker partition-range grid."""
        profile = make_profile(scorer_indexable=False, index_served_fraction=0.0)
        plans, pruned = enumerate_plans(profile, engines=("serial",))
        assert not pruned and {p.stream for p in plans} == {False, True}
        cost = dataclasses.replace(CostModel(), index_probe_discount=0.1)
        streamed = predict_makespan(CandidatePlan(stream=True), profile, cost)
        direct = predict_makespan(CandidatePlan(), profile, cost)
        assert streamed.phases["evaluation"] == pytest.approx(direct.phases["evaluation"])
        assert streamed.phases["partition_decode"] > 0
        two = predict_makespan(
            CandidatePlan(engine="multiproc", stream=True, num_workers=2, start_method="fork"),
            profile,
            cost,
        )
        assert two.phases["task_dispatch"] == pytest.approx(cost.task_dispatch_time(2))

    def test_profile_reads_the_posting_predicate(self, tmp_path):
        """``scorer_indexable`` is ``FragmentIndex.serves``: the served
        fraction of a store is 0 for a posting-less scorer, and all but
        the overflow spans for a posting-served one."""
        from repro.store import save_partitioned_index

        db = generate_database(40, seed=5)
        queries = generate_queries(12, seed=6)
        store = save_partitioned_index(db, tmp_path / "p", partition_mb=0.5, max_length=12)
        served = {}
        for scorer in ("hyperscore", "likelihood", "xcorr", "hypergeometric"):
            profile = profile_workload(db, queries, SearchConfig(scorer=scorer), store=store)
            served[scorer] = (profile.scorer_indexable, profile.index_served_fraction)
        assert served["hyperscore"][0] and 0.0 < served["hyperscore"][1] < 1.0
        for scorer in ("likelihood", "xcorr", "hypergeometric"):
            assert served[scorer] == (False, 0.0)

    def test_no_store_prunes_streamed_plans(self):
        plans, pruned = enumerate_plans(
            make_profile(store=None), engines=("serial",), allow_stream=True
        )
        assert plans and all(not p.stream for p in plans)
        assert any("no partitioned store" in reason for _, reason in pruned)

    def test_no_store_yields_only_direct_plans(self):
        plans, pruned = enumerate_plans(
            make_profile(store=None), start_methods=("fork",), allow_stream=False
        )
        assert plans and not pruned
        assert all(":direct:" in p.label and "index" not in p.label for p in plans)

    def test_budget_prunes_resident_but_not_streamed(self):
        # budget holds the streamed double buffer but not the database a
        # direct plan keeps resident
        budget_mb = 12.0
        plans, pruned = enumerate_plans(
            make_profile(db_nbytes=50_000_000), engines=("serial",),
            memory_budget_mb=budget_mb,
        )
        assert plans and all(p.stream for p in plans)
        assert any("resident footprint" in reason for _, reason in pruned)

    def test_oversubscription_pruned(self):
        plans, pruned = enumerate_plans(
            make_profile(),
            engines=("multiproc",),
            worker_choices=(os_cpu_count() + 1,),
            start_methods=("fork",),
        )
        assert plans == []
        assert pruned
        assert all("oversubscribe" in reason for _, reason in pruned)

    def test_grid_covers_both_engines(self):
        plans, _ = enumerate_plans(
            make_profile(),
            worker_choices=(1,),
            start_methods=("fork",),
        )
        assert {p.engine for p in plans} == {"serial", "multiproc"}


class TestPredictMakespan:
    def test_streamed_plan_has_stream_phases(self):
        pred = predict_makespan(
            CandidatePlan(stream=True), make_profile(), CostModel()
        )
        assert "partition_decode" in pred.phases
        assert "partition_exposed_io" in pred.phases
        assert pred.total == pytest.approx(sum(pred.phases.values()))

    def test_spawn_charges_transport_fork_does_not(self):
        profile, cost = make_profile(), CostModel()
        spawn = predict_makespan(
            CandidatePlan(engine="multiproc", num_workers=1, start_method="spawn"),
            profile,
            cost,
        )
        fork = predict_makespan(
            CandidatePlan(engine="multiproc", num_workers=1, start_method="fork"),
            profile,
            cost,
        )
        assert "transport" in spawn.phases
        assert "transport" not in fork.phases
        assert spawn.total > fork.total

    def test_oversubscribed_workers_predict_no_speedup(self):
        """More workers than cores must not predict less wall time."""
        profile, cost = make_profile(), CostModel()
        cpus = os_cpu_count()
        at_cap = predict_makespan(
            CandidatePlan(engine="multiproc", num_workers=cpus, start_method="fork"),
            profile,
            cost,
        )
        over = predict_makespan(
            CandidatePlan(
                engine="multiproc", num_workers=cpus * 4, start_method="fork"
            ),
            profile,
            cost,
        )
        assert over.total >= at_cap.total

    def test_multiproc_phases_follow_the_engines_task_grid(self):
        """Direct plans keep the database whole (bookkeeping paid once,
        tasks = floored query blocks); streamed plans pay it per
        partition range."""
        profile, cost = make_profile(), CostModel()
        serial = predict_makespan(CandidatePlan(), profile, cost)
        for workers, asked, tasks in [(2, 1, 2), (2, 4, 4), (3, 1, 3)]:
            direct = predict_makespan(
                CandidatePlan(
                    engine="multiproc", num_workers=workers,
                    query_blocks=asked, start_method="fork",
                ),
                profile,
                cost,
            )
            eff = min(workers, os_cpu_count())
            assert direct.phases["task_dispatch"] == pytest.approx(
                cost.task_dispatch_time(tasks)
            )
            assert direct.phases["query_overhead"] == pytest.approx(
                serial.phases["query_overhead"] / eff
            )
        indexed = predict_makespan(
            CandidatePlan(
                engine="multiproc", stream=True, num_workers=2, query_blocks=4,
                start_method="fork",
            ),
            profile,
            cost,
        )
        assert indexed.phases["task_dispatch"] == pytest.approx(
            cost.task_dispatch_time(2 * 4)
        )
        assert indexed.phases["query_overhead"] == pytest.approx(
            serial.phases["query_overhead"] * 2 / min(2, os_cpu_count())
        )

    def test_index_discount_lowers_prediction(self):
        profile = make_profile(index_served_fraction=0.9)
        cost = dataclasses.replace(CostModel(), index_probe_discount=0.1)
        indexed = predict_makespan(CandidatePlan(stream=True), profile, cost)
        direct = predict_makespan(CandidatePlan(), profile, cost)
        assert indexed.phases["evaluation"] < direct.phases["evaluation"]


class TestChoosePlan:
    def test_returns_argmin_and_full_ranking(self):
        profile, cost = make_profile(), CostModel()
        plans, _ = enumerate_plans(
            profile, engines=("serial",), sweep_cohorts=(64,)
        )
        chosen, prediction, ranking = choose_plan(plans, profile, cost)
        assert chosen == ranking[0][0]
        assert prediction.total == ranking[0][1].total
        totals = [pred.total for _, pred in ranking]
        assert totals == sorted(totals)
        assert len(ranking) == len(plans)

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="no feasible plans"):
            choose_plan([], make_profile(), CostModel())
