"""Unit tests for declarative fault plans and their validation."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    FaultPlan,
    NicDegradation,
    RankCrash,
    Straggler,
    TransientFaults,
)
from repro.faults.plan import TransientFaultState


class TestValidation:
    def test_negative_crash_rank_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(RankCrash(-1, 1.0),))

    def test_negative_crash_time_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(RankCrash(0, -0.5),))

    def test_duplicate_crash_ranks_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(RankCrash(1, 1.0), RankCrash(1, 2.0)))

    @pytest.mark.parametrize("factor", [0.0, -0.2, 1.5])
    def test_straggler_factor_out_of_range(self, factor):
        with pytest.raises(FaultPlanError):
            FaultPlan(stragglers=(Straggler(0, factor=factor),))

    @pytest.mark.parametrize("factor", [0.0, 1.01])
    def test_nic_factor_out_of_range(self, factor):
        with pytest.raises(FaultPlanError):
            FaultPlan(nic_degradations=(NicDegradation(0, factor=factor),))

    @pytest.mark.parametrize("probability", [-0.1, 1.0])
    def test_transient_probability_out_of_range(self, probability):
        with pytest.raises(FaultPlanError):
            FaultPlan(transient=TransientFaults(probability=probability))

    def test_validate_for_rejects_out_of_range_rank(self):
        plan = FaultPlan(crashes=(RankCrash(7, 1.0),))
        plan.validate_for(8)  # fits
        with pytest.raises(FaultPlanError):
            plan.validate_for(4)

    def test_validate_for_requires_a_survivor(self):
        plan = FaultPlan(crashes=(RankCrash(0, 1.0), RankCrash(1, 2.0)))
        with pytest.raises(FaultPlanError, match="at least one must survive"):
            plan.validate_for(2)

class TestQueries:
    def test_crash_time_lookup(self):
        plan = FaultPlan(crashes=(RankCrash(2, 3.5),))
        assert plan.crash_time(2) == 3.5
        assert plan.crash_time(0) is None

    def test_speed_factor_activates_at_start(self):
        plan = FaultPlan(stragglers=(Straggler(1, factor=0.5, start=10.0),))
        assert plan.speed_factor(1, 5.0) == 1.0
        assert plan.speed_factor(1, 10.0) == 0.5
        assert plan.speed_factor(0, 20.0) == 1.0

    def test_stragglers_compound(self):
        plan = FaultPlan(
            stragglers=(Straggler(1, factor=0.5), Straggler(1, factor=0.5))
        )
        assert plan.speed_factor(1, 0.0) == 0.25

    def test_bandwidth_factor(self):
        plan = FaultPlan(nic_degradations=(NicDegradation(3, factor=0.25, start=1.0),))
        assert plan.bandwidth_factor(3, 0.0) == 1.0
        assert plan.bandwidth_factor(3, 2.0) == 0.25


class TestPersistence:
    def test_json_round_trip(self):
        plan = FaultPlan(
            crashes=(RankCrash(1, 4.2),),
            stragglers=(Straggler(2, factor=0.6, start=1.0),),
            nic_degradations=(NicDegradation(0, factor=0.3),),
            transient=TransientFaults(probability=0.1, penalty=2e-4, seed=7),
            seed=42,
            description="round trip",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_file(self, tmp_path):
        plan = FaultPlan(crashes=(RankCrash(0, 1.0),), description="on disk")
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(path) == plan

    def test_from_file_missing_is_typed_error(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_file(tmp_path / "nope.json")

    def test_malformed_json_is_typed_error(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{not json")
        with pytest.raises(FaultPlanError, match="must be an object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(FaultPlanError, match="unknown or missing fields"):
            FaultPlan.from_json('{"crashes": [{"who": 1}]}')


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(17, num_ranks=8, horizon=100.0)
        b = FaultPlan.random(17, num_ranks=8, horizon=100.0)
        assert a == b

    def test_different_seeds_eventually_differ(self):
        plans = {FaultPlan.random(s, num_ranks=8, horizon=100.0) for s in range(10)}
        assert len(plans) > 1

    def test_random_plans_are_valid(self):
        for seed in range(20):
            FaultPlan.random(seed, num_ranks=6, horizon=50.0).validate_for(6)

    def test_bad_arguments_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.random(0, num_ranks=0, horizon=10.0)
        with pytest.raises(FaultPlanError):
            FaultPlan.random(0, num_ranks=4, horizon=0.0)


class TestTransientState:
    def test_draws_are_deterministic(self):
        spec = TransientFaults(probability=0.5, seed=3)
        a = [TransientFaultState(spec).failures_for_next_transfer() for _ in range(1)]
        first = TransientFaultState(spec)
        second = TransientFaultState(spec)
        seq_a = [first.failures_for_next_transfer() for _ in range(50)]
        seq_b = [second.failures_for_next_transfer() for _ in range(50)]
        assert seq_a == seq_b
        assert any(k > 0 for k in seq_a)

    def test_failures_bounded_by_max_consecutive(self):
        spec = TransientFaults(probability=0.99, max_consecutive=2, seed=1)
        state = TransientFaultState(spec)
        assert all(state.failures_for_next_transfer() <= 2 for _ in range(100))

    def test_zero_probability_never_fails(self):
        state = TransientFaultState(TransientFaults(probability=0.0))
        assert all(state.failures_for_next_transfer() == 0 for _ in range(20))
