"""Unit semantics of repro.faults: plans, pricing, specs, CLI grammar.

Covers the pure pieces with no simulation in the loop: fault-plan
validation and window algebra, the time-varying cost wrapper's window
selection, straggler composition, migration byte/latency arithmetic,
resilience-spec validation and deterministic backoff, and the CLI fault
grammar round-trip.
"""

import math

import pytest

from repro.cli import _format_fault_specs, _parse_fault_specs
from repro.faults import (
    BrownoutEvent,
    DegradeEvent,
    FailureEvent,
    FaultPlan,
    MigrationSpec,
    OutcomeRecord,
    ResilienceSpec,
    TimeVaryingStepCost,
)
from repro.graph.straggler import StragglerSpec
from repro.moe.config import MIXTRAL_8X7B


class TestDegradeEvent:
    def test_validates_window_and_multipliers(self):
        with pytest.raises(ValueError):
            DegradeEvent(replica=0, t0_ms=100.0, t1_ms=100.0, compute_mult=2.0)
        with pytest.raises(ValueError):
            DegradeEvent(replica=0, t0_ms=-1.0, t1_ms=10.0, compute_mult=2.0)
        with pytest.raises(ValueError):
            DegradeEvent(replica=0, t0_ms=0.0, t1_ms=10.0, compute_mult=0.0)
        # all-unit multipliers degrade nothing
        with pytest.raises(ValueError):
            DegradeEvent(replica=0, t0_ms=0.0, t1_ms=10.0)

    @pytest.mark.parametrize("mult", [math.inf, math.nan])
    def test_rejects_non_finite_multipliers(self, mult):
        # Rejected where given, not when the fleet composes the spec.
        for field in ("compute_mult", "comm_mult"):
            with pytest.raises(ValueError, match="finite and positive"):
                DegradeEvent(replica=0, t0_ms=0.0, t1_ms=10.0, **{field: mult})

    def test_spec_materializes_uniform_multipliers(self):
        event = DegradeEvent(
            replica=1, t0_ms=0.0, t1_ms=10.0, compute_mult=2.0, comm_mult=3.0
        )
        spec = event.spec(4)
        assert spec.num_ranks == 4
        assert all(m == 2.0 for m in spec.compute_mult)
        assert all(m == 3.0 for m in spec.comm_mult)

    def test_explicit_straggler_spec_wins(self):
        skew = StragglerSpec.slow_rank(4, 0, compute_mult=5.0)
        event = DegradeEvent(
            replica=0, t0_ms=0.0, t1_ms=10.0, stragglers=skew
        )
        assert event.spec(4) is skew
        # a uniform explicit spec is a no-op degrade: rejected
        with pytest.raises(ValueError):
            DegradeEvent(
                replica=0, t0_ms=0.0, t1_ms=10.0,
                stragglers=StragglerSpec.uniform(4),
            )


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_label_empty(self):
        plan = FaultPlan()
        assert not plan
        assert plan.label == ""

    def test_label_counts_event_kinds(self):
        plan = FaultPlan(
            crashes=(FailureEvent(replica=0, fail_ms=10.0),),
            degrades=(
                DegradeEvent(
                    replica=1, t0_ms=0.0, t1_ms=5.0, compute_mult=2.0
                ),
            ),
            brownouts=(BrownoutEvent(t0_ms=0.0, t1_ms=5.0, mult=2.0),),
        )
        assert plan
        assert plan.label == "1c+1d+1b"

    def test_boundaries_start_at_zero_and_compose(self):
        plan = FaultPlan(degrades=(
            DegradeEvent(replica=0, t0_ms=100.0, t1_ms=300.0, compute_mult=2.0),
            DegradeEvent(replica=0, t0_ms=200.0, t1_ms=400.0, compute_mult=3.0),
        ))
        windows = plan.boundaries(0, 4, None)
        starts = [start for start, _ in windows]
        assert starts == [0.0, 100.0, 200.0, 300.0, 400.0]
        # outside every event the base model is reused untouched
        assert windows[0][1] is None and windows[-1][1] is None
        # overlap composes multiplicatively
        overlap = dict(windows)[200.0]
        assert overlap.compute_mult[0] == pytest.approx(6.0)

    def test_boundaries_other_replica_untouched(self):
        plan = FaultPlan(degrades=(
            DegradeEvent(replica=0, t0_ms=10.0, t1_ms=20.0, compute_mult=2.0),
        ))
        assert plan.boundaries(1, 4, None) == ()

    def test_brownout_mult_is_product_of_active_windows(self):
        plan = FaultPlan(brownouts=(
            BrownoutEvent(t0_ms=0.0, t1_ms=100.0, mult=2.0),
            BrownoutEvent(t0_ms=50.0, t1_ms=150.0, mult=3.0),
        ))
        assert plan.brownout_mult(25.0) == pytest.approx(2.0)
        assert plan.brownout_mult(75.0) == pytest.approx(6.0)
        assert plan.brownout_mult(125.0) == pytest.approx(3.0)
        assert plan.brownout_mult(200.0) == 1.0


class TestStragglerCompose:
    def test_elementwise_product(self):
        a = StragglerSpec.slow_rank(2, 0, compute_mult=2.0)
        b = StragglerSpec.slow_rank(2, 1, compute_mult=3.0)
        c = a.compose(b)
        assert c.compute_mult == (2.0, 3.0)

    def test_rank_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StragglerSpec.uniform(2).compose(StragglerSpec.uniform(4))


class _FakeModel:
    def __init__(self, ms):
        self.ms = ms

    def step_ms(self, prefill_tokens, decode_tokens):
        return self.ms

    def step_ms_at(self, now, prefill_tokens, decode_tokens):
        return self.step_ms(prefill_tokens, decode_tokens)

    def prefill_ms(self, prompt_tokens):
        return self.ms

    def clear(self):
        pass

    def cache_stats(self):
        return {}


class TestTimeVaryingStepCost:
    def test_window_selection_by_launch_time(self):
        model = TimeVaryingStepCost(
            starts=[0.0, 100.0, 200.0],
            models=[_FakeModel(1.0), _FakeModel(5.0), _FakeModel(1.0)],
        )
        assert model.step_ms_at(0.0, 10, 0) == 1.0
        assert model.step_ms_at(99.9, 10, 0) == 1.0
        assert model.step_ms_at(100.0, 10, 0) == 5.0
        assert model.step_ms_at(199.9, 10, 0) == 5.0
        assert model.step_ms_at(200.0, 10, 0) == 1.0

    def test_time_invariant_entry_points_use_window_zero(self):
        model = TimeVaryingStepCost(
            starts=[0.0, 100.0],
            models=[_FakeModel(1.0), _FakeModel(5.0)],
        )
        assert model.step_ms(10, 0) == 1.0
        assert model.prefill_ms(10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeVaryingStepCost(starts=[10.0], models=[_FakeModel(1.0)])
        with pytest.raises(ValueError):
            TimeVaryingStepCost(
                starts=[0.0, 0.0],
                models=[_FakeModel(1.0), _FakeModel(2.0)],
            )
        with pytest.raises(ValueError):
            TimeVaryingStepCost(starts=[0.0, 1.0], models=[_FakeModel(1.0)])


class TestMigrationSpec:
    def test_default_kv_bytes_follow_model_shapes(self):
        spec = MigrationSpec()
        per_token = 2.0 * MIXTRAL_8X7B.num_layers * MIXTRAL_8X7B.token_bytes
        assert spec.kv_bytes(MIXTRAL_8X7B, 10) == pytest.approx(10 * per_token)
        override = MigrationSpec(kv_bytes_per_token=100.0)
        assert override.kv_bytes(MIXTRAL_8X7B, 10) == pytest.approx(1000.0)

    def test_transfer_scales_with_bytes_and_brownout(self):
        spec = MigrationSpec()
        small = spec.transfer_ms(1e6, 1)
        large = spec.transfer_ms(1e8, 1)
        assert large > small > 0
        assert spec.transfer_ms(1e6, 1, mult=2.0) == pytest.approx(2 * small)

    def test_outcome_record_kind_validated(self):
        OutcomeRecord(rid=0, t_ms=1.0, kind="timeout")
        OutcomeRecord(rid=0, t_ms=1.0, kind="shed")
        with pytest.raises(ValueError):
            OutcomeRecord(rid=0, t_ms=1.0, kind="lost")


class TestResilienceSpec:
    def test_all_off_is_falsy_with_empty_label(self):
        spec = ResilienceSpec()
        assert not spec
        assert spec.label == ""
        assert not spec.wants_deadline
        assert not spec.wants_shed
        assert not spec.wants_detector

    def test_retries_require_timeout(self):
        with pytest.raises(ValueError):
            ResilienceSpec(max_retries=1)
        ResilienceSpec(timeout_ms=100.0, max_retries=1)

    def test_factors_must_exceed_one(self):
        with pytest.raises(ValueError):
            ResilienceSpec(slow_factor=1.0)
        with pytest.raises(ValueError):
            ResilienceSpec(queue_factor=0.5)

    def test_backoff_deterministic_and_exponential_in_expectation(self):
        spec = ResilienceSpec(timeout_ms=100.0, max_retries=3, backoff_ms=50.0)
        a = spec.retry_backoff_ms(7, 0)
        assert a == spec.retry_backoff_ms(7, 0)  # pure in (seed, rid, attempt)
        assert a != spec.retry_backoff_ms(8, 0)
        # jitter stays inside [0.5, 1.5) of the doubling schedule
        for attempt in range(3):
            value = spec.retry_backoff_ms(7, attempt)
            base = 50.0 * 2**attempt
            assert 0.5 * base <= value < 1.5 * base
        other = ResilienceSpec(
            timeout_ms=100.0, max_retries=3, backoff_ms=50.0, seed=1
        )
        assert other.retry_backoff_ms(7, 0) != a

    def test_label_mentions_configured_mechanisms(self):
        label = ResilienceSpec(
            timeout_ms=500.0, max_retries=2, shed_factor=1.5, slow_factor=2.0
        ).label
        assert "to500" in label and "r2" in label
        assert "shed1.5" in label and "det2" in label


class TestCliFaultGrammar:
    def test_crash_specs_parse(self):
        crashes, degrades = _parse_fault_specs(["1@1000:3000", "2@500"])
        assert degrades == ()
        assert crashes == (
            FailureEvent(replica=1, fail_ms=1000.0, recover_ms=3000.0),
            FailureEvent(replica=2, fail_ms=500.0, recover_ms=None),
        )

    def test_degrade_specs_parse(self):
        crashes, degrades = _parse_fault_specs(["0@500:2500:x1.5"])
        assert crashes == ()
        assert degrades == (
            DegradeEvent(
                replica=0, t0_ms=500.0, t1_ms=2500.0,
                compute_mult=1.5, comm_mult=1.5,
            ),
        )

    def test_bad_specs_rejected_with_context(self):
        for bad in ("nope", "1@", "1@a", "1@10:20:30", "1@10:20:x1.0"):
            with pytest.raises(ValueError, match="bad fault spec"):
                _parse_fault_specs([bad])

    def test_round_trip_is_identity(self):
        specs = ["1@1000:3000", "2@500", "0@500:2500:x1.5", "1@0:100:x4"]
        crashes, degrades = _parse_fault_specs(specs)
        formatted = _format_fault_specs(crashes, degrades)
        assert _parse_fault_specs(formatted) == (crashes, degrades)
