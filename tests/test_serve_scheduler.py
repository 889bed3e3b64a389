"""Scheduler unit tests on a synthetic cost model, plus adapter tests.

The synthetic cost model makes iteration timing a simple linear function
of the batch's token count, so batching behaviour (admission, budgets,
policies, TTFT/TPOT accounting) can be asserted exactly, independent of
the MoE system timings.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MIXTRAL_8X7B, ParallelStrategy, h800_node
from repro.serve.engine_adapter import StepCostModel
from repro.serve.scheduler import POLICY_REGISTRY, ContinuousBatchingScheduler
from repro.serve.traffic import TRACE_REGISTRY, Request, TraceSpec
from repro.systems import Comet, FasterMoE, Tutel
from repro.systems.base import UnsupportedWorkload


class LinearCostModel:
    """step = base_ms + per_token_ms * tokens; prefill estimate to match."""

    def __init__(self, base_ms=1.0, per_token_ms=0.01):
        self.base_ms = base_ms
        self.per_token_ms = per_token_ms

    def step_ms(self, prefill_tokens, decode_tokens):
        return self.base_ms + self.per_token_ms * (prefill_tokens + decode_tokens)

    def step_ms_at(self, now, prefill_tokens, decode_tokens):
        return self.step_ms(prefill_tokens, decode_tokens)

    def prefill_ms(self, prompt_tokens):
        return self.step_ms(prompt_tokens, 0)


def request(rid, arrival_ms, prompt=100, output=4):
    return Request(
        rid=rid, arrival_ms=arrival_ms, prompt_tokens=prompt, output_tokens=output
    )


def run_trace(trace, **kwargs):
    scheduler = ContinuousBatchingScheduler(
        cost_model=LinearCostModel(), trace=tuple(trace), **kwargs
    )
    return scheduler.run()


class TestContinuousBatching:
    def test_single_request_lifecycle(self):
        # prefill step: 1 + 0.01*100 = 2ms -> TTFT; then 3 decode steps of
        # 1 + 0.01*1 = 1.01ms each for the remaining 3 tokens.
        records, timeline = run_trace([request(0, arrival_ms=5.0)])
        (rec,) = records
        assert rec.first_token_ms == pytest.approx(7.0)
        assert rec.ttft_ms == pytest.approx(2.0)
        assert rec.completion_ms == pytest.approx(7.0 + 3 * 1.01)
        assert rec.tpot_ms == pytest.approx(1.01)
        assert len(timeline) == 4

    def test_every_request_served_exactly_once(self):
        trace = [request(i, arrival_ms=i * 0.5) for i in range(40)]
        records, _ = run_trace(trace)
        assert sorted(r.rid for r in records) == list(range(40))

    def test_deterministic_across_runs(self):
        trace = tuple(request(i, arrival_ms=i * 0.3) for i in range(30))
        assert run_trace(trace) == run_trace(trace)

    def test_token_budget_respected(self):
        # 10 simultaneous 100-token prompts under a 250-token budget:
        # at most 2 prefills per iteration.
        trace = [request(i, arrival_ms=0.0) for i in range(10)]
        records, timeline = run_trace(trace, max_batch_tokens=250)
        assert all(p.batch_tokens <= 250 for p in timeline)
        assert sorted(r.rid for r in records) == list(range(10))

    def test_oversized_prompt_admitted_alone(self):
        trace = [
            request(0, arrival_ms=0.0, prompt=5000),
            request(1, arrival_ms=0.0, prompt=10),
        ]
        records, timeline = run_trace(trace, max_batch_tokens=1000)
        assert sorted(r.rid for r in records) == [0, 1]
        # The oversized prefill ran by itself in the first iteration.
        assert timeline[0].batch_tokens == 5000
        assert timeline[0].running == 1

    def test_max_batch_size_caps_concurrency(self):
        trace = [request(i, arrival_ms=0.0, prompt=1, output=8) for i in range(12)]
        _, timeline = run_trace(trace, max_batch_size=4)
        assert all(p.running <= 4 for p in timeline)

    def test_idle_gap_then_second_wave(self):
        trace = [request(0, arrival_ms=0.0), request(1, arrival_ms=500.0)]
        records, _ = run_trace(trace)
        by_rid = {r.rid: r for r in records}
        # The engine slept through the idle gap and restarted on arrival.
        assert by_rid[1].first_token_ms == pytest.approx(502.0)
        assert by_rid[1].ttft_ms == pytest.approx(2.0)

    def test_continuous_batching_interleaves_decode_and_prefill(self):
        # A long-output request is decoding when a second arrives; the
        # second's prefill joins a decode iteration (batch > 1 token).
        trace = [
            request(0, arrival_ms=0.0, prompt=50, output=50),
            request(1, arrival_ms=5.0, prompt=50, output=2),
        ]
        _, timeline = run_trace(trace)
        mixed = [p for p in timeline if p.running == 2]
        assert mixed, "second request never joined the running batch"

    def test_decode_slows_down_with_larger_batches(self):
        solo_records, _ = run_trace([request(0, 0.0, prompt=10, output=50)])
        crowd = [request(i, 0.0, prompt=10, output=50) for i in range(20)]
        crowd_records, _ = run_trace(crowd)
        solo_tpot = solo_records[0].tpot_ms
        crowd_tpot = max(r.tpot_ms for r in crowd_records)
        assert crowd_tpot > solo_tpot


class TestTraceOrder:
    """The loop releases requests in tuple order, so a hand-built trace
    must arrive in order with distinct ids."""

    def test_decreasing_arrival_rejected(self):
        with pytest.raises(ValueError, match="request 1 arrives at 10.0 ms"):
            run_trace([request(0, 50.0), request(1, 10.0)])

    def test_repeated_rid_rejected(self):
        with pytest.raises(ValueError, match="ids must be distinct: 0 repeats"):
            run_trace([request(0, 10.0), request(0, 10.0)])


@given(
    kind=st.sampled_from(sorted(k for k in TRACE_REGISTRY.names() if k != "replay")),
    rps=st.floats(min_value=1.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=2**16),
    max_batch_tokens=st.integers(min_value=1, max_value=8192),
    max_batch_size=st.integers(min_value=1, max_value=256),
    policy=st.sampled_from(POLICY_REGISTRY.names()),
    # Steps that cannot move the clock included.
    base_ms=st.sampled_from((0.0, 1e-300)) | st.floats(min_value=0.01, max_value=50.0),
    per_token_ms=st.sampled_from((0.0, 0.01)),
)
@settings(max_examples=40, deadline=None, database=None)
def test_every_step_emits_a_token(
    kind, rps, seed, max_batch_tokens, max_batch_size, policy, base_ms, per_token_ms
):
    """A run takes at most one step per output token, whatever a step
    costs: an idle replica admits a waiting request (an over-budget
    prompt alone), and every resident sequence advances one token."""
    trace = TraceSpec(kind=kind, rps=rps, duration_s=1.0, seed=seed, output_mean=16).build()
    _, timeline = ContinuousBatchingScheduler(
        cost_model=LinearCostModel(base_ms, per_token_ms),
        trace=trace,
        max_batch_tokens=max_batch_tokens,
        max_batch_size=max_batch_size,
        policy=policy,
    ).run()
    assert len(timeline) <= sum(r.output_tokens for r in trace)


class TestPolicies:
    def test_policy_names_registered(self):
        assert set(POLICY_REGISTRY.names()) == {"fcfs", "spf", "slo"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            ContinuousBatchingScheduler(
                cost_model=LinearCostModel(), trace=(), policy="lifo"
            )

    def test_fcfs_preserves_arrival_order(self):
        trace = [
            request(0, arrival_ms=0.0, prompt=400),
            request(1, arrival_ms=1.0, prompt=10),
            request(2, arrival_ms=2.0, prompt=10),
        ]
        records, _ = run_trace(trace, max_batch_tokens=410, policy="fcfs")
        by_rid = {r.rid: r for r in records}
        assert by_rid[0].first_token_ms <= by_rid[1].first_token_ms

    def test_spf_prefers_short_prompts(self):
        # All arrive together; budget fits only one prefill per iteration.
        trace = [
            request(0, arrival_ms=0.0, prompt=400),
            request(1, arrival_ms=0.0, prompt=10),
        ]
        records, _ = run_trace(trace, max_batch_tokens=400, policy="spf")
        by_rid = {r.rid: r for r in records}
        assert by_rid[1].first_token_ms < by_rid[0].first_token_ms

    def test_slo_policy_prioritises_tight_deadlines(self):
        # Equal arrivals: the long prompt has less TTFT slack (its prefill
        # takes longer), so the SLO-aware policy runs it first.
        trace = [
            request(0, arrival_ms=0.0, prompt=10),
            request(1, arrival_ms=0.0, prompt=400),
        ]
        records, _ = run_trace(trace, max_batch_tokens=400, policy="slo")
        by_rid = {r.rid: r for r in records}
        assert by_rid[1].first_token_ms < by_rid[0].first_token_ms


class TestStepCostModel:
    def setup_method(self):
        self.cluster = h800_node()
        self.strategy = ParallelStrategy(tp_size=1, ep_size=8)

    def model(self, system, **kwargs):
        return StepCostModel(
            system, MIXTRAL_8X7B, self.cluster, self.strategy, **kwargs
        )

    def test_bucket_rounds_up_to_world_multiple(self):
        cost = self.model(Comet(), bucket_tokens=100)
        assert cost.bucket % self.cluster.world_size == 0
        assert cost.bucketed(1) == cost.bucket
        assert cost.bucketed(cost.bucket + 1) == 2 * cost.bucket

    def test_step_cost_monotone_in_tokens(self):
        cost = self.model(Comet())
        small = cost.step_ms(256, 0)
        large = cost.step_ms(4096, 0)
        assert large > small > 0

    def test_step_cost_cached_per_bucket(self):
        cost = self.model(Comet(), bucket_tokens=256)
        assert cost.step_ms(100, 0) == cost.step_ms(50, 50)

    def test_comet_steps_faster_than_tutel(self):
        comet = self.model(Comet())
        tutel = self.model(Tutel())
        for tokens in (256, 2048, 8192):
            assert comet.step_ms(tokens, 0) < tutel.step_ms(tokens, 0)

    def test_unsupported_system_fails_fast(self):
        with pytest.raises(UnsupportedWorkload):
            StepCostModel(
                FasterMoE(),
                MIXTRAL_8X7B,
                self.cluster,
                ParallelStrategy(tp_size=2, ep_size=4),
            )

    def test_scaling_includes_all_model_layers(self):
        cost = self.model(Comet())
        # One step prices num_layers transformer layers plus overhead.
        assert cost.step_us(256, 0) > MIXTRAL_8X7B.num_layers * 100
