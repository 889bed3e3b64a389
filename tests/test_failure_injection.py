"""Failure/degradation injection: the simulator under hostile conditions.

A systems model earns trust by behaving sensibly when its environment is
degraded: a crippled interconnect must push every system toward
comm-bound behaviour (and shrink COMET's ability to hide), a tiny GPU
must stretch compute, extreme routing skew must not break invariants,
and empty experts must cost nothing.
"""

import dataclasses

import numpy as np
import pytest

from repro import SYSTEM_REGISTRY
from repro.hw import ClusterSpec, GpuSpec, LinkSpec, h800_node
from repro.hw.presets import H800, NVLINK_H800
from repro.moe import MIXTRAL_8X7B, RoutingPlan
from repro.parallel import ParallelStrategy
from repro.runtime import MoELayerWorkload, make_workload
from repro.systems import Comet, MegatronCutlass


def cluster_with(link: LinkSpec | None = None, gpu: GpuSpec | None = None) -> ClusterSpec:
    base = h800_node()
    return ClusterSpec(
        name="degraded",
        gpu=gpu or base.gpu,
        link=link or base.link,
        world_size=8,
    )


def workload_on(cluster: ClusterSpec, tokens: int = 8192, **kw) -> MoELayerWorkload:
    return make_workload(
        MIXTRAL_8X7B, cluster, ParallelStrategy(1, 8), tokens, **kw
    )


class TestDegradedLink:
    def test_slow_link_slows_everyone(self):
        slow = dataclasses.replace(NVLINK_H800, gbps=5.0, per_block_gbps=0.5)
        fast_w = workload_on(h800_node())
        slow_w = workload_on(cluster_with(link=slow))
        for system_cls in (MegatronCutlass, Comet):
            assert (
                system_cls().time_layer(slow_w).total_us
                > system_cls().time_layer(fast_w).total_us
            )

    def test_comm_bound_regime_shrinks_hiding(self):
        """When communication dwarfs compute, even COMET cannot hide it."""
        crippled = dataclasses.replace(NVLINK_H800, gbps=2.0, per_block_gbps=0.2)
        workload = workload_on(cluster_with(link=crippled))
        timing = Comet().time_layer(workload)
        assert timing.hidden_comm_fraction < 0.6
        assert timing.exposed_comm_us > timing.comp_us

    def test_comet_advantage_narrows_on_slow_fabric(self):
        """The paper's L20 observation, pushed to the extreme."""
        crippled = dataclasses.replace(
            NVLINK_H800, gbps=2.0, per_block_gbps=0.2, a2a_efficiency=0.9
        )
        slow_w = workload_on(cluster_with(link=crippled))
        fast_w = workload_on(h800_node())
        speedup_slow = (
            MegatronCutlass().time_layer(slow_w).total_us
            / Comet().time_layer(slow_w).total_us
        )
        speedup_fast = (
            MegatronCutlass().time_layer(fast_w).total_us
            / Comet().time_layer(fast_w).total_us
        )
        assert speedup_slow < speedup_fast

    def test_high_latency_link(self):
        laggy = dataclasses.replace(NVLINK_H800, latency_us=500.0)
        workload = workload_on(cluster_with(link=laggy))
        timing = Comet().time_layer(workload)
        # Latency is unavoidable: at least one round of it is exposed.
        assert timing.total_us > 500.0


class TestDegradedGpu:
    def test_few_sms_stretch_compute(self):
        tiny = dataclasses.replace(H800, num_sms=16)
        workload = workload_on(cluster_with(gpu=tiny))
        baseline = workload_on(h800_node())
        assert (
            Comet().time_layer(workload).comp_us
            > Comet().time_layer(baseline).comp_us
        )

    def test_division_point_respects_tiny_budget(self):
        tiny = dataclasses.replace(H800, num_sms=16)
        workload = workload_on(cluster_with(gpu=tiny))
        nc = Comet().division_point(workload, layer=1)
        assert 0 < nc < 16

    def test_compute_starved_gpu_hides_everything(self):
        """A very weak GPU makes compute dominate; communication vanishes
        under it."""
        weak = dataclasses.replace(H800, tensor_tflops=30.0)
        workload = workload_on(cluster_with(gpu=weak))
        timing = Comet().time_layer(workload)
        # Only the unavoidable tail (link latency + last column drain)
        # stays exposed.
        assert timing.hidden_comm_fraction > 0.9


class TestExtremeRouting:
    def test_all_tokens_one_expert(self):
        """Worst-case skew: everything lands on a single expert/rank."""
        cluster = h800_node()
        tokens = 4096
        experts = np.zeros((tokens, 2), dtype=np.int64)
        experts[:, 1] = 1  # top-2 must be distinct
        plan = RoutingPlan(
            experts=experts,
            weights=np.full((tokens, 2), 0.5, dtype=np.float32),
            num_experts=8,
        )
        from repro.moe import token_owner_ranks

        workload = MoELayerWorkload(
            config=MIXTRAL_8X7B,
            cluster=cluster,
            strategy=ParallelStrategy(1, 8),
            plan=plan,
            owner=token_owner_ranks(tokens, 8),
        )
        balanced = workload_on(cluster, tokens=tokens)
        for system_cls in (MegatronCutlass, Comet):
            skew_time = system_cls().time_layer(workload).total_us
            balanced_time = system_cls().time_layer(balanced).total_us
            assert skew_time > 1.5 * balanced_time

    def test_empty_experts_cost_nothing_extra(self):
        """Experts that receive no tokens add no GroupGEMM tiles."""
        cluster = h800_node()
        tokens = 1024
        rng = np.random.default_rng(0)
        # Route only to experts 0..3; experts 4..7 stay empty.
        first = rng.integers(0, 4, size=tokens)
        second = (first + 1 + rng.integers(0, 3, size=tokens)) % 4
        experts = np.stack([first, second], axis=1).astype(np.int64)
        plan = RoutingPlan(
            experts=experts,
            weights=np.full((tokens, 2), 0.5, dtype=np.float32),
            num_experts=8,
        )
        from repro.moe import token_owner_ranks

        workload = MoELayerWorkload(
            config=MIXTRAL_8X7B,
            cluster=cluster,
            strategy=ParallelStrategy(1, 8),
            plan=plan,
            owner=token_owner_ranks(tokens, 8),
        )
        timing = Comet().time_layer(workload)
        assert np.isfinite(timing.total_us)
        geometry = workload.geometry
        assert geometry.rows_per_rank[4:].sum() == 0


class TestReplicaFailure:
    """Whole-replica crashes at the fleet layer (repro.fleet).

    The layer-level injections above degrade a device; these kill an
    entire engine replica mid-trace.  The invariants: in-flight
    requests are re-queued through the router and complete exactly
    once, and goodput accounting is conserved — no request is lost,
    duplicated, or completes with different token counts than the
    trace assigned.
    """

    def run_fleet(self, failures, system="comet"):
        from repro import FleetSpec, TraceSpec

        return (
            FleetSpec.grid(
                traces=TraceSpec(kind="poisson", rps=30, duration_s=3, seed=7),
                systems=system,
                replicas=2,
                routers="least_queue",
                failures=failures,
            )
            .run()
            .reports[0]
        )

    def test_in_flight_requests_requeued_not_lost(self):
        from repro.fleet import FailureEvent

        report = self.run_fleet(
            (FailureEvent(replica=0, fail_ms=700.0, recover_ms=1800.0),)
        )
        rids = [r.rid for r in report.records]
        assert len(rids) == len(set(rids))
        assert report.unserved == 0
        assert report.num_requests == report.offered

    @pytest.mark.parametrize("system", SYSTEM_REGISTRY.names())
    def test_goodput_accounting_conserved_across_crash(self, system):
        from repro.fleet import FailureEvent

        crash = FailureEvent(replica=1, fail_ms=500.0, recover_ms=1500.0)
        clean = self.run_fleet((), system)
        crashed = self.run_fleet((crash,), system)
        clean_tokens = {r.rid: r.output_tokens for r in clean.records}
        crashed_tokens = {r.rid: r.output_tokens for r in crashed.records}
        assert crashed_tokens == clean_tokens
        # Continuous batching is list scheduling, where a crash can
        # shorten the schedule, so the crash bounds causality, not the
        # makespan: nothing lands on the replica while it is down, and a
        # request it reclaimed (a second entry dispatch) re-dispatches
        # no earlier than the crash and restarts its prefill from there.
        assert not [
            d for d in crashed.dispatches
            if d.replica == crash.replica and crash.fail_ms <= d.t_ms < crash.recover_ms
        ]
        hops = {}
        for d in crashed.dispatches:
            hops.setdefault(d.rid, []).append(d)
        reclaimed = {rid: rest for rid, (first, *rest) in hops.items() if rest}
        assert reclaimed
        first_token = {r.rid: r.first_token_ms for r in crashed.records}
        for rid, rest in reclaimed.items():
            assert all(d.t_ms >= crash.fail_ms for d in rest)
            assert first_token[rid] >= rest[-1].t_ms

    def test_crash_degrades_latency_tail(self):
        from repro.fleet import FailureEvent

        clean = self.run_fleet(())
        crashed = self.run_fleet((FailureEvent(replica=0, fail_ms=300.0),))
        assert (
            crashed.ttft_percentiles()["p99"] >= clean.ttft_percentiles()["p99"]
        )
