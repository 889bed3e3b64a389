"""Fleet equivalence and edge cases.

The anchor guarantees of `repro.fleet`: a 1-replica round-robin fleet is
*bit-identical* (``==``) to the bare serving engine (the decomposed path
delegates to it), a 1-replica co-simulation reproduces the same records
(the DES path is a faithful multi-replica generalisation), a forced
co-simulation equals the decomposed path for every pure-timing system,
every co-sim feature equals its per-token reference under
``perf.disabled()``, every router is seeded-deterministic across runs,
and the degenerate fleets —
zero-arrival traces and fully-failed fleets — export None-not-NaN
metrics per the serve-layer guards.
"""

import json

import pytest

from repro import (
    SYSTEM_REGISTRY,
    BrownoutEvent,
    DegradeEvent,
    FaultPlan,
    FleetSpec,
    MigrationSpec,
    ResilienceSpec,
    ServeSpec,
    TraceSpec,
    perf,
)
from repro.fleet import AutoscalerSpec, FailureEvent, FleetScenario, ReplicaSpec
from repro.fleet.router import ROUTER_REGISTRY
from repro.fleet.simulator import FleetEngine
from repro.hw.presets import h800_node
from repro.moe.config import MIXTRAL_8X7B
from repro.parallel.strategy import ParallelStrategy

SMALL_TRACE = TraceSpec(kind="poisson", rps=20, duration_s=3, seed=0)
BURSTY = TraceSpec(kind="bursty", rps=60, duration_s=4, seed=2)


def fleet_run(trace=SMALL_TRACE, systems="comet", **kwargs):
    return FleetSpec.grid(traces=trace, systems=systems, **kwargs).run()


class TestSingleReplicaBitIdentity:
    def test_round_robin_records_match_bare_serve_engine(self):
        # The acceptance criterion: same trace, same system — the fleet
        # wrapper must not perturb a single bit of the serving records.
        serve = ServeSpec.grid(traces=SMALL_TRACE, systems="comet").run()
        fleet = fleet_run()
        assert fleet.reports[0].records == serve.reports[0].records

    def test_round_robin_fleet_uses_fast_serve_loop(self):
        # The decomposed path must go through ContinuousBatchingScheduler,
        # so disabling the fast loop changes the code path but not one
        # byte of output.
        fast = fleet_run()
        with perf.configure(fast_serve_loop=False):
            slow = fleet_run()
        assert fast.reports == slow.reports

    @pytest.mark.parametrize("router", ["least_queue", "power_of_two"])
    @pytest.mark.parametrize("policy", ["fcfs", "spf", "slo"])
    @pytest.mark.parametrize("trace", [SMALL_TRACE, BURSTY], ids=["poisson", "bursty"])
    def test_state_dependent_cosim_matches_bare_engine_single_replica(
        self, trace, policy, router
    ):
        # With one replica, a state-dependent router has no choices to
        # make: the co-simulated DES must reproduce the bare engine's
        # records exactly — the correctness anchor for the co-sim path.
        serve = ServeSpec.grid(traces=trace, systems="comet", policies=policy).run()
        cosim = fleet_run(trace=trace, routers=router, policies=policy)
        assert cosim.reports[0].records == serve.reports[0].records

    def test_goodput_matches_bare_serve(self):
        serve = ServeSpec.grid(traces=SMALL_TRACE, systems="comet").run()
        fleet = fleet_run()
        assert fleet.reports[0].goodput_rps == serve.reports[0].goodput_rps
        assert fleet.reports[0].slo_attainment == serve.reports[0].slo_attainment


#: Systems whose timing is a pure function of the workload: the scope of
#: the decomposed/co-sim parity claim.  Adaptive COMET records each
#: bucket's division point from the first workload that probes it, and
#: the two paths probe buckets in different orders.
PURE_SYSTEMS = tuple(
    name
    for name in SYSTEM_REGISTRY.names()
    if SYSTEM_REGISTRY.create(name).timing_state_token() is None
)


class TestDecomposedCosimParity:
    @pytest.mark.parametrize("trace", [SMALL_TRACE, BURSTY], ids=["poisson", "bursty"])
    @pytest.mark.parametrize("system", PURE_SYSTEMS)
    def test_forced_cosim_equals_decomposed(self, system, trace, monkeypatch):
        spec = FleetSpec.grid(
            traces=trace,
            systems=system,
            replicas=(1, 2, 4, 8),
            routers=("round_robin", "session_affinity"),
        )
        decomposed = spec.run()
        monkeypatch.setattr(FleetEngine, "_decomposable", lambda engine: False)
        cosim = spec.run()
        assert len(cosim.reports) == 8
        assert cosim.reports == decomposed.reports
        assert cosim.to_json() == decomposed.to_json()

    def test_pure_systems_cover_the_baselines(self):
        assert {"megatron-cutlass", "tutel", "fastermoe"} <= set(PURE_SYSTEMS)
        assert "comet" not in PURE_SYSTEMS


ORACLE_TRACE = TraceSpec(kind="poisson", rps=60, duration_s=2, seed=5)
BUSY_TRACE = TraceSpec(kind="poisson", rps=400, duration_s=2, seed=5)

#: The co-sim feature matrix: grid kwargs, plus a check that the
#: feature really acted in the run.
COSIM_FEATURES = {
    "autoscaler": (
        dict(
            traces=BUSY_TRACE,
            replicas=3,
            autoscalers=AutoscalerSpec(
                min_replicas=1, interval_ms=250.0, warmup_ms=300.0,
                scale_up_queue=2.0,
            ),
        ),
        lambda report: any(e.kind == "up" for e in report.events),
    ),
    "crash_recover": (
        dict(
            replicas=3,
            failures=(FailureEvent(replica=0, fail_ms=400.0, recover_ms=1200.0),),
        ),
        lambda report: report.failures == report.recoveries == 1,
    ),
    "disaggregated": (
        dict(replicas="2p+2d"),
        lambda report: any(d.pool == "decode" for d in report.dispatches),
    ),
    "disaggregated_migration": (
        dict(replicas="2p+2d", migrations=MigrationSpec()),
        lambda report: any(d.pool == "decode" for d in report.dispatches),
    ),
    "degrade_brownout": (
        dict(
            replicas="2p+2d",
            migrations=MigrationSpec(),
            faults=FaultPlan(
                degrades=(
                    DegradeEvent(
                        replica=2, t0_ms=300.0, t1_ms=1200.0,
                        compute_mult=3.0, comm_mult=3.0,
                    ),
                ),
                brownouts=(BrownoutEvent(t0_ms=200.0, t1_ms=1500.0, mult=4.0),),
            ),
        ),
        lambda report: any(e.kind == "degrade" for e in report.events),
    ),
    "resilience": (
        # Deadlines cancel hundreds of running sequences here, so stale
        # completion-map entries are skipped and re-admissions re-filed.
        dict(
            traces=BUSY_TRACE,
            replicas=3,
            faults=FaultPlan(
                crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=900.0),),
                degrades=(
                    DegradeEvent(
                        replica=1, t0_ms=200.0, t1_ms=1500.0,
                        compute_mult=4.0, comm_mult=4.0,
                    ),
                ),
            ),
            resilience=ResilienceSpec(
                timeout_ms=1500.0, max_retries=2, shed_factor=2.0,
                slow_factor=1.5, queue_factor=2.0,
                check_interval_ms=250.0, health_window_ms=750.0,
            ),
            slo_ttft_ms=300.0,
        ),
        lambda report: (
            report.retries > 0 and report.timed_out > 0
            and report.shed > 0 and report.probations > 0
        ),
    ),
    "overloaded": (
        dict(traces=TraceSpec(kind="poisson", rps=1500, duration_s=1, seed=5), replicas=2),
        lambda report: max(
            p.queue_depth for timeline in report.replica_timelines for p in timeline
        ) > 100,
    ),
}


class TestRetainedPathOracle:
    @pytest.mark.parametrize("feature", sorted(COSIM_FEATURES))
    @pytest.mark.parametrize("router", ["least_queue", "power_of_two"])
    def test_cosim_equals_per_token_reference(self, router, feature):
        # perf.disabled() turns fast_serve_loop off, so every replica
        # core counts tokens per running sequence instead of retiring
        # from its completion map.
        kwargs, acted = COSIM_FEATURES[feature]
        spec = FleetSpec.grid(
            **{"traces": ORACLE_TRACE, **kwargs}, routers=router, systems="comet"
        )
        fast = spec.run()
        with perf.disabled():
            slow = spec.run()
        report = fast.reports[0]
        assert report.records and acted(report)
        assert fast.reports == slow.reports
        assert fast.to_json() == slow.to_json()


class TestDeterminism:
    @pytest.mark.parametrize("router", sorted(ROUTER_REGISTRY.names()))
    def test_bit_identical_across_runs(self, router):
        first = fleet_run(trace=BURSTY, replicas=4, routers=router)
        second = fleet_run(trace=BURSTY, replicas=4, routers=router)
        assert first.reports == second.reports
        assert first.to_json() == second.to_json()

    def test_determinism_with_autoscaler_and_failures(self):
        from repro.fleet import AutoscalerSpec

        kwargs = dict(
            trace=BURSTY,
            replicas=3,
            autoscalers=AutoscalerSpec(min_replicas=1, warmup_ms=500.0),
            failures=(FailureEvent(replica=0, fail_ms=800.0, recover_ms=2000.0),),
        )
        assert fleet_run(**kwargs).reports == fleet_run(**kwargs).reports


class TestZeroArrivalFleet:
    EMPTY = TraceSpec(kind="replay", arrivals_ms=())

    def test_empty_trace_serves_nothing_and_exports_none(self):
        results = fleet_run(trace=self.EMPTY, replicas=2, routers="least_queue")
        report = results.reports[0]
        assert report.num_requests == 0 and report.unserved == 0
        summary = report.summary()
        assert summary["ttft_p50_ms"] is None
        assert summary["goodput_rps"] == 0.0
        # Strict JSON: None percentiles become null, never a NaN token.
        text = results.to_json()
        assert "NaN" not in text
        assert json.loads(text)["reports"][0]["ttft_p50_ms"] is None

    def test_empty_trace_rows_have_no_nan_cells(self):
        results = fleet_run(trace=self.EMPTY)
        _, rows = results.to_rows()
        for row in rows:
            for value in row:
                assert not (isinstance(value, float) and value != value)


class TestAllReplicasFailed:
    def test_run_terminates_with_everything_unserved(self):
        plan = tuple(
            FailureEvent(replica=i, fail_ms=1.0) for i in range(2)
        )
        results = fleet_run(replicas=2, failures=plan)
        report = results.reports[0]
        assert report.num_requests == 0
        assert report.unserved == report.offered > 0
        assert report.failures == 2 and report.recoveries == 0
        assert report.summary()["ttft_p50_ms"] is None
        json.loads(results.to_json())  # strict-parseable

    def test_recovery_after_total_outage_drains_backlog(self):
        plan = (
            FailureEvent(replica=0, fail_ms=1.0, recover_ms=1500.0),
            FailureEvent(replica=1, fail_ms=1.0, recover_ms=2000.0),
        )
        report = fleet_run(replicas=2, failures=plan).reports[0]
        assert report.unserved == 0
        assert report.num_requests == report.offered
        # Nothing finished during the outage window.
        assert all(r.first_token_ms >= 1500.0 for r in report.records)


class TestScenarioValidation:
    def make(self, **kwargs):
        cluster = h800_node()
        defaults = dict(
            config=MIXTRAL_8X7B,
            replicas=(
                ReplicaSpec(
                    cluster=cluster,
                    strategy=ParallelStrategy(tp_size=1, ep_size=8),
                    count=2,
                ),
            ),
        )
        defaults.update(kwargs)
        return FleetScenario(**defaults)

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            self.make(router="random")

    def test_failure_event_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="targets replica"):
            self.make(failures=(FailureEvent(replica=5, fail_ms=10.0),))

    def test_overlapping_failure_windows_rejected(self):
        with pytest.raises(ValueError, match="overlapping failure"):
            self.make(
                failures=(
                    FailureEvent(replica=0, fail_ms=10.0, recover_ms=50.0),
                    FailureEvent(replica=0, fail_ms=30.0),
                )
            )

    def test_recover_before_fail_rejected(self):
        with pytest.raises(ValueError, match="must exceed"):
            FailureEvent(replica=0, fail_ms=100.0, recover_ms=50.0)
