"""Fleet equivalence and edge cases.

The anchor guarantees of `repro.fleet`: a 1-replica round-robin fleet is
*bit-identical* (``==``) to the bare serving engine (the decomposed path
delegates to it), a 1-replica co-simulation reproduces the same records
(the DES path is a faithful multi-replica generalisation), every router
is seeded-deterministic across runs, and the degenerate fleets —
zero-arrival traces and fully-failed fleets — export None-not-NaN
metrics per the serve-layer guards.  The forced co-simulation vs the
decomposed path, and every co-sim feature vs its per-token reference,
are rows of the oracle table in ``tests/test_oracles.py``.
"""

import json

import pytest

from repro import FleetSpec, ServeSpec, TraceSpec
from repro.fleet import FailureEvent, FleetScenario, ReplicaSpec
from repro.fleet.router import ROUTER_REGISTRY
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
