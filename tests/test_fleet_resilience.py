"""Resilience-loop semantics: conservation, detection, export gating.

The front-door policy adds two new terminal states (timed out, shed) to
the fleet's request lifecycle.  The invariant under *any* mix of
crashes, degradations, deadlines, retries, and shedding:

- every offered request resolves exactly once, as exactly one of
  completed / timed-out / shed — none lost, none double-counted — and
  no replica is busy for longer than its metered window;
- a fleet with an empty :class:`FaultPlan` and an all-off
  :class:`ResilienceSpec` is bit-identical to one configured with
  neither (the zero-config path must not perturb a single float);
- resilience columns appear in every export format or in none.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DegradeEvent,
    FailureEvent,
    FaultPlan,
    FleetSpec,
    ResilienceSpec,
    TraceSpec,
)

TRACE = TraceSpec(kind="poisson", rps=40, duration_s=2, seed=5)


def run_fleet(trace=TRACE, **kwargs):
    kwargs.setdefault("systems", "comet")
    kwargs.setdefault("replicas", 3)
    return FleetSpec.grid(traces=trace, **kwargs).run().reports[0]


def assert_conserved(report):
    """Every offered request is exactly one of completed/timed-out/shed."""
    rids = [r.rid for r in report.records] + [o.rid for o in report.outcomes]
    assert len(rids) == len(set(rids)), "a request resolved twice"
    assert report.offered == (
        report.num_requests + report.timed_out + report.shed
    ), "a request was lost"
    assert report.unserved == 0
    assert report.timed_out == sum(
        1 for o in report.outcomes if o.kind == "timeout"
    )
    assert report.shed == sum(1 for o in report.outcomes if o.kind == "shed")
    for record in report.records:
        assert record.arrival_ms <= record.first_token_ms <= record.completion_ms
    assert report.mean_utilization <= 1


class TestZeroConfigBitIdentity:
    def test_empty_plan_and_all_off_spec_match_plain_run(self):
        plain = FleetSpec.grid(traces=TRACE, replicas=2, systems="comet").run()
        configured = FleetSpec.grid(
            traces=TRACE,
            replicas=2,
            systems="comet",
            faults=FaultPlan(),
            resilience=ResilienceSpec(),
        ).run()
        # Reports are field-for-field identical; only the run manifest's
        # spec fingerprint (provenance of what was *asked for*) differs.
        assert plain.reports[0] == configured.reports[0]
        assert plain.to_rows() == configured.to_rows()

    def test_resilient_run_is_deterministic(self):
        def once():
            return FleetSpec.grid(
                traces=TRACE,
                replicas=2,
                routers="least_queue",
                systems="comet",
                faults=FaultPlan(
                    crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=900.0),),
                    degrades=(
                        DegradeEvent(
                            replica=1, t0_ms=200.0, t1_ms=800.0,
                            compute_mult=2.0, comm_mult=2.0,
                        ),
                    ),
                ),
                resilience=ResilienceSpec(
                    timeout_ms=1500.0, max_retries=2, shed_factor=2.0
                ),
            ).run()

        assert once().to_json() == once().to_json()


class TestConservation:
    def test_timeout_retry_shed_partition_offered_load(self):
        report = run_fleet(
            routers="least_queue",
            replicas=2,
            faults=FaultPlan(
                crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=900.0),),
            ),
            resilience=ResilienceSpec(
                timeout_ms=1500.0, max_retries=2, shed_factor=2.0
            ),
        )
        assert_conserved(report)

    def test_window_covers_timeouts_after_the_horizon(self):
        # The last timeout lands at 4377.6 ms, well past the 3000 ms
        # horizon; the replicas were metered only to the horizon and
        # mean_utilization read 1.43.
        report = run_fleet(
            trace=TraceSpec(kind="poisson", rps=40, duration_s=3, seed=1),
            systems="tutel", routers="least_queue",
            resilience=ResilienceSpec(timeout_ms=400, max_retries=2),
        )
        last = max(o.t_ms for o in report.outcomes)
        assert last > report.horizon_ms
        assert report.window_ms == last
        assert all(s.active_ms == last for s in report.replica_stats)
        assert_conserved(report)

    def test_frontdoor_events_carry_router_replica(self):
        report = run_fleet(
            routers="least_queue",
            replicas=2,
            trace=TraceSpec(kind="bursty", rps=120, duration_s=2, seed=3),
            faults=FaultPlan(
                crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=1500.0),),
            ),
            resilience=ResilienceSpec(
                timeout_ms=800.0, max_retries=1, shed_factor=0.5
            ),
            slo_ttft_ms=300.0,
        )
        assert_conserved(report)
        frontdoor = [
            e for e in report.events if e.kind in ("retry", "timeout", "shed")
        ]
        assert frontdoor, "policy under a crash burst must act at the door"
        assert all(e.replica == -1 for e in frontdoor)
        assert sum(1 for e in report.events if e.kind == "shed") == report.shed
        assert (
            sum(1 for e in report.events if e.kind == "retry") == report.retries
        )


@given(
    fail_ms=st.floats(min_value=100.0, max_value=1500.0),
    outage_ms=st.floats(min_value=50.0, max_value=800.0),
    degrade_mult=st.floats(min_value=1.5, max_value=4.0),
    timeout_ms=st.floats(min_value=400.0, max_value=4000.0),
    max_retries=st.integers(min_value=0, max_value=2),
    shed_factor=st.one_of(st.none(), st.floats(min_value=0.5, max_value=3.0)),
)
@settings(max_examples=10, deadline=None)
def test_any_fault_and_policy_mix_conserves_requests(
    fail_ms, outage_ms, degrade_mult, timeout_ms, max_retries, shed_factor
):
    report = run_fleet(
        routers="least_queue",
        faults=FaultPlan(
            crashes=(
                FailureEvent(
                    replica=0, fail_ms=fail_ms, recover_ms=fail_ms + outage_ms
                ),
            ),
            degrades=(
                DegradeEvent(
                    replica=1,
                    t0_ms=fail_ms / 2,
                    t1_ms=fail_ms + outage_ms,
                    compute_mult=degrade_mult,
                    comm_mult=degrade_mult,
                ),
            ),
        ),
        resilience=ResilienceSpec(
            timeout_ms=timeout_ms,
            max_retries=max_retries,
            shed_factor=shed_factor,
        ),
        slo_ttft_ms=250.0,
    )
    assert_conserved(report)


class TestDegradation:
    def test_static_degrade_hurts_tail_latency_and_emits_markers(self):
        healthy = run_fleet()
        degraded = run_fleet(
            faults=FaultPlan(degrades=(
                DegradeEvent(
                    replica=0, t0_ms=200.0, t1_ms=1800.0,
                    compute_mult=4.0, comm_mult=4.0,
                ),
            )),
        )
        assert (
            degraded.ttft_percentiles()["p99"] > healthy.ttft_percentiles()["p99"]
        )
        kinds = [(e.kind, e.replica) for e in degraded.events]
        assert ("degrade", 0) in kinds and ("restore", 0) in kinds

    def test_detector_probation_recovers_tail_latency(self):
        # Round-robin keeps feeding the straggler; the detector's
        # probation is the only thing that re-routes around it.
        plan = FaultPlan(degrades=(
            DegradeEvent(
                replica=0, t0_ms=500.0, t1_ms=4000.0,
                compute_mult=4.0, comm_mult=4.0,
            ),
        ))
        trace = TraceSpec(kind="poisson", rps=70, duration_s=4.0, seed=11)
        blind, watched = (
            FleetSpec.grid(
                traces=trace,
                replicas=3,
                routers="round_robin",
                systems="comet",
                faults=plan,
                resilience=(
                    None,
                    ResilienceSpec(
                        slow_factor=1.5, check_interval_ms=250.0,
                        health_window_ms=750.0, probation_ms=1500.0,
                        max_probations=1,
                    ),
                ),
            )
            .run()
            .reports
        )
        assert watched.probations >= 1
        assert watched.evictions >= 1  # max_probations=1: second strike evicts
        assert (
            watched.ttft_percentiles()["p99"] < blind.ttft_percentiles()["p99"]
        )
        kinds = [(e.kind, e.replica) for e in watched.events]
        assert ("probation", 0) in kinds and ("evict", 0) in kinds
        assert_conserved(watched)
        assert blind.unserved == 0


class TestCrashSurvival:
    def test_retry_and_shed_raise_goodput_under_staggered_crashes(self):
        # Two of three replicas down at once under bursty load: shedding
        # what cannot meet the SLO beats queueing every request through
        # the outage.
        plan = FaultPlan(crashes=(
            FailureEvent(replica=0, fail_ms=500.0, recover_ms=2500.0),
            FailureEvent(replica=1, fail_ms=1000.0, recover_ms=2000.0),
        ))
        bare, defended = (
            FleetSpec.grid(
                traces=TraceSpec(kind="bursty", rps=120, duration_s=3.0, seed=3),
                replicas=3,
                routers="least_queue",
                systems="comet",
                faults=plan,
                resilience=(
                    None,
                    ResilienceSpec(timeout_ms=8000.0, max_retries=2, shed_factor=0.75),
                ),
                slo_ttft_ms=300.0,
            )
            .run()
            .reports
        )
        assert defended.goodput_rps > bare.goodput_rps
        assert defended.slo_attainment > bare.slo_attainment
        assert_conserved(defended)
        assert bare.unserved == 0


class TestExportGating:
    def _plain(self):
        return FleetSpec.grid(traces=TRACE, replicas=2, systems="comet").run()

    def _resilient(self):
        return FleetSpec.grid(
            traces=TRACE,
            replicas=2,
            routers="least_queue",
            systems="comet",
            faults=FaultPlan(
                crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=900.0),),
            ),
            resilience=ResilienceSpec(
                timeout_ms=1500.0, max_retries=1, shed_factor=2.0
            ),
        ).run()

    def test_plain_exports_hide_resilience_columns(self):
        results = self._plain()
        headers, _ = results.to_rows()
        for key in ("timed_out", "shed", "retries", "probations", "evictions"):
            assert key not in headers
        assert '"outcomes"' not in results.to_json()
        assert "resilience" not in results.to_csv()

    def test_resilient_exports_show_columns_in_every_format(self):
        results = self._resilient()
        headers, rows = results.to_rows()
        for key in ("timed_out", "shed", "retries", "probations", "evictions"):
            assert key in headers
        assert len(rows[0]) == len(headers)
        json_text = results.to_json()
        assert '"resilience"' in json_text and '"outcomes"' in json_text
        csv_head = results.to_csv().splitlines()[0]
        assert "timed_out" in csv_head and "evictions" in csv_head


class TestTimelineRendering:
    def test_fault_and_frontdoor_events_render_in_chrome_trace(self):
        from repro.obs import trace_fleet_report, validate_chrome_trace

        report = run_fleet(
            routers="least_queue",
            replicas=2,
            trace=TraceSpec(kind="bursty", rps=120, duration_s=2, seed=3),
            faults=FaultPlan(
                crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=1500.0),),
                degrades=(
                    DegradeEvent(
                        replica=1, t0_ms=200.0, t1_ms=1000.0,
                        compute_mult=2.0, comm_mult=2.0,
                    ),
                ),
            ),
            resilience=ResilienceSpec(
                timeout_ms=800.0, max_retries=1, shed_factor=0.5
            ),
            slo_ttft_ms=300.0,
        )
        tracer = trace_fleet_report(report)
        doc = tracer.to_chrome_trace()
        counts = validate_chrome_trace(doc, check_overlap=True)
        # every fleet event became an instant, flows stay paired
        assert counts["i"] >= len(report.events)
        assert counts["s"] == counts["f"]
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert {"degrade", "restore", "fail", "recover"} <= names
        frontdoor = [e for e in report.events if e.replica == -1]
        assert frontdoor
        router_pids = {
            e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
            and e["name"] == "process_name"
            and e["args"]["name"] == "router"
        }
        rendered = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "i" and e["name"] in ("retry", "timeout", "shed")
        ]
        assert len(rendered) == len(frontdoor)
        assert all(e["pid"] in router_pids for e in rendered)
        # the cumulative counter track exists whenever the door acted
        assert any(
            e["ph"] == "C" and e["name"] == "resilience"
            for e in doc["traceEvents"]
        )
