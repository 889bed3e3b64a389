"""Costed KV migration vs. the free-handoff lower bound.

PR 6's disaggregated handoff teleported KV caches between pools.  With a
:class:`MigrationSpec` every prefill→decode handoff pays for its KV
bytes over the inter-replica link (batched per destination), crashed
replicas' requests re-ship their prompt context, and brownout windows
stretch transfers in flight.  The free path must remain a lower bound,
and pricing must never break request conservation.
"""

import pytest

from repro import (
    MIXTRAL_8X7B,
    SYSTEM_REGISTRY,
    BrownoutEvent,
    FailureEvent,
    FaultPlan,
    FleetSpec,
    MigrationSpec,
    TraceSpec,
)
from repro.hw.link import LinkSpec

TRACE = TraceSpec(kind="bursty", rps=60, duration_s=1.5, seed=7)

# A deliberately starved fabric: KV transfer time dominates the handoff.
SLOW_LINK = LinkSpec(name="slow-wan", gbps=1.0, latency_us=500.0)


def run_disagg(migrations, trace=TRACE, faults=None):
    return (
        FleetSpec.grid(
            models="mixtral",
            replicas="1p+2d",
            traces=trace,
            systems="comet",
            migrations=migrations,
            faults=faults,
        )
        .run()
        .reports
    )


def assert_conserved(report):
    rids = [r.rid for r in report.records]
    assert len(rids) == len(set(rids))
    assert report.num_requests == report.offered
    assert report.unserved == 0


class TestHandoffPricing:
    def test_costed_migration_never_beats_free_handoff(self):
        free, costed = run_disagg((None, MigrationSpec()))
        assert_conserved(free)
        assert_conserved(costed)
        assert costed.e2e_percentiles()["p99"] >= free.e2e_percentiles()["p99"]
        assert costed.e2e_percentiles()["p50"] >= free.e2e_percentiles()["p50"]

    def test_link_bottleneck_strictly_slows_completion(self):
        free, costed = run_disagg((None, MigrationSpec(link=SLOW_LINK)))
        assert costed.e2e_percentiles()["p50"] > free.e2e_percentiles()["p50"]
        assert costed.e2e_percentiles()["p99"] > free.e2e_percentiles()["p99"]
        assert_conserved(costed)

    def test_handoff_happens_after_first_token(self):
        # The prefill pool emits the first token before migrating, so
        # TTFT is identical under any link price — only E2E moves.
        free, costed = run_disagg((None, MigrationSpec(link=SLOW_LINK)))
        assert costed.ttft_percentiles() == free.ttft_percentiles()

    def test_slower_link_costs_monotonically_more(self):
        fast, slow = run_disagg(
            (
                MigrationSpec(),  # 400 Gb/s IB default
                MigrationSpec(link=SLOW_LINK),
            )
        )
        assert slow.e2e_percentiles()["p99"] > fast.e2e_percentiles()["p99"]


class TestBrownout:
    def test_brownout_window_stretches_migrations_inside_it(self):
        plan = FaultPlan(brownouts=(
            BrownoutEvent(t0_ms=0.0, t1_ms=10_000.0, mult=8.0),
        ))
        (calm,) = run_disagg(MigrationSpec(link=SLOW_LINK))
        (browned,) = run_disagg(MigrationSpec(link=SLOW_LINK), faults=plan)
        assert browned.e2e_percentiles()["p99"] > calm.e2e_percentiles()["p99"]
        assert_conserved(browned)


class TestCrashContextReship:
    @pytest.mark.parametrize("system", SYSTEM_REGISTRY.names())
    def test_reclaimed_requests_pay_context_shipping(self, system):
        trace = TraceSpec(kind="poisson", rps=40, duration_s=2, seed=5)
        plan = FaultPlan(crashes=(
            FailureEvent(replica=0, fail_ms=400.0, recover_ms=1200.0),
        ))

        def crash_run(migrations):
            return (
                FleetSpec.grid(
                    traces=trace,
                    replicas=3,
                    routers="least_queue",
                    systems=system,
                    faults=plan,
                    migrations=migrations,
                )
                .run()
                .reports[0]
            )

        migration = MigrationSpec(link=SLOW_LINK)
        free = crash_run(None)
        costed = crash_run(migration)
        assert free.failures == costed.failures == 1
        assert_conserved(free)
        assert_conserved(costed)
        # A request the crash reclaimed (a second entry dispatch) reaches
        # its new replica only after its context crosses the starved
        # link (its batch ships at least its own bytes), so its first
        # token comes no earlier than that.  A p99 bound would not hold:
        # continuous batching is list scheduling, where a slower link
        # can shorten the schedule.
        redispatched = {}
        for d in costed.dispatches:
            if d.pool == "entry":
                redispatched.setdefault(d.rid, []).append(d.t_ms)
        redispatched = {rid: ts[-1] for rid, ts in redispatched.items() if len(ts) > 1}
        assert redispatched
        for record in costed.records:
            if record.rid in redispatched:
                context = record.prompt_tokens * MIXTRAL_8X7B.token_bytes
                arrival = redispatched[record.rid] + migration.transfer_ms(context, 1)
                assert record.first_token_ms >= arrival

    def test_migration_label_lands_in_scenario_label(self):
        (report,) = run_disagg(MigrationSpec())
        assert "kv:" in report.scenario_label


class TestPricingInvariance:
    def test_unified_fleet_without_crashes_ignores_migration(self):
        # No pools, no crashes: nothing ever migrates, so pricing the
        # link must be a byte-level no-op apart from the label.
        trace = TraceSpec(kind="poisson", rps=40, duration_s=1, seed=5)

        def unified(migrations):
            return (
                FleetSpec.grid(
                    traces=trace, replicas=2, systems="comet",
                    migrations=migrations,
                )
                .run()
                .reports[0]
            )

        free, costed = unified(None), unified(MigrationSpec(link=SLOW_LINK))
        assert free.records == costed.records
        assert free.ttft_percentiles() == costed.ttft_percentiles()

    def test_default_pricing_is_small_but_visible(self):
        free, costed = run_disagg((None, MigrationSpec()))
        p50_free = free.e2e_percentiles()["p50"]
        p50_costed = costed.e2e_percentiles()["p50"]
        # a 400 Gb/s fabric prices a handoff in single-digit ms — real
        # enough to register, small enough not to distort the study
        assert p50_costed - p50_free < 0.1 * p50_free
