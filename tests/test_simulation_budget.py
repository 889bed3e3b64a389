"""A fleet co-simulation runs in work bounded by what it offers.

Each spec below is accepted at construction: its tick interval is
finite and positive, yet too small to advance the clock, so the
co-simulation would tick forever.  The loop's timer budget turns each
into a :class:`~repro.api.scenario.SimulationBudgetExceeded` naming the
scenario, while ordinary runs stay far inside the budget.
"""

import re
from unittest import mock

import pytest

from repro import (
    AutoscalerSpec,
    FailureEvent,
    FaultPlan,
    FleetSpec,
    MigrationSpec,
    ResilienceSpec,
    SimulationBudgetExceeded,
    TraceSpec,
)
from repro.fleet import simulator

TRACE = TraceSpec(kind="poisson", rps=40, duration_s=3, seed=1)


@pytest.mark.parametrize(
    "knob",
    (
        dict(autoscalers=AutoscalerSpec(min_replicas=1, interval_ms=1e-300)),
        dict(resilience=ResilienceSpec(slow_factor=1.5, check_interval_ms=1e-300)),
    ),
    ids=("autoscaler", "detector"),
)
def test_a_tick_that_cannot_advance_the_clock_exceeds_the_budget(knob):
    spec = FleetSpec.grid(
        replicas=3, routers="least_queue", traces=TRACE, systems="tutel", **knob
    )
    (scenario,) = spec.scenarios
    with pytest.raises(SimulationBudgetExceeded, match=re.escape(scenario.label)):
        spec.run()


@pytest.mark.parametrize(
    "knob",
    (
        dict(
            replicas=3,
            faults=FaultPlan(crashes=(
                FailureEvent(replica=0, fail_ms=300.0, recover_ms=1200.0),
                FailureEvent(replica=1, fail_ms=400.0, recover_ms=800.0),
            )),
            resilience=ResilienceSpec(
                timeout_ms=4000.0, max_retries=1, shed_factor=1.5, slow_factor=1.5,
            ),
            migrations=MigrationSpec(),
        ),
        dict(
            replicas="2p+2d",
            failures=(FailureEvent(replica=1, fail_ms=500.0, recover_ms=1500.0),),
            migrations=MigrationSpec(),
        ),
        dict(replicas=3, autoscalers=AutoscalerSpec(min_replicas=1, interval_ms=100.0)),
    ),
    ids=("resilience", "disaggregated", "autoscaler"),
)
def test_ordinary_runs_stay_inside_a_tenth_of_the_budget(knob):
    spec = FleetSpec.grid(routers="least_queue", traces=TRACE, systems="comet", **knob)
    with mock.patch.object(simulator, "BUDGET_PER_UNIT", simulator.BUDGET_PER_UNIT / 10):
        (report,) = spec.run().reports
    assert len(report.records) + report.timed_out + report.shed == report.offered
