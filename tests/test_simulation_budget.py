"""Fleet co-simulations and trace generators run in work bounded by
what they offer.

Each spec below is accepted at construction: its tick interval or dwell
is finite and positive, yet too small to advance the clock, so the
co-simulation would tick forever, or the trace generator would never
reach its horizon.  The timer budget and the generator's iteration
budget turn each into a
:class:`~repro.api.scenario.SimulationBudgetExceeded` naming the
scenario or trace, while ordinary runs stay far inside the budget.
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
from repro.serve import traffic

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


def test_a_dwell_that_cannot_advance_the_clock_exceeds_the_trace_budget():
    spec = TraceSpec(kind="bursty", burst_dwell_s=1e-300, rps=40, duration_s=3)
    with pytest.raises(SimulationBudgetExceeded, match=re.escape(spec.label)):
        spec.build()


@pytest.mark.parametrize(
    "spec",
    (
        TraceSpec(),
        TraceSpec(kind="poisson", rps=100, duration_s=50, seed=1),
        TraceSpec(kind="bursty", rps=60, duration_s=4, seed=2),
        TraceSpec(kind="bursty", rps=2, duration_s=30, seed=3),
        TraceSpec(kind="diurnal", rps=100, duration_s=5, seed=4),
        TraceSpec(kind="diurnal", rps=1, duration_s=1, seed=5),
    ),
    ids=lambda spec: spec.label,
)
def test_ordinary_traces_stay_inside_a_tenth_of_the_budget(spec):
    with mock.patch.object(traffic, "BUDGET_PER_UNIT", traffic.BUDGET_PER_UNIT / 10):
        spec.build()  # raises past a tenth of the budget
