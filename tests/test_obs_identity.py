"""Zero-perturbation guarantee: observing a run never changes it.

Every :mod:`repro.obs` builder reads a finished result after its run.
Rendering a graph, a serve and a fleet trace plus a metrics snapshot
from seeded result sets must leave each result set's ``to_json()``
bytes and its reports unchanged.  With no switch to turn them off, each
builder renders exactly what its result holds.
"""

import copy

import pytest

from repro import ExperimentSpec
from repro.fleet import FailureEvent, FleetSpec
from repro.obs import (
    snapshot_for,
    trace_fleet_report,
    trace_graph_schedule,
    trace_serve_report,
)
from repro.serve import ServeSpec, TraceSpec


def _experiment():
    return ExperimentSpec.grid(tokens=4096, strategies=(1, 8), systems="comet")


def _serve():
    return ServeSpec.grid(
        traces=TraceSpec(kind="poisson", rps=30, duration_s=1.0, seed=7),
        systems="comet",
    )


def _fleet():
    return FleetSpec.grid(
        replicas=2,
        traces=TraceSpec(kind="bursty", rps=40, duration_s=1.0, seed=7),
        failures=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=700.0),),
        systems="comet",
    )


def _schedule(row):
    """The forward schedule ``run_model`` priced a COMET row on."""
    from repro.graph.lower import forward_schedule
    from repro.systems import Comet

    timing = row.model_timing
    return forward_schedule(
        Comet().lower_layer(timing.moe),
        timing.attention_us,
        timing.num_layers,
        timing.overlap_policy,
    )


RUNS = {
    "experiment": lambda: _experiment().run(level="model"),
    "serve": lambda: _serve().run(),
    "fleet": lambda: _fleet().run(),
}


def _observed(results):
    """What the builders read: the rows of an experiment, else the reports."""
    return results.rows if hasattr(results, "rows") else results.reports


def _traces(kind, results):
    if kind == "experiment":
        return [trace_graph_schedule(_schedule(row)) for row in results.rows]
    builder = trace_serve_report if kind == "serve" else trace_fleet_report
    return [builder(report) for report in results.reports]


class TestBitIdentity:
    @pytest.mark.parametrize("kind", RUNS)
    def test_tracing_a_report_does_not_mutate_it(self, kind):
        results = RUNS[kind]()
        export = results.to_json()
        before = copy.deepcopy(_observed(results))
        tracers = _traces(kind, results)
        assert tracers and all(tracer.events for tracer in tracers)
        for tracer in tracers:
            tracer.to_chrome_trace()
        snapshot_for(results)
        assert results.to_json() == export
        assert _observed(results) == before


class TestBuilderEmission:
    """Each builder renders exactly what its finished result holds."""

    def test_graph_builder_emits_one_span_per_node(self):
        schedule = _schedule(RUNS["experiment"]().rows[0])
        tracer = trace_graph_schedule(schedule)
        assert len(tracer.events) == len(schedule.graph.nodes)
        critical = {node.id for node in schedule.critical_path()}
        assert len(tracer.instants) == len(critical) > 0

    def test_serve_builder_emits_three_spans_and_one_arrow_per_record(self):
        report = RUNS["serve"]().reports[0]
        tracer = trace_serve_report(report)
        assert report.records
        assert len(tracer.events) == 3 * len(report.records)
        assert len(tracer.flows) == 2 * len(report.records)
        assert len(tracer.counters) == 3 * len(report.timeline)

    def test_fleet_builder_emits_one_arrow_per_served_hop_and_one_marker_per_event(self):
        report = RUNS["fleet"]().reports[0]
        tracer = trace_fleet_report(report)
        served = {record.rid for record in report.records}
        hops = sum(dispatch.rid in served for dispatch in report.dispatches)
        assert hops and report.events
        assert len(tracer.events) == len(tracer.flows) == 2 * hops
        assert len(tracer.instants) == len(report.events)
