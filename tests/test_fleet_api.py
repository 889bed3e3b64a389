"""FleetSpec grid expansion, result filtering, export-schema gating,
parallel execution, disaggregated pools, autoscaling and hand-built
trace checks."""

import csv
import io
import json

import pytest

from repro import FleetSpec, TraceSpec, perf
from repro.fleet import AutoscalerSpec, FailureEvent, FleetScenario, ReplicaSpec
from repro.hw.presets import h800_node
from repro.moe.config import MIXTRAL_8X7B
from repro.parallel.strategy import ParallelStrategy
from repro.serve.traffic import Request
from repro.systems.comet import Comet

TRACE = TraceSpec(kind="poisson", rps=20, duration_s=3, seed=0)
CLUSTER = h800_node()
STRATEGY = ParallelStrategy(tp_size=1, ep_size=8)


class TestGridExpansion:
    def test_cartesian_product_counts(self):
        spec = FleetSpec.grid(
            traces=TRACE,
            replicas=(1, 2),
            routers=("round_robin", "least_queue"),
            systems=("comet", "tutel"),
        )
        assert len(spec.scenarios) == 4  # 2 replica counts x 2 routers
        assert len(spec.systems) == 2

    def test_replicas_axis_int(self):
        spec = FleetSpec.grid(traces=TRACE, replicas=3, systems="comet")
        scenario = spec.scenarios[0]
        assert scenario.num_replicas == 3
        assert all(r.role == "unified" for r in scenario.expand_replicas())

    def test_replicas_axis_disagg_string(self):
        spec = FleetSpec.grid(traces=TRACE, replicas="2p+1d", systems="comet")
        roles = [r.role for r in spec.scenarios[0].expand_replicas()]
        assert roles == ["prefill", "prefill", "decode"]

    def test_replicas_axis_heterogeneous_tuple(self):
        # A sequence of ReplicaSpecs is ONE heterogeneous pool, not an
        # axis of single-replica scenarios.
        pool = (
            ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, count=2),
            ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, count=1),
        )
        spec = FleetSpec.grid(traces=TRACE, replicas=pool, systems="comet")
        assert len(spec.scenarios) == 1
        assert spec.scenarios[0].num_replicas == 3

    def test_scenario_labels_unique(self):
        spec = FleetSpec.grid(
            traces=TRACE,
            replicas=(1, 2),
            routers=("round_robin", "power_of_two"),
            systems="comet",
        )
        labels = [s.label for s in spec.scenarios]
        assert len(labels) == len(set(labels))


class TestResultFiltering:
    @pytest.fixture(scope="class")
    def results(self):
        return FleetSpec.grid(
            traces=TRACE,
            replicas=(1, 2),
            routers=("round_robin", "least_queue"),
            systems="comet",
        ).run(workers=2)

    def test_filter_by_router(self, results):
        sub = results.filter(router="least_queue")
        assert len(sub.reports) == 2
        assert all(r.router == "least_queue" for r in sub.reports)

    def test_filter_by_replicas(self, results):
        sub = results.filter(replicas=2)
        assert len(sub.reports) == 2
        assert all(r.num_replicas == 2 for r in sub.reports)

    def test_filter_composes(self, results):
        sub = results.filter(router="round_robin", replicas=1)
        assert len(sub.reports) == 1

    def test_goodput_by_router(self, results):
        table = results.goodput_by_router()
        assert set(table) == {"round_robin", "least_queue"}


class TestExportSchemaGating:
    """One predicate decides the optional columns in EVERY export."""

    def run_single(self):
        return FleetSpec.grid(traces=TRACE, systems="comet").run()

    def run_swept(self):
        return FleetSpec.grid(
            traces=TRACE,
            replicas=(1, 2),
            routers=("round_robin", "least_queue"),
            systems="comet",
        ).run()

    def test_unswept_exports_omit_router_and_replica_columns(self):
        results = self.run_single()
        headers, _ = results.to_rows()
        assert "router" not in headers and "replicas" not in headers
        doc = json.loads(results.to_json())
        assert "router" not in doc["reports"][0]
        assert "replicas" not in doc["reports"][0]
        first_line = results.to_csv().splitlines()[0]
        assert "router" not in first_line and "replicas" not in first_line

    def test_swept_exports_all_carry_both_columns(self):
        results = self.run_swept()
        headers, rows = results.to_rows()
        assert "router" in headers and "replicas" in headers
        doc = json.loads(results.to_json())
        assert all("router" in r and "replicas" in r for r in doc["reports"])
        reader = csv.DictReader(io.StringIO(results.to_csv()))
        for row in reader:
            assert row["router"] in {"round_robin", "least_queue"}
            assert row["replicas"] in {"1", "2"}

    def test_csv_and_rows_agree(self):
        results = self.run_swept()
        headers, rows = results.to_rows()
        reader = csv.reader(io.StringIO(results.to_csv()))
        assert next(reader) == headers
        assert len(list(reader)) == len(rows)


class TestParallelExecution:
    def test_workers_byte_identical_to_serial(self):
        spec = FleetSpec.grid(
            traces=TRACE,
            replicas=(1, 2),
            routers=("round_robin", "least_queue"),
            systems=("comet", "tutel"),
        )
        perf.clear_caches()
        serial = spec.run()
        perf.clear_caches()
        threaded = spec.run(workers=4)
        assert threaded.to_json() == serial.to_json()
        assert threaded.to_csv() == serial.to_csv()

    def test_step_cost_cache_shared_across_replicas(self):
        perf.clear_caches()
        FleetSpec.grid(traces=TRACE, replicas=4, systems="comet").run()
        stats = perf.cache_stats()["step-cost"]
        # 4 identical replicas -> 1 model build + 3 cache hits.
        assert stats["hits"] >= 3


class TestDisaggregatedPools:
    def test_disagg_fleet_serves_everything(self):
        report = (
            FleetSpec.grid(traces=TRACE, replicas="1p+1d", systems="comet")
            .run()
            .reports[0]
        )
        assert report.unserved == 0
        assert report.num_requests == report.offered > 0
        roles = {s.role for s in report.replica_stats}
        assert roles == {"prefill", "decode"}
        # Both pools did real work.
        for stat in report.replica_stats:
            assert stat.requests > 0 and stat.busy_ms > 0

    def test_disagg_records_causally_ordered(self):
        report = (
            FleetSpec.grid(traces=TRACE, replicas="2p+2d", systems="comet")
            .run()
            .reports[0]
        )
        for r in report.records:
            assert r.arrival_ms <= r.first_token_ms <= r.completion_ms


class TestAutoscaling:
    def test_tracks_a_diurnal_cycle_with_fewer_gpus_than_static(self):
        trace = TraceSpec(kind="diurnal", rps=150, duration_s=10, seed=1, amplitude=0.9)
        scaler = AutoscalerSpec(
            min_replicas=1, scale_up_queue=4.0, scale_down_queue=0.5,
            interval_ms=500.0, warmup_ms=1000.0,
        )
        static, scaled = FleetSpec.grid(
            replicas=4, autoscalers=(None, scaler), traces=trace, systems="comet"
        ).run().reports
        assert static.autoscaler_churn == 0
        # The diurnal peak sits at a quarter of the horizon: every scale-up
        # lands in the busy first half, every scale-down after the peak.
        ups = [e.t_ms for e in scaled.events if e.kind == "up"]
        downs = [e.t_ms for e in scaled.events if e.kind == "down"]
        assert ups and all(t <= trace.horizon_ms / 2 for t in ups)
        assert downs and all(t > trace.horizon_ms / 4 for t in downs)
        assert scaled.unserved == 0
        assert scaled.mean_active_gpus < static.mean_active_gpus


class TestTraceOrder:
    """The engine releases requests in tuple order, so a hand-built
    trace must arrive in order with distinct ids."""

    def run(self, trace):
        (scenario,) = FleetSpec.grid(
            traces=TRACE, replicas=2, routers="least_queue", systems="comet"
        ).scenarios
        return scenario.run_system(Comet(), trace=trace)

    def test_decreasing_arrival_rejected(self):
        with pytest.raises(ValueError, match="request 1 arrives at 10.0 ms"):
            self.run((Request(0, 50.0, 64, 4), Request(1, 10.0, 64, 4)))

    def test_repeated_rid_rejected(self):
        with pytest.raises(ValueError, match="ids must be distinct: 0 repeats"):
            self.run((Request(0, 10.0, 64, 4), Request(0, 10.0, 64, 4)))


class TestSpecValidation:
    def kwargs(self, **overrides):
        base = dict(
            config=MIXTRAL_8X7B,
            replicas=(ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, count=2),),
        )
        base.update(overrides)
        return base

    def test_autoscaler_rejects_disaggregated_pools(self):
        replicas = (
            ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, role="prefill"),
            ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, role="decode"),
        )
        with pytest.raises(ValueError, match="autoscal"):
            FleetScenario(
                **self.kwargs(replicas=replicas, autoscaler=AutoscalerSpec())
            )

    def test_autoscaler_min_bounded_by_fleet_size(self):
        with pytest.raises(ValueError, match="min_replicas"):
            FleetScenario(
                **self.kwargs(autoscaler=AutoscalerSpec(min_replicas=5))
            )

    def test_prefill_only_pool_rejected(self):
        replicas = (
            ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, role="prefill"),
        )
        with pytest.raises(ValueError, match="decode"):
            FleetScenario(**self.kwargs(replicas=replicas))

    def test_replica_spec_count_positive(self):
        with pytest.raises(ValueError):
            ReplicaSpec(cluster=CLUSTER, strategy=STRATEGY, count=0)

    def test_unknown_scheduling_policy_rejected(self):
        with pytest.raises(ValueError, match="polic"):
            FleetScenario(**self.kwargs(policy="lifo"))

    def test_failure_event_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FailureEvent(replica=0, fail_ms=-1.0)
