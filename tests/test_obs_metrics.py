"""MetricsRegistry, snapshot_for dispatch, and RunManifest determinism."""

import hashlib
import json

import pytest

from repro import ExperimentSpec
from repro.fleet import FleetSpec
from repro.obs import (
    MetricsRegistry,
    RunManifest,
    capture,
    fingerprint_obj,
    snapshot_for,
)
from repro.serve import ServeSpec, TraceSpec


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits")
        registry.counter("hits", 4)
        assert registry.snapshot()["counters"] == {"hits": 5.0}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 3)
        registry.gauge("depth", 1)
        assert registry.snapshot()["gauges"] == {"depth": 1}

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", value)
        summary = registry.snapshot()["histograms"]["lat"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert {"p50", "p95", "p99"} <= set(summary)

    def test_fresh_registry_snapshot_is_empty(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.5)
        json.dumps(registry.snapshot())


class TestSnapshotFor:
    def test_experiment_snapshot(self):
        results = ExperimentSpec.grid(tokens=4096, systems="comet").run()
        snap = snapshot_for(results)
        assert snap["counters"]["experiment.rows"] == len(results.rows)
        assert any(k.startswith("cache.") for k in snap["counters"])
        assert snapshot_for(results, include_caches=False)["counters"] == {
            "experiment.rows": float(len(results.rows)),
            "experiment.skips": 0.0,
        }

    def test_serve_snapshot(self):
        results = ServeSpec.grid(
            traces=TraceSpec(rps=20, duration_s=1.0), systems="comet"
        ).run()
        snap = snapshot_for(results, include_caches=False)
        assert snap["counters"]["serve.reports"] == 1.0
        assert "serve.ttft_ms" in snap["histograms"]

    def test_fleet_snapshot(self):
        results = FleetSpec.grid(
            replicas=2,
            traces=TraceSpec(rps=20, duration_s=1.0),
            systems="comet",
        ).run()
        snap = snapshot_for(results, include_caches=False)
        assert snap["counters"]["fleet.reports"] == 1.0
        assert snap["counters"]["fleet.dispatches"] > 0
        assert "fleet.e2e_ms" in snap["histograms"]

    def test_rejects_unknown_container(self):
        with pytest.raises(TypeError):
            snapshot_for(42)

    def test_empty_run_has_no_latency_histograms(self):
        results = ServeSpec.grid(
            traces=TraceSpec(kind="replay", arrivals_ms=()), systems="comet"
        ).run()
        histograms = snapshot_for(results, include_caches=False)["histograms"]
        assert "serve.ttft_ms" not in histograms and "serve.e2e_ms" not in histograms

    # sha256 of the sorted-key JSON snapshot without cache counters: the
    # TTFT/E2E histograms walk every record, which no CLI pin covers.
    SNAPSHOT_PINS = {
        "serve": "a6ad8f345ba180eb4ca7048057ce45473e2860d83984b3e0db13e983b3a0d584",
        "fleet": "96b6e5e0cd8afd3f8d28524d8b5735e489aa4c09eb8d2f96cd9fb8563015761e",
    }

    @pytest.mark.parametrize("kind", sorted(SNAPSHOT_PINS))
    def test_snapshot_is_byte_identical(self, kind):
        if kind == "serve":
            spec = ServeSpec.grid(
                traces=TraceSpec(kind="poisson", rps=20, duration_s=3, seed=0),
                systems=("comet", "tutel"),
            )
        else:
            spec = FleetSpec.grid(
                replicas=3,
                routers="power_of_two",
                traces=TraceSpec(kind="poisson", rps=60, duration_s=2, seed=5),
                systems="comet",
            )
        text = json.dumps(snapshot_for(spec.run(), include_caches=False), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SNAPSHOT_PINS[kind]


class TestFingerprint:
    def test_deterministic_across_calls(self):
        spec = ExperimentSpec.grid(tokens=4096, systems="comet")
        assert fingerprint_obj(spec) == fingerprint_obj(spec)

    def test_sensitive_to_content(self):
        a = ExperimentSpec.grid(tokens=4096, systems="comet")
        b = ExperimentSpec.grid(tokens=8192, systems="comet")
        assert fingerprint_obj(a) != fingerprint_obj(b)

    def test_dict_key_order_is_canonical(self):
        assert fingerprint_obj({"a": 1, "b": 2}) == fingerprint_obj(
            {"b": 2, "a": 1}
        )

    def test_nan_and_inf_are_fingerprintable(self):
        assert fingerprint_obj(float("nan")) == fingerprint_obj(float("nan"))
        assert fingerprint_obj(float("inf")) != fingerprint_obj(float("nan"))


class TestRunManifest:
    def test_attached_manifests_are_deterministic(self):
        first = ExperimentSpec.grid(tokens=4096, systems="comet").run()
        second = ExperimentSpec.grid(tokens=4096, systems="comet").run()
        assert first.manifest == second.manifest
        assert first.manifest.created_unix is None
        assert first.manifest.kind == "experiment"

    def test_manifest_embedded_in_exports(self):
        results = ServeSpec.grid(
            traces=TraceSpec(rps=20, duration_s=1.0, seed=11), systems="comet"
        ).run()
        payload = json.loads(results.to_json())
        assert payload["manifest"]["kind"] == "serve"
        assert payload["manifest"]["seeds"] == [11]
        assert payload["manifest"]["fingerprint"]

    def test_fleet_manifest_counts_scenarios_and_systems(self):
        spec = FleetSpec.grid(
            replicas=(1, 2),
            traces=TraceSpec(rps=20, duration_s=1.0),
            systems="comet",
        )
        results = spec.run()
        assert results.manifest.scenarios == 2
        assert results.manifest.systems == ("comet",)

    def test_stamp_returns_copy_with_wall_clock(self):
        manifest = capture("experiment", (), ("comet",))
        stamped = manifest.stamp(now=123.0)
        assert manifest.created_unix is None
        assert stamped.created_unix == 123.0
        assert stamped.fingerprint == manifest.fingerprint
        assert isinstance(stamped, RunManifest)

    def test_manifest_survives_filter(self):
        results = ExperimentSpec.grid(
            tokens=(4096, 8192), systems="comet"
        ).run()
        filtered = results.filter(tokens=4096)
        assert filtered.manifest == results.manifest

    def test_to_dict_round_trips_through_json(self):
        manifest = capture("serve", (), ("comet",)).stamp(now=1.5)
        doc = json.loads(json.dumps(manifest.to_dict()))
        assert doc["version"] and doc["created_unix"] == 1.5
