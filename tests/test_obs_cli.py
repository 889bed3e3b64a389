"""`repro trace` and the --trace-out/--metrics-out flags.

``repro trace`` exports one rank's fused kernels; ``model``, ``serve``
and ``fleet --trace-out`` export the higher tiers.  A fleet trace is a
valid Chrome trace with per-replica pids, request flow events, counter
tracks, and autoscaler/failure instants.
"""

import json

from repro.cli import main
from repro.obs import validate_chrome_trace

FAST_SERVE = ["--rps", "20", "--duration", "1"]
GRAPH = ["model", "--systems", "comet", "--overlap-policy", "per_layer"]
FLEET = ["fleet", *FAST_SERVE, "--systems", "comet"]


def _load(path):
    doc = json.loads(path.read_text())
    return doc, validate_chrome_trace(doc)


class TestTraceKernels:
    def test_kernel_trace_default_mode(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        assert main(["trace", "--tokens", "4096", "--out", str(out)]) == 0
        doc, counts = _load(out)
        assert counts["X"] > 0
        lanes = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any("layer0" in lane for lane in lanes)

    def test_cluster_and_parallelism_are_configurable(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        code = main([
            "trace", "--cluster", "l20", "--tp", "2",
            "--tokens", "4096", "--out", str(out),
        ])
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text()))["X"] > 0

    def test_bad_tp_is_reported(self, tmp_path, capsys):
        code = main(["trace", "--tp", "-1", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "tp" in capsys.readouterr().err


class TestTraceGraph:
    def test_graph_mode_emits_critical_path_instants(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main([*GRAPH, "--tokens", "4096", "--trace-out", str(out)])
        assert code == 0
        doc, counts = _load(out)
        assert counts["i"] > 0  # critical-path markers
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["args"].get("critical") for e in x)

    def test_graph_mode_multi_rank_with_stragglers(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main([
            *GRAPH, "--tokens", "4096", "--stragglers", "1.5", "--trace-out", str(out),
        ])
        assert code == 0
        doc, _ = _load(out)
        procs = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(procs) > 1 and "rank0" in procs


class TestTraceServe:
    def test_serve_mode_emits_flows_and_counters(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = main([
            "serve", *FAST_SERVE, "--systems", "comet", "--trace-out", str(out),
        ])
        assert code == 0
        doc, counts = _load(out)
        assert counts["C"] > 0 and counts["s"] == counts["f"] > 0
        tracks = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert {"queue depth", "batch tokens", "running"} <= tracks


class TestTraceFleet:
    def test_fleet_trace_acceptance(self, tmp_path, capsys):
        """The PR's acceptance criterion, end to end."""
        out = tmp_path / "f.json"
        code = main([
            *FLEET, "--replicas", "2", "--failures", "0@500:1500", "--trace-out", str(out),
        ])
        assert code == 0
        doc, counts = _load(out)
        events = doc["traceEvents"]
        # per-replica pids (plus the router process)
        procs = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"router", "replica0", "replica1"} <= procs
        # request flow events, all paired
        assert counts["s"] == counts["f"] > 0
        # counter tracks
        assert counts["C"] > 0
        # failure/recovery instants from the injected failure
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert {"fail", "recover"} <= instants

    def test_fleet_trace_without_failures_has_no_instants(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main([*FLEET, "--replicas", "2", "--trace-out", str(out)])
        assert code == 0
        doc, counts = _load(out)
        assert counts.get("i", 0) == 0

    def test_fleet_trace_respects_router_choice(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        code = main([
            *FLEET, "--replicas", "3", "--router", "least_queue", "--trace-out", str(out),
        ])
        assert code == 0
        assert validate_chrome_trace(json.loads(out.read_text()))["X"] > 0


class TestTraceOutFlags:
    def test_model_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main([
            "model", "--tokens", "4096", "--systems", "comet",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        assert validate_chrome_trace(json.loads(trace_path.read_text()))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["manifest"]["kind"] == "model"
        assert metrics["manifest"]["created_unix"] is not None
        assert any(
            k.startswith("model.") for k in metrics["metrics"]["gauges"]
        )

    def test_serve_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main([
            "serve", *FAST_SERVE, "--systems", "comet",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        counts = validate_chrome_trace(json.loads(trace_path.read_text()))
        assert counts["C"] > 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["manifest"]["kind"] == "serve"
        assert "serve.ttft_ms" in metrics["metrics"]["histograms"]

    def test_fleet_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main([
            "fleet", *FAST_SERVE, "--replicas", "2", "--systems", "comet",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        counts = validate_chrome_trace(json.loads(trace_path.read_text()))
        assert counts["s"] == counts["f"] > 0
        metrics = json.loads(metrics_path.read_text())
        assert metrics["manifest"]["kind"] == "fleet"
        assert metrics["metrics"]["counters"]["fleet.dispatches"] > 0
