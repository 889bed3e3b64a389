"""Unit tests for the tracer and Chrome-trace export."""

import json

import pytest

from repro.sim import TraceEvent, Tracer


class TestTraceEvent:
    def test_duration(self):
        event = TraceEvent("op", "comp", "lane", 1.0, 4.5)
        assert event.duration == 3.5

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent("op", "comp", "lane", 5.0, 4.0)


class TestTracer:
    def test_record_and_lanes(self):
        tracer = Tracer()
        tracer.record("a", "comp", "rank0/sm", 0, 1)
        tracer.record("b", "comm", "rank0/comm", 0, 2)
        assert tracer.lanes() == ["rank0/comm", "rank0/sm"]

    def test_busy_time_merges_overlaps_same_lane(self):
        tracer = Tracer()
        tracer.record("a", "comp", "l", 0, 10)
        tracer.record("b", "comp", "l", 5, 15)
        assert tracer.busy_time(lane="l") == 15

    def test_busy_time_adds_across_lanes(self):
        tracer = Tracer()
        tracer.record("a", "comp", "l1", 0, 10)
        tracer.record("b", "comp", "l2", 0, 10)
        assert tracer.busy_time() == 20

    def test_busy_time_category_filter(self):
        tracer = Tracer()
        tracer.record("a", "comp", "l", 0, 10)
        tracer.record("b", "comm", "l", 20, 25)
        assert tracer.busy_time(category="comm") == 5

    def test_category_breakdown(self):
        tracer = Tracer()
        tracer.record("a", "comp", "l", 0, 4)
        tracer.record("b", "comm", "l", 4, 10)
        assert tracer.category_breakdown() == {"comm": 6.0, "comp": 4.0}

    def test_chrome_trace_structure(self):
        tracer = Tracer()
        tracer.record("tile", "comp", "rank0/sm", 1.0, 2.0, expert=3)
        doc = tracer.to_chrome_trace()
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]
        assert x["ts"] == 1.0 and x["dur"] == 1.0
        assert x["args"] == {"expert": 3}

    def test_save_chrome_trace_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.record("tile", "comp", "lane", 0, 1)
        path = tmp_path / "trace.json"
        tracer.save_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded


class TestTracerExtendedPhases:
    def test_counter_export(self):
        tracer = Tracer()
        tracer.counter("queue", 1.0, depth=3, tokens=128)
        doc = tracer.to_chrome_trace()
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "queue"
        assert counters[0]["args"] == {"depth": 3, "tokens": 128}

    def test_instant_export_and_scope_validation(self):
        tracer = Tracer()
        tracer.instant("fail", 5.0, scope="p", replica=1)
        doc = tracer.to_chrome_trace()
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants[0]["s"] == "p"
        assert instants[0]["args"] == {"replica": 1}
        with pytest.raises(ValueError):
            tracer.instant("bad", 0.0, scope="x")

    def test_flow_pair_export(self):
        tracer = Tracer()
        tracer.flow_begin("dispatch", 1.0, 7, lane="router")
        tracer.flow_end("dispatch", 2.0, 7, lane="engine")
        doc = tracer.to_chrome_trace()
        start = [e for e in doc["traceEvents"] if e["ph"] == "s"][0]
        finish = [e for e in doc["traceEvents"] if e["ph"] == "f"][0]
        assert start["id"] == finish["id"] == 7
        assert "bp" not in start and finish["bp"] == "e"

    def test_processes_get_distinct_pids(self):
        tracer = Tracer()
        tracer.record("a", "comp", "sm", 0, 1, process="replica0")
        tracer.record("b", "comp", "sm", 0, 1, process="replica1")
        doc = tracer.to_chrome_trace()
        xs = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(xs) == 2
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"replica0", "replica1"}

    def test_default_process_is_pid_zero_and_unnamed(self):
        tracer = Tracer()
        tracer.record("a", "comp", "sm", 0, 1)
        tracer.record("b", "comp", "sm", 0, 1, process="replica0")
        assert tracer.processes() == ["", "replica0"]
        doc = tracer.to_chrome_trace()
        default_x = [
            e for e in doc["traceEvents"] if e["ph"] == "X" and e["pid"] == 0
        ]
        assert len(default_x) == 1
        named = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert {e["args"]["name"] for e in named} == {"replica0"}

    def test_busy_time_separates_processes(self):
        tracer = Tracer()
        tracer.record("a", "comp", "l", 0, 10, process="p0")
        tracer.record("b", "comp", "l", 0, 10, process="p1")
        assert tracer.busy_time(lane="l") == 20
