"""Chrome-trace schema validation and the timeline builders' layout.

Satellite coverage for the observability PR: per-phase required keys,
tid/pid consistency, flow pairing, JSON round-trips, and the
collision-free ``req<slot>`` sub-lane layout of merged fleet traces.
"""

import json

import pytest

from repro.obs import validate_chrome_trace
from repro.obs.timeline import _SlotAllocator
from repro.sim import Tracer


def _named(pid=0, tid=0):
    return [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": "lane"}},
    ]


def _x(pid=0, tid=0, ts=0.0, dur=1.0, name="op"):
    return {"name": name, "cat": "comp", "ph": "X", "pid": pid, "tid": tid,
            "ts": ts, "dur": dur, "args": {}}


class TestValidator:
    def test_counts_by_phase(self):
        doc = {"traceEvents": _named() + [_x(), _x(ts=2.0)]}
        assert validate_chrome_trace(doc) == {"M": 1, "X": 2}

    def test_accepts_json_text(self):
        doc = json.dumps({"traceEvents": _named() + [_x()]})
        assert validate_chrome_trace(doc)["X"] == 1

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"name": "b", "ph": "B", "pid": 0, "tid": 0,
                                "ts": 0, "args": {}}]}
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(doc)

    def test_rejects_missing_required_key(self):
        bad = _x()
        del bad["dur"]
        with pytest.raises(ValueError, match="missing key 'dur'"):
            validate_chrome_trace({"traceEvents": _named() + [bad]})

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="negative dur"):
            validate_chrome_trace(
                {"traceEvents": _named() + [_x(dur=-1.0)]}
            )

    def test_rejects_non_integer_pid(self):
        bad = _x()
        bad["pid"] = "zero"
        with pytest.raises(ValueError, match="integers"):
            validate_chrome_trace({"traceEvents": _named() + [bad]})

    def test_rejects_unnamed_thread(self):
        with pytest.raises(ValueError, match="unnamed thread"):
            validate_chrome_trace({"traceEvents": [_x(tid=7)]})

    def test_rejects_conflicting_process_names(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "a"}},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "b"}},
        ]}
        with pytest.raises(ValueError, match="named twice"):
            validate_chrome_trace(doc)

    def test_rejects_non_numeric_counter(self):
        doc = {"traceEvents": [
            {"name": "q", "ph": "C", "pid": 0, "ts": 0,
             "args": {"depth": "three"}},
        ]}
        with pytest.raises(ValueError, match="non-numeric"):
            validate_chrome_trace(doc)

    def test_rejects_bad_instant_scope(self):
        doc = {"traceEvents": _named() + [
            {"name": "i", "cat": "c", "ph": "i", "pid": 0, "tid": 0,
             "ts": 0, "s": "z", "args": {}},
        ]}
        with pytest.raises(ValueError, match="invalid scope"):
            validate_chrome_trace(doc)

    def test_rejects_unpaired_flow(self):
        doc = {"traceEvents": _named() + [
            {"name": "f", "cat": "c", "ph": "s", "pid": 0, "tid": 0,
             "ts": 0, "id": 1, "args": {}},
        ]}
        with pytest.raises(ValueError, match="unpaired"):
            validate_chrome_trace(doc)

    def test_rejects_flow_finishing_before_start(self):
        doc = {"traceEvents": _named() + [
            {"name": "f", "cat": "c", "ph": "s", "pid": 0, "tid": 0,
             "ts": 5, "id": 1, "args": {}},
            {"name": "f", "cat": "c", "ph": "f", "pid": 0, "tid": 0,
             "ts": 1, "id": 1, "bp": "e", "args": {}},
        ]}
        with pytest.raises(ValueError, match="finishes"):
            validate_chrome_trace(doc)

    def test_rejects_flow_finish_without_binding_point(self):
        doc = {"traceEvents": _named() + [
            {"name": "f", "cat": "c", "ph": "s", "pid": 0, "tid": 0,
             "ts": 0, "id": 1, "args": {}},
            {"name": "f", "cat": "c", "ph": "f", "pid": 0, "tid": 0,
             "ts": 1, "id": 1, "bp": "x", "args": {}},
        ]}
        with pytest.raises(ValueError, match="bp='e'"):
            validate_chrome_trace(doc)

    def test_overlap_check_is_opt_in(self):
        doc = {"traceEvents": _named() + [_x(ts=0, dur=10), _x(ts=5, dur=10)]}
        validate_chrome_trace(doc)  # fine by default
        with pytest.raises(ValueError, match="overlap"):
            validate_chrome_trace(doc, check_overlap=True)

    def test_zero_duration_slices_at_same_ts_pass_overlap_check(self):
        doc = {"traceEvents": _named() + [_x(ts=3, dur=0), _x(ts=3, dur=0)]}
        validate_chrome_trace(doc, check_overlap=True)


class TestRoundTrip:
    def test_tracer_export_survives_json_round_trip(self):
        tracer = Tracer()
        tracer.record("op", "comp", "sm", 0, 5, process="rank0", layer=3)
        tracer.counter("queue", 1.0, process="rank0", depth=2)
        tracer.instant("mark", 2.0, process="rank0", lane="sm")
        tracer.flow_begin("f", 0.0, 1, process="rank0", lane="sm")
        tracer.flow_end("f", 3.0, 1, process="rank0", lane="sm")
        text = json.dumps(tracer.to_chrome_trace())
        counts = validate_chrome_trace(text)
        assert counts == {"M": 3, "X": 1, "C": 1, "i": 1, "s": 1, "f": 1}
        assert json.loads(text) == tracer.to_chrome_trace()


class TestAllocators:
    def test_flow_ids_are_sequential_and_unique(self):
        # Both request builders number their arrows 0, 1, 2, ... and give
        # every id exactly one start and one finish end.
        from repro.fleet import FailureEvent, FleetSpec
        from repro.obs import trace_fleet_report, trace_serve_report
        from repro.serve import ServeSpec, TraceSpec

        trace = TraceSpec(kind="bursty", rps=60, duration_s=1.0, seed=3)
        serve = ServeSpec.grid(traces=trace, systems="comet").run()
        fleet = FleetSpec.grid(
            replicas=2,
            traces=trace,
            failures=(FailureEvent(replica=0, fail_ms=200.0, recover_ms=600.0),),
            systems="comet",
        ).run()
        for tracer in (
            trace_serve_report(serve.reports[0]),
            trace_fleet_report(fleet.reports[0]),
        ):
            starts = [f.flow_id for f in tracer.flows if f.phase == "s"]
            finishes = [f.flow_id for f in tracer.flows if f.phase == "f"]
            assert starts == finishes == list(range(len(starts)))
            assert starts

    def test_slot_allocator_reuses_freed_slots(self):
        alloc = _SlotAllocator()
        assert alloc.allocate(0, 10) == 0
        assert alloc.allocate(1, 5) == 1  # slot 0 busy
        assert alloc.allocate(6, 8) == 1  # slot 1 freed at 5
        assert alloc.allocate(7, 9) == 2  # both busy

    def test_slot_allocator_prefers_lowest_free_slot(self):
        alloc = _SlotAllocator()
        alloc.allocate(0, 2)   # slot 0
        alloc.allocate(0, 10)  # slot 1
        assert alloc.allocate(3, 5) == 0


class TestFleetLaneCollisions:
    def test_merged_fleet_trace_has_no_lane_collisions(self):
        from repro.fleet import FailureEvent, FleetSpec
        from repro.obs import trace_fleet_report
        from repro.serve import TraceSpec

        spec = FleetSpec.grid(
            replicas=2,
            traces=TraceSpec(kind="bursty", rps=60, duration_s=1.0, seed=3),
            failures=(FailureEvent(replica=0, fail_ms=200.0, recover_ms=600.0),),
            systems="comet",
        )
        report = spec.run().reports[0]
        tracer = trace_fleet_report(report)
        counts = validate_chrome_trace(
            tracer.to_chrome_trace(), check_overlap=True
        )
        assert counts["X"] > 0 and counts["s"] == counts["f"]

    def test_serve_trace_sub_lanes_never_overlap(self):
        from repro.obs import trace_serve_report
        from repro.serve import ServeSpec, TraceSpec

        spec = ServeSpec.grid(
            traces=TraceSpec(kind="poisson", rps=80, duration_s=1.0, seed=1),
            systems="comet",
        )
        report = spec.run().reports[0]
        tracer = trace_serve_report(report)
        counts = validate_chrome_trace(
            tracer.to_chrome_trace(), check_overlap=True
        )
        # one flow arrow per served request, fully paired
        assert counts["s"] == counts["f"] == len(report.records)
