"""Columnar request records: tables, row views and the vectorised ReportCore.

The serving and fleet engines keep completions, step samples and routing
decisions as :class:`~repro.serve.metrics.Table` columns.  These tests
check that a run and its exports build no row objects, that the
vectorised metrics equal the per-record definitions they replaced (kept
here as the reference), and that rows survive the trip through columns.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.migration import OutcomeRecord
from repro.fleet import FleetSpec
from repro.fleet.metrics import DispatchRecord, FleetEvent, FleetReport, ReplicaStats
from repro.serve import ServeSpec, TraceSpec
from repro.serve.metrics import (
    PERCENTILES,
    RequestRecord,
    ServeReport,
    Table,
    TimelinePoint,
)

ROWS = (RequestRecord, TimelinePoint, DispatchRecord)


# -- the run-and-export path builds no row objects ------------------------------

@pytest.fixture
def built(monkeypatch):
    """Counts the row objects built, per row class."""
    counts = Counter()
    for cls in ROWS:
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_serve_run_and_export_build_no_row_objects(built):
    results = ServeSpec.grid(
        traces=TraceSpec(kind="poisson", rps=40, duration_s=3, seed=1),
        systems=("comet", "tutel"),
    ).run()
    results.to_json()
    results.to_csv()
    assert not built
    report = results.reports[0]
    assert len(list(report.records)) == len(report.records) > 0
    list(report.records)
    # Rows are built on the first read and memoised.
    assert built["RequestRecord"] == len(report.records)


@pytest.mark.parametrize("router", ["round_robin", "power_of_two"])
def test_fleet_run_and_export_build_no_row_objects(built, router):
    results = FleetSpec.grid(
        replicas=3,
        routers=router,
        traces=TraceSpec(kind="poisson", rps=60, duration_s=2, seed=5),
        systems="comet",
    ).run()
    results.to_json()
    results.to_csv()
    assert not built
    report = results.reports[0]
    assert list(report.dispatches) and list(report.replica_timelines[0])
    assert built["DispatchRecord"] == len(report.dispatches)


# -- the per-record definitions, kept as the reference ---------------------------

def _loop_percentiles(values):
    arr = np.asarray(values, dtype=np.float64)
    return {f"p{q}": float(np.percentile(arr, q, method="linear")) for q in PERCENTILES}


def _loop_core(records, slo_ttft_ms, slo_tpot_ms, horizon_ms):
    """The latency and SLO metrics, one walk over the records per metric."""
    if records:
        ttft = _loop_percentiles([r.ttft_ms for r in records])
        tpot = _loop_percentiles([r.tpot_ms for r in records])
        e2e = _loop_percentiles([r.e2e_ms for r in records])
    else:
        ttft = tpot = e2e = {f"p{q}": None for q in PERCENTILES}
    span = 0.0
    if records:
        start = min(r.arrival_ms for r in records)
        span = max(r.completion_ms for r in records) - start
    good = sum(1 for r in records if r.meets_slo(slo_ttft_ms, slo_tpot_ms))
    # A rate over a window too short to last a nonzero number of seconds
    # is 0, like one over no window.
    horizon_s, span_s = horizon_ms / 1000.0, span / 1000.0
    doc = {
        "requests": len(records),
        "slo_attainment": good / len(records) if records else 0.0,
        "goodput_rps": good / horizon_s if horizon_s > 0 else 0.0,
        "output_tokens_per_s": (
            sum(r.output_tokens for r in records) / span_s if span_s > 0 else 0.0
        ),
    }
    for name, values in (("ttft", ttft), ("tpot", tpot), ("e2e", e2e)):
        doc.update((f"{name}_{p}_ms", value) for p, value in values.items())
    return doc


def _loop_serve_summary(case):
    timeline, budget = case["timeline"], case["max_batch_tokens"]
    doc = _loop_core(case["records"], case["slo_ttft_ms"], case["slo_tpot_ms"], case["horizon_ms"])
    del doc["e2e_p95_ms"]
    doc.update(
        system="S",
        scenario="s",
        mean_queue_depth=(
            sum(p.queue_depth for p in timeline) / len(timeline) if timeline else 0.0
        ),
        peak_queue_depth=max((p.queue_depth for p in timeline), default=0),
        mean_batch_occupancy=(
            sum(p.batch_tokens for p in timeline) / (len(timeline) * budget)
            if timeline and budget > 0
            else 0.0
        ),
    )
    return doc


def _loop_fleet_summary(case):
    records, outcomes, stats = case["records"], case["outcomes"], case["stats"]
    kinds = Counter(e.kind for e in case["events"])
    doc = _loop_core(records, case["slo_ttft_ms"], case["slo_tpot_ms"], case["horizon_ms"])
    del doc["e2e_p95_ms"], doc["tpot_p95_ms"]
    ends = [r.completion_ms for r in records] + [o.t_ms for o in outcomes]
    window = max(case["horizon_ms"], max(ends, default=0.0))
    gpus = sum(s.gpus * s.active_ms for s in stats) / window if window > 0 else 0.0
    active = sum(s.active_ms for s in stats)
    timed_out = sum(1 for o in outcomes if o.kind == "timeout")
    shed = sum(1 for o in outcomes if o.kind == "shed")
    doc.update(
        system="S",
        scenario="s",
        router="power_of_two",
        replicas=len(stats),
        offered=case["offered"],
        unserved=case["offered"] - len(records) - timed_out - shed,
        goodput_per_gpu=doc["goodput_rps"] / gpus if gpus > 0 else 0.0,
        mean_utilization=sum(s.busy_ms for s in stats) / active if active > 0 else 0.0,
        mean_active_gpus=gpus,
        scale_ups=kinds["up"],
        scale_downs=kinds["down"],
        failures=kinds["fail"],
        recoveries=kinds["recover"],
    )
    return doc


def _reports(case):
    records = Table.of(RequestRecord, case["records"])
    serve = ServeReport(
        system="S",
        scenario_label="s",
        records=records,
        timeline=Table.of(TimelinePoint, case["timeline"]),
        slo_ttft_ms=case["slo_ttft_ms"],
        slo_tpot_ms=case["slo_tpot_ms"],
        horizon_ms=case["horizon_ms"],
        max_batch_tokens=case["max_batch_tokens"],
    )
    fleet = FleetReport(
        system="S",
        scenario_label="s",
        router="power_of_two",
        num_replicas=len(case["stats"]),
        records=records,
        replica_stats=case["stats"],
        events=case["events"],
        slo_ttft_ms=case["slo_ttft_ms"],
        slo_tpot_ms=case["slo_tpot_ms"],
        horizon_ms=case["horizon_ms"],
        offered=case["offered"],
        dispatches=Table.of(DispatchRecord, ()),
        replica_timelines=(),
        outcomes=case["outcomes"],
    )
    return serve, fleet


def _assert_same(summary, expected):
    assert summary.keys() == expected.keys()
    for key, value in summary.items():
        assert value == expected[key] and type(value) is type(expected[key]), key


def _check(case):
    serve, fleet = _reports(case)
    expected = _loop_fleet_summary(case)
    _assert_same(serve.summary(), _loop_serve_summary(case))
    _assert_same(fleet.summary(), expected)
    # The properties take their own path to the same numbers.
    assert serve.good_requests == sum(
        1 for r in case["records"] if r.meets_slo(case["slo_ttft_ms"], case["slo_tpot_ms"])
    )
    for name in ("slo_attainment", "goodput_rps", "goodput_per_gpu", "output_tokens_per_s"):
        assert getattr(fleet, name) == expected[name], name


def _case(records, timeline=(), slo_ttft_ms=100.0, slo_tpot_ms=10.0, horizon_ms=1000.0,
          max_batch_tokens=1024, stats=(), events=(), outcomes=(), extra=0):
    return dict(
        records=list(records),
        timeline=list(timeline),
        slo_ttft_ms=slo_ttft_ms,
        slo_tpot_ms=slo_tpot_ms,
        horizon_ms=horizon_ms,
        max_batch_tokens=max_batch_tokens,
        stats=tuple(stats) or (ReplicaStats(0, "unified", 0, 0, 0.0, 0.0, 8),),
        events=tuple(events),
        outcomes=tuple(outcomes),
        offered=len(records) + len(outcomes) + extra,
    )


def _rec(rid, arrival, first, done, output=5, prompt=10):
    return RequestRecord(rid, arrival, first, done, prompt, output)


FIXED = {
    "empty": _case([]),
    "one record": _case([_rec(7, 1.0, 3.0, 9.0)], [TimelinePoint(0.0, 2, 30, 1)]),
    "one-token output": _case([_rec(0, 0.0, 5.0, 5.0, output=1), _rec(1, 1.0, 4.0, 8.0)]),
    "at the SLOs": _case(
        [_rec(0, 0.0, 100.0, 140.0), _rec(1, 2.0, 102.0, 142.25), _rec(2, 3.0, 103.5, 143.5)],
        slo_ttft_ms=100.0, slo_tpot_ms=10.0,
    ),
    "equal completions": _case(
        [_rec(0, 0.0, 10.0, 50.0), _rec(1, 5.0, 20.0, 50.0), _rec(2, 7.0, 30.0, 50.0)]
    ),
    "unsorted": _case(
        [_rec(3, 9.0, 40.0, 90.0), _rec(1, 0.0, 30.0, 70.0), _rec(2, 4.0, 8.0, 60.0, output=2)],
        [TimelinePoint(5.0, 3, 200, 2), TimelinePoint(0.0, 0, 10, 1)],
        outcomes=[OutcomeRecord(9, 95.0, "timeout", 2), OutcomeRecord(4, 1.0, "shed")],
        events=[FleetEvent(1.0, -1, "shed"), FleetEvent(2.0, 0, "up")],
        extra=2,
    ),
    "no horizon, no budget": _case(
        [_rec(0, 0.0, 1.0, 2.0)], [TimelinePoint(0.0, 1, 10, 1)],
        horizon_ms=0.0, max_batch_tokens=0,
    ),
    # Each used to raise ZeroDivisionError: the window in seconds is 0.
    "subnormal horizon": _case([], horizon_ms=5e-324),
    "subnormal span": _case([_rec(0, 0.0, 5e-324, 5e-324)]),
}


@pytest.mark.parametrize("name", list(FIXED))
def test_vectorised_summary_equals_per_record_definition_fixed(name):
    _check(FIXED[name])


TIMES = st.floats(0.0, 1e5, allow_nan=False)


@st.composite
def cases(draw):
    rids = draw(st.permutations(range(draw(st.integers(0, 12)))))
    shared_done = draw(TIMES)  # completions that tie
    records = []
    for rid in rids:
        arrival = draw(TIMES)
        first = arrival + draw(st.floats(0.0, 1e3))
        done = draw(st.sampled_from([first, first + draw(st.floats(0.0, 1e3)), shared_done]))
        records.append(_rec(rid, arrival, first, done, draw(st.integers(1, 6)), 10))
    # SLOs that some record meets exactly.
    exact = records and draw(st.booleans())
    slo_ttft = draw(st.sampled_from([r.ttft_ms for r in records])) if exact else draw(TIMES)
    slo_tpot = draw(st.sampled_from([r.tpot_ms for r in records])) if exact else draw(TIMES)
    timeline = [
        TimelinePoint(draw(TIMES), *draw(st.tuples(*[st.integers(0, 5000)] * 3)))
        for _ in range(draw(st.integers(0, 8)))
    ]
    stats = [
        ReplicaStats(i, "unified", 0, 0, draw(TIMES), draw(TIMES), draw(st.integers(1, 16)))
        for i in range(draw(st.integers(1, 3)))
    ]
    outcomes = [
        OutcomeRecord(100 + i, draw(TIMES), draw(st.sampled_from(["timeout", "shed"])))
        for i in range(draw(st.integers(0, 3)))
    ]
    events = [
        FleetEvent(draw(TIMES), 0, draw(st.sampled_from(["up", "down", "fail", "recover"])))
        for _ in range(draw(st.integers(0, 4)))
    ]
    return _case(
        records, timeline, slo_ttft, slo_tpot,
        horizon_ms=draw(st.sampled_from([0.0, 1000.0, draw(TIMES)])),
        max_batch_tokens=draw(st.sampled_from([0, 1, 8192])),
        stats=stats, events=events, outcomes=outcomes, extra=draw(st.integers(0, 3)),
    )


@settings(max_examples=60, deadline=None, database=None)
@given(case=cases())
def test_vectorised_summary_equals_per_record_definition(case):
    _check(case)


# -- rows round-trip through columns ------------------------------------------------

INTS = st.integers(-(2**62), 2**62)
FLOATS = st.floats(allow_nan=False)
FIELDS = {
    RequestRecord: st.tuples(INTS, FLOATS, FLOATS, FLOATS, INTS, INTS),
    TimelinePoint: st.tuples(FLOATS, INTS, INTS, INTS),
    DispatchRecord: st.tuples(INTS, FLOATS, INTS, st.sampled_from(["entry", "decode"])),
}


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.__name__)
def test_rows_round_trip_through_columns(row):
    @settings(max_examples=40, deadline=None, database=None)
    @given(tuples=st.lists(FIELDS[row], max_size=20))
    def round_trip(tuples):
        table = Table.from_tuples(row, tuples)
        objects = [row(*values) for values in tuples]
        assert list(table) == objects and len(table) == len(objects)
        assert all(
            type(getattr(a, name)) is type(getattr(b, name))
            for a, b in zip(table, objects)
            for name in vars(b)
        )
        assert Table.of(row, objects) == table
        assert pickle.loads(pickle.dumps(table)) == table
        if tuples != tuples[::-1]:
            assert Table.from_tuples(row, tuples[::-1]) != table

    round_trip()
