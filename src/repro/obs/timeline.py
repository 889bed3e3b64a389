"""Post-hoc trace builders: simulation artifacts → Chrome timelines.

Every builder here is *derivational*: it reads artifacts the simulators
already compute — a :class:`~repro.graph.scheduler.GraphSchedule`'s
per-node start/finish tuples, a :class:`~repro.serve.metrics.ServeReport`'s
request records and scheduler timeline, a
:class:`~repro.fleet.metrics.FleetReport`'s records, dispatch log,
events, and per-replica timelines — and renders them into a
:class:`~repro.sim.trace.Tracer`.  Nothing here runs inside a simulation
hot loop, which is how the zero-perturbation guarantee holds by
construction: building (or not building) a trace cannot change a single
simulated float.

Conventions:

* graph traces are in native microseconds; serve/fleet traces convert
  simulated milliseconds to Chrome's microsecond ``ts`` (×1000);
* each rank (graph) or replica (fleet) is one Chrome *process*;
* overlapping request spans are laid out on ``req<slot>`` sub-lanes by a
  deterministic first-free slot allocator, so merged fleet traces never
  stack two requests on one lane (the schema validator's opt-in overlap
  check enforces this);
* every flow arrow gets a unique sequential id with exactly one start
  and one finish end.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.sim.trace import Tracer

__all__ = [
    "trace_fleet_report",
    "trace_graph_schedule",
    "trace_serve_report",
]


class _SlotAllocator:
    """Deterministic first-free sub-lane assignment for request spans.

    ``allocate(start, end)`` returns the lowest slot index whose prior
    occupant finished at or before ``start``.  Intervals must be
    requested in non-decreasing ``start`` order (callers sort by
    ``(start, rid)``), which keeps the layout — and therefore the trace
    bytes — independent of dict/iteration order.
    """

    def __init__(self) -> None:
        self._free: list[int] = []  # heap of reusable slot ids
        self._busy: list[tuple[float, int]] = []  # heap of (end, slot)
        self._next = 0

    def allocate(self, start: float, end: float) -> int:
        while self._busy and self._busy[0][0] <= start:
            _, slot = heapq.heappop(self._busy)
            heapq.heappush(self._free, slot)
        if self._free:
            slot = heapq.heappop(self._free)
        else:
            slot = self._next
            self._next += 1
        heapq.heappush(self._busy, (end, slot))
        return slot


def _req_lane(slot: int) -> str:
    return f"req{slot:02d}"


# -- graphs --------------------------------------------------------------------
def trace_graph_schedule(schedule: Any) -> Tracer:
    """Render a :class:`GraphSchedule` — one process per rank, one lane
    per stream kind (``compute``/``comm``), critical-path nodes flagged
    in ``args`` and marked with an instant at their start."""
    tracer = Tracer()
    critical = {node.id for node in schedule.critical_path()}
    multi_rank = len({n.stream.rank for n in schedule.graph.nodes}) > 1
    for node, start, finish in zip(
        schedule.graph.nodes, schedule.start_us, schedule.finish_us
    ):
        process = f"rank{node.stream.rank}" if multi_rank else ""
        suffix = f" L{node.layer}" if node.layer >= 0 else ""
        tracer.record(
            f"{node.kind.value}{suffix}",
            node.kind.value,
            node.stream.kind,
            start,
            finish,
            process=process,
            node=node.id,
            layer=node.layer,
            tag=node.tag,
            critical=node.id in critical,
        )
        if node.id in critical:
            tracer.instant(
                "critical",
                start,
                category="critical_path",
                lane=node.stream.kind,
                process=process,
                node=node.id,
            )
    return tracer


# -- serving -------------------------------------------------------------------
def trace_serve_report(report: Any) -> Tracer:
    """Render one :class:`ServeReport`: request-lifecycle spans
    (queue+prefill → decode) on collision-free ``req<slot>`` sub-lanes,
    flow arrows from the arrival lane into each request span, and
    counter tracks for queue depth, batch-token occupancy, and running
    sequences."""
    tracer = Tracer()
    slots = _SlotAllocator()
    ordered = sorted(report.records, key=lambda r: (r.arrival_ms, r.rid))
    for flow, record in enumerate(ordered):
        arrival = record.arrival_ms * 1000.0
        first = record.first_token_ms * 1000.0
        done = record.completion_ms * 1000.0
        lane = _req_lane(slots.allocate(arrival, done))
        tracer.record(
            f"arrive r{record.rid}",
            "arrival",
            "arrivals",
            arrival,
            arrival,
            rid=record.rid,
        )
        tracer.flow_begin(f"r{record.rid}", arrival, flow, lane="arrivals")
        tracer.flow_end(f"r{record.rid}", arrival, flow, lane=lane)
        tracer.record(
            f"queue+prefill r{record.rid}",
            "queue",
            lane,
            arrival,
            first,
            rid=record.rid,
            prompt_tokens=record.prompt_tokens,
        )
        tracer.record(
            f"decode r{record.rid}",
            "decode",
            lane,
            first,
            done,
            rid=record.rid,
            output_tokens=record.output_tokens,
        )
    budget = getattr(report, "max_batch_tokens", None)
    for point in report.timeline:
        t = point.t_ms * 1000.0
        tracer.counter("queue depth", t, waiting=point.queue_depth)
        values = {"tokens": point.batch_tokens}
        if budget is not None:
            values["budget"] = budget
        tracer.counter("batch tokens", t, **values)
        tracer.counter("running", t, sequences=point.running)
    return tracer


# -- fleets --------------------------------------------------------------------
def trace_fleet_report(report: Any) -> Tracer:
    """Render one :class:`FleetReport`: one process per replica, router
    dispatch flows, per-replica counter tracks, and instant markers for
    every autoscaler/failure/fault/resilience event.

    Each served request's life is segmented by its dispatch log — a span
    per (dispatch, replica) hop, so disaggregated prefill→decode
    handoffs and post-failure re-dispatches render as separate spans
    connected by router arrows.  Dispatches of requests that never
    completed are skipped (their spans have no right edge), so every
    flow arrow pairs up.

    Fault-plan and resilience events render too: degrade/restore and
    probation/readmit/evict markers land on their replica's process,
    front-door events (``retry``/``timeout``/``shed`` carry
    ``replica == -1``) land on the router process, and a cumulative
    ``resilience`` counter track on the router plots the running
    retry/timeout/shed totals over the trace.
    """
    tracer = Tracer()
    records = {r.rid: r for r in report.records}
    by_rid: dict[int, list[Any]] = {}
    for index, dispatch in enumerate(report.dispatches):
        by_rid.setdefault(dispatch.rid, []).append((dispatch.t_ms, index, dispatch))

    # (start_ms, rid, hop, dispatch, end_ms) for every span, sorted so the
    # per-replica slot allocators see non-decreasing starts.
    segments: list[tuple[float, int, int, Any, float]] = []
    for rid, entries in by_rid.items():
        record = records.get(rid)
        if record is None:
            continue
        entries.sort()
        for hop, (t_ms, _, dispatch) in enumerate(entries):
            end_ms = (
                entries[hop + 1][0]
                if hop + 1 < len(entries)
                else record.completion_ms
            )
            segments.append((t_ms, rid, hop, dispatch, end_ms))
    segments.sort(key=lambda seg: (seg[0], seg[1], seg[2]))

    slots: dict[int, _SlotAllocator] = {}
    for flow, (start_ms, rid, hop, dispatch, end_ms) in enumerate(segments):
        start = start_ms * 1000.0
        end = end_ms * 1000.0
        replica = f"replica{dispatch.replica}"
        allocator = slots.setdefault(dispatch.replica, _SlotAllocator())
        lane = _req_lane(allocator.allocate(start, end))
        tracer.record(
            f"r{rid}→{dispatch.replica}",
            "dispatch",
            dispatch.pool,
            start,
            start,
            process="router",
            rid=rid,
            replica=dispatch.replica,
        )
        tracer.flow_begin(
            f"r{rid}",
            start,
            flow,
            lane=dispatch.pool,
            process="router",
            rid=rid,
        )
        tracer.flow_end(f"r{rid}", start, flow, lane=lane, process=replica, rid=rid)
        tracer.record(
            f"r{rid} ({dispatch.pool})",
            "request",
            lane,
            start,
            end,
            process=replica,
            rid=rid,
            hop=hop,
            pool=dispatch.pool,
        )

    for index, timeline in enumerate(report.replica_timelines):
        process = f"replica{index}"
        for point in timeline:
            t = point.t_ms * 1000.0
            tracer.counter(
                "queue depth", t, process=process, waiting=point.queue_depth
            )
            tracer.counter(
                "batch tokens", t, process=process, tokens=point.batch_tokens
            )
            tracer.counter(
                "running", t, process=process, sequences=point.running
            )

    frontdoor_totals = {"retry": 0, "timeout": 0, "shed": 0}
    for event in report.events:
        process = (
            "router" if event.replica < 0 else f"replica{event.replica}"
        )
        tracer.instant(
            event.kind,
            event.t_ms * 1000.0,
            category="fleet_event",
            lane="events",
            scope="p",
            process=process,
            replica=event.replica,
        )
        if event.kind in frontdoor_totals:
            frontdoor_totals[event.kind] += 1
            tracer.counter(
                "resilience",
                event.t_ms * 1000.0,
                process="router",
                **frontdoor_totals,
            )
    return tracer
