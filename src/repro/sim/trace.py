"""Timeline tracing for simulated kernels, graphs, serving, and fleets.

Every simulated activity (a GEMM tile, a token transfer, a collective, a
request span) can record a :class:`TraceEvent`; the :class:`Tracer`
aggregates them, computes per-lane utilisation, and exports Chrome
``chrome://tracing`` / Perfetto JSON so simulated timelines can be
inspected visually.

Beyond the original complete-span (``ph:"X"``) events, the tracer
supports the other Chrome Trace Event Format phases the observability
layer (:mod:`repro.obs`) needs:

* **counter tracks** (``ph:"C"``) via :meth:`Tracer.counter` — stepped
  series like queue depth or batch-token occupancy;
* **instant events** (``ph:"i"``) via :meth:`Tracer.instant` — point
  markers like a replica failure or a scale-up decision;
* **flow events** (``ph:"s"`` / ``ph:"f"``) via
  :meth:`Tracer.flow_begin` / :meth:`Tracer.flow_end` — arrows between
  spans, e.g. a router dispatch landing on a replica;
* **per-process grouping** — every record accepts a ``process`` name;
  distinct processes export as distinct pids (named via
  ``process_name`` metadata), so a fleet renders one process per
  replica with its own thread lanes.

The default process is the empty string (pid 0, no ``process_name``
metadata), which keeps single-process kernel traces byte-compatible
with the pre-observability format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "CounterSample",
    "FlowEvent",
    "InstantEvent",
    "TraceEvent",
    "Tracer",
]


@dataclass(frozen=True)
class TraceEvent:
    """One closed interval of activity on a named lane.

    Attributes:
        name: human-readable activity label (e.g. ``"tile e0 (0,3)"``).
        category: activity class used for aggregation (``"comp"``,
            ``"comm"``, ``"host"``, ...).
        lane: execution lane, e.g. ``"rank0/sm"`` or ``"rank0/comm_block3"``.
        start: start time (µs).
        end: end time (µs).
        args: extra metadata carried into the Chrome trace.
        process: process group; ``""`` is the default process (pid 0).
    """

    name: str
    category: str
    lane: str
    start: float
    end: float
    args: dict = field(default_factory=dict)
    process: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"trace event ends before it starts: {self}")


@dataclass(frozen=True)
class CounterSample:
    """One sample of a counter track (Chrome ``ph:"C"``).

    ``values`` maps series name to numeric value; Chrome stacks the
    series of one track.  Counters attach to a process, not a lane.
    """

    track: str
    t: float
    values: dict
    process: str = ""


@dataclass(frozen=True)
class InstantEvent:
    """A point-in-time marker (Chrome ``ph:"i"``).

    ``scope`` is the Chrome instant scope: ``"t"`` (thread), ``"p"``
    (process), or ``"g"`` (global).
    """

    name: str
    category: str
    lane: str
    t: float
    scope: str = "t"
    args: dict = field(default_factory=dict)
    process: str = ""

    def __post_init__(self) -> None:
        if self.scope not in ("t", "p", "g"):
            raise ValueError(f"instant scope must be t/p/g, got {self.scope!r}")


@dataclass(frozen=True)
class FlowEvent:
    """One end of a flow arrow (Chrome ``ph:"s"`` start / ``ph:"f"`` finish).

    Both ends of an arrow share ``flow_id``; the finish end binds to the
    enclosing slice (``bp:"e"``) so Perfetto attaches the arrowhead.
    """

    name: str
    category: str
    lane: str
    t: float
    flow_id: int
    phase: str  # "s" | "f"
    args: dict = field(default_factory=dict)
    process: str = ""

    def __post_init__(self) -> None:
        if self.phase not in ("s", "f"):
            raise ValueError(f"flow phase must be 's' or 'f', got {self.phase!r}")


class Tracer:
    """Collects trace records and derives timeline statistics."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.counters: list[CounterSample] = []
        self.instants: list[InstantEvent] = []
        self.flows: list[FlowEvent] = []

    def record(
        self,
        name: str,
        category: str,
        lane: str,
        start: float,
        end: float,
        *,
        process: str = "",
        **args,
    ) -> None:
        """Append one interval to the trace."""
        self.events.append(TraceEvent(name, category, lane, start, end, args, process))

    def counter(
        self, track: str, t: float, *, process: str = "", **values
    ) -> None:
        """Append one counter sample."""
        self.counters.append(CounterSample(track, t, values, process))

    def instant(
        self,
        name: str,
        t: float,
        *,
        category: str = "event",
        lane: str = "events",
        scope: str = "t",
        process: str = "",
        **args,
    ) -> None:
        """Append one instant marker."""
        self.instants.append(
            InstantEvent(name, category, lane, t, scope, args, process)
        )

    def flow_begin(
        self,
        name: str,
        t: float,
        flow_id: int,
        *,
        category: str = "flow",
        lane: str = "events",
        process: str = "",
        **args,
    ) -> None:
        """Append the start end of a flow arrow."""
        self.flows.append(
            FlowEvent(name, category, lane, t, flow_id, "s", args, process)
        )

    def flow_end(
        self,
        name: str,
        t: float,
        flow_id: int,
        *,
        category: str = "flow",
        lane: str = "events",
        process: str = "",
        **args,
    ) -> None:
        """Append the finish end of a flow arrow."""
        self.flows.append(
            FlowEvent(name, category, lane, t, flow_id, "f", args, process)
        )

    def lanes(self) -> list[str]:
        """Sorted list of distinct lanes observed (span events only)."""
        return sorted({e.lane for e in self.events})

    def processes(self) -> list[str]:
        """Distinct processes, default process first, others sorted."""
        named = {
            r.process
            for r in (*self.events, *self.counters, *self.instants, *self.flows)
            if r.process
        }
        default = any(
            not r.process
            for r in (*self.events, *self.counters, *self.instants, *self.flows)
        )
        return ([""] if default else []) + sorted(named)

    def busy_time(
        self,
        lane: Optional[str] = None,
        category: Optional[str] = None,
    ) -> float:
        """Total *union* busy time of matching events (overlaps merged).

        Events on the same lane are merged before summing so concurrent
        records do not double count; across different lanes, busy time adds
        (two busy lanes = 2x lane-time), which matches how GPU utilisation
        per-SM is accounted.
        """
        by_lane: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for e in self.events:
            if lane is not None and e.lane != lane:
                continue
            if category is not None and e.category != category:
                continue
            by_lane.setdefault((e.process, e.lane), []).append((e.start, e.end))
        total = 0.0
        for intervals in by_lane.values():
            total += _union_length(intervals)
        return total

    def category_breakdown(self) -> dict[str, float]:
        """Union busy time per category (summed over lanes)."""
        categories = sorted({e.category for e in self.events})
        return {c: self.busy_time(category=c) for c in categories}

    # -- Chrome export ---------------------------------------------------------
    def _pid_map(self) -> dict[str, int]:
        return {process: pid for pid, process in enumerate(self.processes())}

    def _tid_map(self) -> dict[tuple[str, str], int]:
        """(process, lane) -> tid, lanes numbered per process."""
        lanes_by_process: dict[str, set[str]] = {}
        for r in (*self.events, *self.instants, *self.flows):
            lanes_by_process.setdefault(r.process, set()).add(r.lane)
        tid_map: dict[tuple[str, str], int] = {}
        for process, lanes in lanes_by_process.items():
            for tid, lane in enumerate(sorted(lanes)):
                tid_map[(process, lane)] = tid
        return tid_map

    def to_chrome_trace(self) -> dict:
        """Render as a Chrome Trace Event Format object.

        Spans export as ``X`` phases, counters as ``C``, instants as
        ``i``, and flow arrows as ``s``/``f`` pairs.  Each distinct
        process exports under its own pid (named via ``process_name``
        metadata); the default process is pid 0 and stays unnamed, so
        single-process traces keep the original ``M``+``X`` shape.
        """
        pid_map = self._pid_map()
        tid_map = self._tid_map()
        trace_events: list[dict] = []
        for process, pid in pid_map.items():
            if process:
                trace_events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": process},
                    }
                )
                trace_events.append(
                    {
                        "name": "process_sort_index",
                        "ph": "M",
                        "pid": pid,
                        "tid": 0,
                        "args": {"sort_index": pid},
                    }
                )
        for (process, lane), tid in sorted(tid_map.items()):
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid_map[process],
                    "tid": tid,
                    "args": {"name": lane},
                }
            )
        for e in self.events:
            trace_events.append(
                {
                    "name": e.name,
                    "cat": e.category,
                    "ph": "X",
                    "pid": pid_map[e.process],
                    "tid": tid_map[(e.process, e.lane)],
                    "ts": e.start,
                    "dur": e.duration,
                    "args": dict(e.args),
                }
            )
        for c in self.counters:
            trace_events.append(
                {
                    "name": c.track,
                    "ph": "C",
                    "pid": pid_map[c.process],
                    "tid": 0,
                    "ts": c.t,
                    "args": dict(c.values),
                }
            )
        for i in self.instants:
            trace_events.append(
                {
                    "name": i.name,
                    "cat": i.category,
                    "ph": "i",
                    "pid": pid_map[i.process],
                    "tid": tid_map[(i.process, i.lane)],
                    "ts": i.t,
                    "s": i.scope,
                    "args": dict(i.args),
                }
            )
        for f in self.flows:
            doc = {
                "name": f.name,
                "cat": f.category,
                "ph": f.phase,
                "pid": pid_map[f.process],
                "tid": tid_map[(f.process, f.lane)],
                "ts": f.t,
                "id": f.flow_id,
                "args": dict(f.args),
            }
            if f.phase == "f":
                doc["bp"] = "e"
            trace_events.append(doc)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    ordered = sorted(intervals)
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in ordered:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total
