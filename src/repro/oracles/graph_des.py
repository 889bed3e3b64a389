"""Discrete-event reference executor for :class:`ScheduleGraph`.

Re-derives the schedule of :func:`repro.graph.scheduler.list_schedule`
with explicit simulation processes on the :mod:`repro.sim` engine — one
process per node waiting on its dependency events and then acquiring its
stream.  The two implementations are developed independently and the
test suite asserts they agree *exactly* (same floats, not just
approximately), which guards the analytic scheduler against silent
modelling drift — the same gold-standard-vs-optimised pattern as
:mod:`repro.oracles.layer0_des` for the fused kernel.

Scheduling semantics (the analytic scheduler's *pass* structure, which
both implementations must honour):

* work at one timestamp proceeds in passes: first every completion at
  the instant is drained — and its dependency consequences registered —
  then each free stream dispatches the lowest-id node waiting on it;
* zero-duration nodes dispatched in one pass complete within the same
  instant and are drained in the *next* pass, so a node readied by such
  a cascade competes only with dispatches of later passes — never with
  the pass that released it.

The executor realises those passes with a single *dispatch-wave*
coordinator: whenever a stream is poked (a node arrives or a stream
frees), the coordinator parks on zero-delay timeouts until the engine
has no other event left at the current instant (``Environment.peek``),
i.e. the completion cascade of the pass has fully settled, and only
then grants every free stream its lowest-id waiter.  Grantees that take
zero time re-poke the coordinator, forming the next pass at the same
instant.  A fixed settle depth (the previous implementation deferred
each grant by exactly two zero-delay rounds) is *not* equivalent: two
concurrent cascades of different depths can leak a later pass's
readiness into an earlier pass's grant and steal the stream from the
node the pass semantics entitle to it — the multi-rank property suite
caught exactly that divergence on random zero-duration chains.
"""

from __future__ import annotations

import heapq

from repro.graph.ir import ScheduleGraph
from repro.sim import Environment, Event

__all__ = ["des_schedule"]


class _Stream:
    """One serial engine: a busy flag plus an id-ordered waiter heap."""

    __slots__ = ("busy", "waiting")

    def __init__(self) -> None:
        self.busy = False
        self.waiting: list[tuple[int, Event]] = []


class _WaveDispatcher:
    """Grants streams in synchronized dispatch waves (one per pass)."""

    def __init__(self, env: Environment):
        self.env = env
        self.streams: list[_Stream] = []
        self._wave_scheduled = False

    def new_stream(self) -> _Stream:
        stream = _Stream()
        self.streams.append(stream)
        return stream

    def acquire(self, stream: _Stream, priority: int) -> Event:
        event = Event(self.env)
        heapq.heappush(stream.waiting, (priority, event))
        self._poke()
        return event

    def release(self, stream: _Stream) -> None:
        stream.busy = False
        self._poke()

    def _poke(self) -> None:
        if not self._wave_scheduled:
            self._wave_scheduled = True
            self.env.process(self._wave())

    def _wave(self):
        # Park behind every event queued at this instant until the
        # completion cascade of the current pass has fully settled: each
        # zero-delay timeout re-queues this process after all presently
        # scheduled same-time events, and the wave fires only once it is
        # the last thing left at the instant.
        while True:
            yield self.env.timeout(0)
            if self.env.peek() > self.env.now:
                break
        # Re-arm before granting: everything the grantees trigger at
        # this instant belongs to the next pass's wave.
        self._wave_scheduled = False
        for stream in self.streams:
            if not stream.busy and stream.waiting:
                _, event = heapq.heappop(stream.waiting)
                stream.busy = True
                event.succeed()


def des_schedule(graph: ScheduleGraph) -> tuple[tuple[float, ...], float]:
    """Execute ``graph`` by simulation; returns (finish times, makespan)."""
    n = len(graph)
    if n == 0:
        return (), 0.0

    env = Environment()
    done = [env.event() for _ in range(n)]
    finish = [0.0] * n
    dispatcher = _WaveDispatcher(env)
    streams = {stream: dispatcher.new_stream() for stream in graph.streams()}

    def node_proc(node_id: int):
        preds = graph.preds[node_id]
        if preds:
            yield env.all_of([done[p] for p in preds])
        node = graph.nodes[node_id]
        stream = streams[node.stream]
        yield dispatcher.acquire(stream, node_id)
        if node.duration_us:
            yield env.timeout(node.duration_us)
        finish[node_id] = env.now
        done[node_id].succeed()
        dispatcher.release(stream)

    for node_id in range(n):
        env.process(node_proc(node_id))
    env.run()

    completed = sum(1 for event in done if event.triggered)
    if completed != n:
        raise ValueError(
            f"schedule graph has a dependency cycle: executed {completed} "
            f"of {n} nodes"
        )
    return tuple(finish), max(finish, default=0.0)
