"""Core of the discrete-event simulation kernel.

The design follows the classic process-interaction style: simulation
processes are Python generators that ``yield`` events; the environment
advances a virtual clock from one scheduled event to the next and resumes
every process waiting on each triggered event.

Determinism is a hard requirement for this repository (simulated kernel
timelines must be bit-reproducible across runs so benchmark output is
stable), so ties in the event queue are broken by a monotonically
increasing sequence number rather than by object identity.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation API."""


class Interrupt(Exception):
    """Injected into a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event priorities: URGENT events (process resumptions) run before NORMAL
# events scheduled at the same timestamp, mirroring SimPy's semantics.
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event value not yet decided


class Event:
    """A condition that may happen at some point in simulated time.

    An event moves through three states: *pending* (not yet triggered),
    *triggered* (scheduled in the event queue with a value), and
    *processed* (callbacks executed).  Events may succeed with a value or
    fail with an exception; failures propagate into waiting processes.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # Failed events raise inside waiting processes. If nothing waits,
        # the failure must not pass silently: ``defused`` tracks whether
        # any process observed the failure.
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's value (or failure exception), once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Immediate event that starts a freshly created process."""

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """Wraps a generator so it can be run by the environment.

    A process is itself an event: it triggers when the generator returns
    (value = return value) or raises (failure).  Other processes can
    therefore ``yield`` a process to wait for its completion.
    """

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None  # event the process waits on
        Initialize(env, self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise SimulationError("a process is not allowed to interrupt itself")

        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event, URGENT)

        # Stop listening on the previous target: upon resumption the process
        # decides anew what to wait for.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self.env._schedule(self, NORMAL)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._defused = False
                self.env._schedule(self, NORMAL)
                break

            if not isinstance(next_event, Event):
                self.env._active_process = None
                raise SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
            if next_event.env is not self.env:
                self.env._active_process = None
                raise SimulationError("cannot wait on an event from another environment")

            if next_event.callbacks is not None:
                # Event still pending/triggered: register and suspend.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                break
            # Event already processed: consume its value immediately and
            # keep driving the generator without yielding control.
            event = next_event

        self.env._active_process = None


class AllOf(Event):
    """Fires once every constituent event has succeeded, with a dict of
    their values; fails with the first constituent that fails."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0

        for event in self.events:
            if event.env is not self.env:
                raise SimulationError("all events must share one environment")

        if not self.events:
            self.succeed({})
            return

        for event in self.events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({event: event._value for event in self.events})


class Environment:
    """Discrete-event environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling / stepping ----------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _, _, event = heapq.heappop(self._queue)
        self._now = when

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure nobody waited for: surface it instead of losing it.
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        * ``until=None`` — run to exhaustion.
        * ``until=<number>`` — run until the clock reaches that time.
        * ``until=<Event>`` — run until that event is processed and return
          its value (re-raising if it failed).
        """
        if until is None:
            while self._queue:
                self.step()
            return None

        if isinstance(until, Event):
            sentinel: list[Any] = []
            if until.callbacks is None:
                # Already processed.
                if until._ok:
                    return until._value
                raise until._value
            until.callbacks.append(lambda ev: sentinel.append(ev))
            while not sentinel:
                if not self._queue:
                    raise SimulationError("event queue drained before `until` event fired")
                self.step()
            if until._ok:
                return until._value
            until._defused = True
            raise until._value

        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"deadline {deadline} lies in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self._now = deadline
        return None
