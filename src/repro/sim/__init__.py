"""Discrete-event simulation engine.

A small, dependency-free process-based DES kernel in the style of SimPy,
used as the execution substrate for every simulated GPU kernel, thread
block, and communication flow in this repository.

Public API:

* :class:`Environment` — event loop with a virtual clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — the event algebra.
* :class:`AllOf` / :class:`AnyOf` — condition events.
* :class:`Interrupt` — exception injected into interrupted processes.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.trace import (
    CounterSample,
    FlowEvent,
    InstantEvent,
    TraceEvent,
    Tracer,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CounterSample",
    "Environment",
    "Event",
    "FlowEvent",
    "InstantEvent",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
