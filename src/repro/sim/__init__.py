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

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "AllOf": "repro.sim.engine",
    "AnyOf": "repro.sim.engine",
    "Environment": "repro.sim.engine",
    "Event": "repro.sim.engine",
    "Interrupt": "repro.sim.engine",
    "Process": "repro.sim.engine",
    "SimulationError": "repro.sim.engine",
    "Timeout": "repro.sim.engine",
    "CounterSample": "repro.sim.trace",
    "FlowEvent": "repro.sim.trace",
    "InstantEvent": "repro.sim.trace",
    "TraceEvent": "repro.sim.trace",
    "Tracer": "repro.sim.trace",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
