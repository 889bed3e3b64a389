"""Discrete-event simulation engine.

A small, dependency-free process-based DES kernel in the style of SimPy.
The reference oracles in :mod:`repro.oracles` run on it (the layer0
kernel, schedule graphs, the serving engine and the fleet
co-simulation as explicit processes); the simulators themselves replay
its event order in explicit loops and never import it.

Public API:

* :class:`Environment` — event loop with a virtual clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — the event algebra.
* :class:`AllOf` — waits for every event of a set.
* :class:`Interrupt` — exception injected into interrupted processes.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "AllOf": "repro.sim.engine",
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
