"""Faults and resilience: scheduled degradation, costed KV migration,
and detect→drain→recover policies for the fleet simulator.

``repro.faults`` turns :mod:`repro.fleet` from a failure *injector*
into a resilience *testbed*:

* :class:`FaultPlan` schedules hard crashes (:class:`FailureEvent`),
  soft time-varying degradation (:class:`DegradeEvent` — a replica's
  effective :class:`~repro.graph.straggler.StragglerSpec` becomes a
  step function over the trace, priced through
  :class:`TimeVaryingStepCost`), and migration-link brownouts
  (:class:`BrownoutEvent`);
* :class:`MigrationSpec` prices prefill→decode KV handoffs and
  post-crash context re-dispatch over the inter-replica link,
  replacing the free-handoff lower bound;
* :class:`ResilienceSpec` runs the front-door remediation loop:
  windowed health detection with router probation/eviction, request
  deadlines with bounded seeded retries, and SLO-aware shedding
  (:class:`OutcomeRecord` is the timed-out/shed terminal state).

All of it sweeps through :meth:`repro.fleet.FleetSpec.grid`
(``faults=... , resilience=..., migrations=...``), stays deterministic
under a seed, and degenerates bit-identically to PR-7 behaviour when
nothing is configured.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "MigrationSpec": "repro.faults.migration",
    "OutcomeRecord": "repro.faults.migration",
    "BrownoutEvent": "repro.faults.plan",
    "DegradeEvent": "repro.faults.plan",
    "FailureEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "TimeVaryingStepCost": "repro.faults.plan",
    "RESILIENCE_EVENT_KINDS": "repro.faults.resilience",
    "ResilienceSpec": "repro.faults.resilience",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
