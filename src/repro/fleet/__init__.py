"""Multi-replica cluster serving: routing, autoscaling, failures, pools.

``repro.fleet`` layers a cluster of serving replicas on top of
:mod:`repro.serve`: each replica is a
:class:`~repro.serve.engine_adapter.StepCostModel`-backed
continuous-batching engine, a front-door router
(:data:`~repro.fleet.router.ROUTER_REGISTRY`) spreads the trace across
them, and optional autoscaling, failure injection, and prefill/decode
disaggregation turn the single-engine simulator into a cluster one.
:mod:`repro.faults` plugs in here too: :class:`FaultPlan` schedules
crashes and time-varying degradation, :class:`MigrationSpec` prices KV
handoffs over the inter-replica link, and :class:`ResilienceSpec` runs
the detect→drain→recover loop — all swept through
:meth:`FleetSpec.grid` (``faults=``/``resilience=``/``migrations=``).
:class:`FleetSpec` sweeps all of it declaratively; ``repro fleet`` is
the CLI entry point.
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
    "ResilienceSpec": "repro.faults.resilience",
    "DispatchRecord": "repro.fleet.metrics",
    "FleetEvent": "repro.fleet.metrics",
    "FleetReport": "repro.fleet.metrics",
    "FleetResultSet": "repro.fleet.metrics",
    "FleetSkip": "repro.fleet.metrics",
    "ReplicaStats": "repro.fleet.metrics",
    "LeastQueue": "repro.fleet.router",
    "make_router": "repro.fleet.router",
    "PowerOfTwo": "repro.fleet.router",
    "RoundRobin": "repro.fleet.router",
    "Router": "repro.fleet.router",
    "ROUTER_REGISTRY": "repro.fleet.router",
    "SessionAffinity": "repro.fleet.router",
    "FleetEngine": "repro.fleet.simulator",
    "AutoscalerSpec": "repro.fleet.spec",
    "FleetScenario": "repro.fleet.spec",
    "FleetSpec": "repro.fleet.spec",
    "ReplicaSpec": "repro.fleet.spec",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
