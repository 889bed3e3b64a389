"""Online MoE inference serving: traffic -> continuous batching -> SLO metrics.

This subsystem turns the repository's per-layer system timings into a
request-level serving simulator: seeded traffic generators
(:mod:`repro.serve.traffic`) feed a continuous-batching scheduler
(:mod:`repro.serve.scheduler`) whose per-iteration step costs are
composed from ``MoESystem.time_layer`` over the model's layers
(:mod:`repro.serve.engine_adapter`), producing TTFT/TPOT/goodput
reports (:mod:`repro.serve.metrics`).  :mod:`repro.serve.scenario`
exposes the declarative ``ServeScenario`` / ``ServeSpec.grid`` API that
mirrors the offline :class:`~repro.api.scenario.ExperimentSpec`.

Quick example::

    from repro import ServeSpec, TraceSpec

    spec = ServeSpec.grid(
        models="mixtral",
        traces=TraceSpec(kind="poisson", rps=24, duration_s=20),
        systems=("comet", "tutel", "megatron-cutlass"),
    )
    results = spec.run()
    print(results.goodput_by_system())

See ``examples/online_serving.py`` for a full walkthrough and
``python -m repro serve --help`` for the CLI.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "StepCostModel": "repro.serve.engine_adapter",
    "RequestRecord": "repro.serve.metrics",
    "ServeReport": "repro.serve.metrics",
    "ServeResultSet": "repro.serve.metrics",
    "ServeSkip": "repro.serve.metrics",
    "Table": "repro.serve.metrics",
    "TimelinePoint": "repro.serve.metrics",
    "ServeScenario": "repro.serve.scenario",
    "ServeSpec": "repro.serve.scenario",
    "ContinuousBatchingScheduler": "repro.serve.scheduler",
    "POLICY_REGISTRY": "repro.serve.scheduler",
    "build_trace": "repro.serve.traffic",
    "Request": "repro.serve.traffic",
    "TRACE_REGISTRY": "repro.serve.traffic",
    "TraceSpec": "repro.serve.traffic",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
