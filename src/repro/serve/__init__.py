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

from repro.serve.engine_adapter import StepCostModel
from repro.serve.metrics import (
    RequestRecord,
    ServeReport,
    ServeResultSet,
    ServeSkip,
    Table,
    TimelinePoint,
)
from repro.serve.scenario import ServeScenario, ServeSpec
from repro.serve.scheduler import POLICY_REGISTRY, ContinuousBatchingScheduler
from repro.serve.traffic import TRACE_REGISTRY, Request, TraceSpec, build_trace

__all__ = [
    "POLICY_REGISTRY",
    "ContinuousBatchingScheduler",
    "Request",
    "RequestRecord",
    "ServeReport",
    "ServeResultSet",
    "ServeScenario",
    "ServeSkip",
    "ServeSpec",
    "StepCostModel",
    "TRACE_REGISTRY",
    "Table",
    "TimelinePoint",
    "TraceSpec",
    "build_trace",
]
