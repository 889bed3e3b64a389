"""Declarative online-serving experiments: ServeScenario and ServeSpec.

Mirrors :mod:`repro.api.scenario` for the serving workload class: a
:class:`ServeScenario` is one grid point (model x cluster x parallelism
x traffic x scheduler policy x SLO), :class:`ServeSpec.grid` expands
cartesian sweeps through :func:`repro.api.scenario.expand`, and
:meth:`ServeSpec.run` serves every registered system on each point,
returning a :class:`~repro.serve.metrics.ServeResultSet`.

:func:`serve_grid` is the run path :class:`ServeSpec` and
:class:`~repro.fleet.spec.FleetSpec` share.  It builds the request
trace once per unique scenario, in the calling process, and replays it
verbatim for every system (the serving analogue of the one-workload-
per-grid-point sharing in the offline API), so goodput differences are
attributable to the execution mechanism alone.  Each (scenario, system)
pair is one :func:`repro.api.scenario.run_tasks` task carrying its
trace; process workers receive the trace pickled rather than rebuilding
it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterator

from repro import perf
from repro.api.registry import SYSTEM_REGISTRY, SystemRegistry
from repro.api.scenario import (
    ExperimentSpec,
    _as_axis,
    _grid,
    _numeric_axis,
    _shape_axes,
    _straggler_axis,
    check_point,
    run_tasks,
)
from repro.domains import knob, validate
from repro.graph.straggler import StragglerSpec
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.obs.manifest import capture
from repro.parallel.strategy import ParallelStrategy
from repro.serve.traffic import Request, TraceSpec
from repro.systems.base import MoESystem, UnsupportedWorkload

if TYPE_CHECKING:  # pragma: no cover - typing only; imported where it runs
    from repro.serve.metrics import ServeReport, ServeResultSet, ServeSkip

__all__ = ["ServeScenario", "ServeSpec", "serve_grid"]


def _budget_label_parts(point: Any) -> list[str]:
    """Label parts of a serving grid point's SLO and batch-budget axes.

    One part for each of ``slo_ttft_ms``, ``slo_tpot_ms`` and
    ``max_batch_tokens`` the point moves off its dataclass default
    (``ttft300``, ``tpot50``, ``mbt4096``), so grid points that differ
    only on those axes keep distinct labels, and so distinct export rows.
    """
    defaults = {f.name: f.default for f in fields(point)}
    return [
        prefix + str(getattr(point, name)).removesuffix(".0")
        for prefix, name in (
            ("ttft", "slo_ttft_ms"), ("tpot", "slo_tpot_ms"), ("mbt", "max_batch_tokens"),
        )
        if getattr(point, name) != defaults[name]
    ]


@dataclass(frozen=True)
class ServeScenario:
    """One serving grid point: traffic, replica shape, policy, and SLOs."""

    config: MoEConfig
    cluster: ClusterSpec
    strategy: ParallelStrategy
    trace: TraceSpec = TraceSpec()
    max_batch_tokens: int = knob(
        8192, gt=0, integral=True, help="continuous-batching token budget per iteration"
    )
    max_batch_size: int = knob(256, gt=0, integral=True)
    policy: str = "fcfs"
    slo_ttft_ms: float = knob(500.0, gt=0, help="time-to-first-token SLO")
    slo_tpot_ms: float = knob(75.0, gt=0, help="time-per-output-token SLO")
    bucket_tokens: int = knob(256, gt=0, integral=True)
    overlap_policy: str = "per_layer"
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        validate(self)
        check_point(
            self.cluster,
            self.strategy,
            config=self.config,
            stragglers=self.stragglers,
            overlap_policy=self.overlap_policy,
            policy=self.policy,
        )

    @property
    def label(self) -> str:
        parts = [
            self.config.name,
            self.cluster.name,
            str(self.strategy),
            self.trace.label,
            self.policy,
        ]
        if self.overlap_policy != "per_layer":
            parts.append(self.overlap_policy)
        if self.stragglers is not None and not self.stragglers.is_uniform:
            parts.append(self.stragglers.label)
        return "/".join(parts + _budget_label_parts(self))

    def build_trace(self) -> tuple[Request, ...]:
        return self.trace.build()

    def skip_record(self, system: str, reason: str) -> ServeSkip:
        """The record of ``system`` being unable to serve this scenario."""
        from repro.serve.metrics import ServeSkip

        return ServeSkip(scenario_label=self.label, system=system, reason=reason)

    def run_system(
        self,
        system: MoESystem,
        trace: tuple[Request, ...] | None = None,
    ) -> ServeReport:
        """Serve the trace on one system instance.

        Raises :class:`~repro.systems.base.UnsupportedWorkload` if the
        system cannot run this replica shape at all.
        """
        from repro.serve.metrics import ServeReport
        from repro.serve.scheduler import ContinuousBatchingScheduler

        cost_model = perf.shared_step_cost(
            system,
            self.config,
            self.cluster,
            self.strategy,
            bucket_tokens=self.bucket_tokens,
            overlap_policy=self.overlap_policy,
            stragglers=self.stragglers,
        )
        scheduler = ContinuousBatchingScheduler(
            cost_model=cost_model,
            trace=trace if trace is not None else self.build_trace(),
            max_batch_tokens=self.max_batch_tokens,
            max_batch_size=self.max_batch_size,
            policy=self.policy,
            slo_ttft_ms=self.slo_ttft_ms,
        )
        records, timeline = scheduler.run()
        return ServeReport(
            system=system.name,
            scenario_label=self.label,
            records=records,
            timeline=timeline,
            slo_ttft_ms=self.slo_ttft_ms,
            slo_tpot_ms=self.slo_tpot_ms,
            horizon_ms=self.trace.horizon_ms,
            max_batch_tokens=self.max_batch_tokens,
        )


@dataclass(frozen=True)
class ServeSpec:
    """A set of serving scenarios plus the systems to serve on each."""

    scenarios: tuple[ServeScenario, ...]
    systems: tuple[str, ...] = ()
    registry: SystemRegistry | None = None

    @classmethod
    def grid(
        cls,
        models: Any = "mixtral",
        clusters: Any = "h800",
        strategies: Any = None,
        traces: Any = None,
        policies: Any = "fcfs",
        slo_ttft_ms: Any = 500.0,
        slo_tpot_ms: Any = 75.0,
        max_batch_tokens: Any = 8192,
        overlap_policies: Any = "per_layer",
        stragglers: Any = None,
        systems: Any = None,
        registry: SystemRegistry | None = None,
    ) -> "ServeSpec":
        """Expand a cartesian serving sweep.

        ``strategies`` defaults to pure expert parallelism (TP=1,
        EP=world) on each cluster and otherwise accepts everything
        :meth:`repro.api.scenario.ExperimentSpec.grid` does (``"sweep"``,
        one strategy, a ``(tp, ep)`` pair, or a sequence); ``traces``
        defaults to one Poisson :class:`TraceSpec`; ``overlap_policies``
        sweeps the cross-layer scheduling model of the step cost
        (``"per_layer"`` | ``"cross_layer"`` | ``"shortcut"``);
        ``stragglers`` sweeps per-rank straggler scenarios (same kwarg
        name and entry forms as :meth:`ExperimentSpec.grid`) — each
        entry is ``None`` (the baseline), a
        :class:`~repro.graph.straggler.StragglerSpec`, or a float
        shorthand for a rank-0 slow-rank preset at that compute
        multiplier (built against each cluster's world size; ``1.0``
        means no spec).  Every axis accepts a single value or a
        sequence.  Expansion order is models, clusters, strategies,
        traces, policies, TTFT SLOs, TPOT SLOs, batch budgets, overlap
        policies, stragglers (outer to inner).
        """
        axes = (
            *_shape_axes(models, clusters, strategies),
            ("trace", _as_axis(traces if traces is not None else TraceSpec())),
            ("policy", _as_axis(policies)),
            ("slo_ttft_ms", _numeric_axis("slo_ttft_ms", slo_ttft_ms)),
            ("slo_tpot_ms", _numeric_axis("slo_tpot_ms", slo_tpot_ms)),
            (
                "max_batch_tokens",
                _numeric_axis("max_batch_tokens", max_batch_tokens, integral=True),
            ),
            ("overlap_policy", _as_axis(overlap_policies)),
            _straggler_axis(stragglers),
        )
        return _grid(cls, axes, ServeScenario, systems, registry)

    system_names = ExperimentSpec.system_names

    def traces(self) -> Iterator[tuple[ServeScenario, tuple[Request, ...]]]:
        """One (scenario, trace) pair per unique grid point."""
        for scenario in dict.fromkeys(self.scenarios):
            yield scenario, scenario.build_trace()

    def run(
        self, workers: int | None = None, executor: str = "thread"
    ) -> ServeResultSet:
        """Serve every (scenario, system) pair and collect the reports.

        Each unique scenario's trace is built once, here in the calling
        process, and served on every system.  ``workers`` > 1 serves
        pairs on that many threads, or worker processes with
        ``executor="process"`` (they receive the trace pickled; worker
        cache counters merge into :func:`repro.perf.cache_stats`).
        Reports and skips come out in grid order whatever the worker
        kind, so every export is byte-identical to the serial run.
        Process mode requires the default registry.
        """
        from repro.serve.metrics import ServeResultSet

        return serve_grid(self, "serve", ServeResultSet, workers, executor)


def _serve_pair(payload):
    """Task: serve one (scenario, system) pair on its prebuilt trace.

    Returns ``(report, None)``, or ``(None, skip)`` when the system
    cannot run the scenario's replica shape.
    """
    scenario, trace, name, registry = payload
    system = (registry if registry is not None else SYSTEM_REGISTRY).create(name)
    try:
        return scenario.run_system(system, trace=trace), None
    except UnsupportedWorkload as exc:
        return None, scenario.skip_record(system.name, str(exc))


def serve_grid(
    spec: Any,
    kind: str,
    results: type,
    workers: int | None = None,
    executor: str = "thread",
) -> Any:
    """Serve every unique (scenario, system) pair of a serving ``spec``.

    The run path of :class:`ServeSpec` and
    :class:`~repro.fleet.spec.FleetSpec`: traces come from
    ``spec.traces()`` in the calling process, the pairs go through
    :func:`~repro.api.scenario.run_tasks`, and the outcomes are
    collected into ``results`` (the spec's result-set class) with a
    ``kind`` manifest over the unique scenarios.
    """
    names = spec.system_names()
    points = list(spec.traces())
    payloads = [
        (scenario, trace, name, spec.registry)
        for scenario, trace in points
        for name in names
    ]
    reports, skips = [], []
    for report, skip in run_tasks(
        _serve_pair, payloads, workers, executor, spec.registry
    ):
        if skip is None:
            reports.append(report)
        else:
            skips.append(skip)
    return results(
        reports=tuple(reports),
        skips=tuple(skips),
        manifest=capture(kind, [scenario for scenario, _ in points], names),
    )
