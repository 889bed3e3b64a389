"""Declarative fleet experiments: ReplicaSpec, FleetScenario, FleetSpec.

Mirrors :mod:`repro.serve.scenario` one level up: a
:class:`FleetScenario` is one grid point of a *cluster-scale* serving
experiment — N engine replicas (each a
:class:`~repro.serve.engine_adapter.StepCostModel`-backed
continuous-batching instance, optionally on heterogeneous clusters or
with distinct straggler specs), a front-door router from
:data:`~repro.fleet.router.ROUTER_REGISTRY`, optional queue-driven
autoscaling, optional replica failure/recovery injection, and optional
prefill/decode-disaggregated pools.  :meth:`FleetSpec.grid` expands
cartesian sweeps over every one of those axes through
:func:`repro.api.scenario.expand`, and :meth:`FleetSpec.run` serves
each registered system on each point, returning a
:class:`~repro.fleet.metrics.FleetResultSet`.

:meth:`FleetSpec.run` is :class:`~repro.serve.scenario.ServeSpec`'s run
path (:func:`repro.serve.scenario.serve_grid`): the request trace is
built once per unique scenario, in the calling process, and replayed
verbatim for every system; process workers receive it pickled.
Identical replicas share one step-cost model through
:func:`repro.perf.shared_step_cost`, so an 8-replica homogeneous fleet
prices its iterations exactly once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.api.registry import SystemRegistry
from repro.api.scenario import (
    _as_axis,
    _grid,
    _numeric_axis,
    _shape_axes,
    _straggler_axis,
    check_count,
    check_finite,
    check_point,
)
from repro.faults.migration import MigrationSpec
from repro.faults.plan import FailureEvent, FaultPlan, TimeVaryingStepCost
from repro.faults.resilience import ResilienceSpec
from repro.fleet.metrics import FleetReport, FleetResultSet, FleetSkip
from repro.fleet.router import ROUTER_REGISTRY
from repro.graph.straggler import StragglerSpec
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.parallel.strategy import ParallelStrategy
from repro.serve.scenario import ServeSpec, _budget_label_parts, serve_grid
from repro.serve.traffic import Request, TraceSpec
from repro.systems.base import MoESystem

__all__ = [
    "AutoscalerSpec",
    "FailureEvent",
    "FleetScenario",
    "FleetSpec",
    "ReplicaSpec",
]

REPLICA_ROLES = ("unified", "prefill", "decode")

# "2p+2d" / "1p+3d": a prefill/decode-disaggregated replica-axis entry.
_DISAGG_RE = re.compile(r"^(\d+)p\+(\d+)d$")


@dataclass(frozen=True)
class ReplicaSpec:
    """``count`` identical engine replicas of one shape.

    ``role`` selects the pool: ``"unified"`` replicas run prefill and
    decode interleaved (the plain continuous-batching engine);
    ``"prefill"`` / ``"decode"`` replicas form disaggregated pools where
    a request prefills in one pool and migrates to the other for
    decoding.  The KV handoff is free only when the scenario carries no
    :class:`~repro.faults.migration.MigrationSpec`; with one, every
    handoff pays for its KV-cache bytes over the inter-replica link
    (cost model documented in :mod:`repro.fleet.simulator`).
    """

    cluster: ClusterSpec
    strategy: ParallelStrategy
    count: int = 1
    role: str = "unified"
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"replica count must be >= 1, got {self.count}")
        if self.role not in REPLICA_ROLES:
            raise ValueError(
                f"unknown replica role {self.role!r}; valid roles: "
                f"{', '.join(REPLICA_ROLES)}"
            )
        check_point(self.cluster, self.strategy, stragglers=self.stragglers)

    @property
    def gpus(self) -> int:
        """GPUs one replica of this shape occupies."""
        return self.strategy.world_size


@dataclass(frozen=True)
class AutoscalerSpec:
    """Queue-depth-driven replica autoscaling with warm-up delay.

    The controller ticks every ``interval_ms``: when the waiting-request
    count per active replica exceeds ``scale_up_queue`` it activates one
    standby replica (routable only after ``warmup_ms`` — model load and
    cache warm-up), and when it falls below ``scale_down_queue`` it
    drains one active replica.  ``cooldown_ms`` spaces consecutive
    actions so one burst cannot flap the fleet.  The fleet's replica
    pool is the capacity ceiling; ``min_replicas`` is the floor.
    """

    min_replicas: int = 1
    scale_up_queue: float = 8.0
    scale_down_queue: float = 1.0
    interval_ms: float = 1000.0
    warmup_ms: float = 2000.0
    cooldown_ms: float = 0.0

    def __post_init__(self) -> None:
        check_count("min_replicas", self.min_replicas, low=1)
        check_finite("scale_up_queue", self.scale_up_queue)
        if not 0 <= self.scale_down_queue < self.scale_up_queue:
            raise ValueError(
                f"need 0 <= scale_down_queue < scale_up_queue, got "
                f"{self.scale_down_queue} / {self.scale_up_queue}"
            )
        check_finite("interval_ms", self.interval_ms, positive=True)
        check_finite("warmup_ms", self.warmup_ms)
        check_finite("cooldown_ms", self.cooldown_ms)

    @property
    def label(self) -> str:
        return f"autoscale[min{self.min_replicas}]"


# FailureEvent moved to repro.faults.plan (it is one of FaultPlan's
# three event families); imported above and kept in __all__ so every
# existing ``from repro.fleet.spec import FailureEvent`` still works.


def _replica_summary(replicas: tuple[ReplicaSpec, ...]) -> str:
    """Compact replica-pool descriptor for scenario labels."""
    if all(r.role == "unified" for r in replicas):
        clusters = {(r.cluster.name, str(r.strategy)) for r in replicas}
        total = sum(r.count for r in replicas)
        if len(clusters) == 1:
            return f"x{total}"
        return "+".join(f"{r.count}x{r.cluster.name}" for r in replicas)
    prefill = sum(r.count for r in replicas if r.role == "prefill")
    decode = sum(r.count for r in replicas if r.role == "decode")
    return f"{prefill}p+{decode}d"


@dataclass(frozen=True)
class FleetScenario:
    """One fleet grid point: traffic, replica pool, router, and SLOs."""

    config: MoEConfig
    replicas: tuple[ReplicaSpec, ...]
    trace: TraceSpec = TraceSpec()
    router: str = "round_robin"
    router_seed: int = 0
    autoscaler: AutoscalerSpec | None = None
    failures: tuple[FailureEvent, ...] = ()
    max_batch_tokens: int = 8192
    max_batch_size: int = 256
    policy: str = "fcfs"
    slo_ttft_ms: float = 500.0
    slo_tpot_ms: float = 75.0
    bucket_tokens: int = 256
    overlap_policy: str = "per_layer"
    faults: FaultPlan | None = None
    resilience: ResilienceSpec | None = None
    migration: MigrationSpec | None = None

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a fleet needs at least one ReplicaSpec")
        object.__setattr__(self, "replicas", tuple(self.replicas))
        object.__setattr__(self, "failures", tuple(self.failures))
        roles = {r.role for r in self.replicas}
        if "unified" in roles and len(roles) > 1:
            raise ValueError(
                "replica roles must be all 'unified' or a disaggregated "
                f"prefill+decode mix, got {sorted(roles)}"
            )
        if roles != {"unified"} and roles != {"prefill", "decode"}:
            raise ValueError(
                "a disaggregated fleet needs at least one prefill and one "
                f"decode replica, got roles {sorted(roles)}"
            )
        check_finite("router_seed", self.router_seed)
        if self.router not in ROUTER_REGISTRY:
            raise ValueError(
                f"unknown router {self.router!r}; valid routers: "
                f"{', '.join(ROUTER_REGISTRY.names())}"
            )
        for replica in self.replicas:
            check_point(
                replica.cluster,
                replica.strategy,
                config=self.config,
                stragglers=replica.stragglers,
                overlap_policy=self.overlap_policy,
                policy=self.policy,
                slo_ttft_ms=self.slo_ttft_ms,
                slo_tpot_ms=self.slo_tpot_ms,
                max_batch_tokens=self.max_batch_tokens,
                max_batch_size=self.max_batch_size,
                bucket_tokens=self.bucket_tokens,
            )
        if self.autoscaler is not None:
            if roles != {"unified"}:
                raise ValueError(
                    "autoscaling requires an all-unified fleet (disaggregated "
                    "pools scale per role, which this model does not support)"
                )
            shapes = {
                (r.cluster, r.strategy, r.stragglers) for r in self.replicas
            }
            if len(shapes) > 1:
                raise ValueError(
                    "autoscaling requires a homogeneous fleet (identical "
                    "cluster/strategy/stragglers on every replica)"
                )
            if self.autoscaler.min_replicas > self.num_replicas:
                raise ValueError(
                    f"autoscaler min_replicas {self.autoscaler.min_replicas} "
                    f"exceeds the fleet size {self.num_replicas}"
                )
        by_replica: dict[int, list[FailureEvent]] = {}
        for event in self.all_crashes:
            if event.replica >= self.num_replicas:
                raise ValueError(
                    f"failure event targets replica {event.replica}, fleet "
                    f"has {self.num_replicas}"
                )
            by_replica.setdefault(event.replica, []).append(event)
        for events in by_replica.values():
            events.sort(key=lambda e: e.fail_ms)
            for prev, nxt in zip(events, events[1:]):
                if prev.recover_ms is None or nxt.fail_ms < prev.recover_ms:
                    raise ValueError(
                        f"overlapping failure windows on replica "
                        f"{nxt.replica}: {prev} then {nxt}"
                    )
        if self.faults is not None:
            expanded = self.expand_replicas()
            for degrade in self.faults.degrades:
                if degrade.replica >= self.num_replicas:
                    raise ValueError(
                        f"degrade event targets replica {degrade.replica}, "
                        f"fleet has {self.num_replicas}"
                    )
                world = expanded[degrade.replica].cluster.world_size
                if (
                    degrade.stragglers is not None
                    and degrade.stragglers.num_ranks != world
                ):
                    raise ValueError(
                        f"degrade spec on replica {degrade.replica} covers "
                        f"{degrade.stragglers.num_ranks} ranks, the replica "
                        f"has {world}"
                    )

    @property
    def all_crashes(self) -> tuple[FailureEvent, ...]:
        """Legacy ``failures`` merged with the fault plan's crashes —
        the one list the engine and the overlap validation consume."""
        planned = self.faults.crashes if self.faults is not None else ()
        return self.failures + planned

    @property
    def num_replicas(self) -> int:
        return sum(r.count for r in self.replicas)

    def expand_replicas(self) -> tuple[ReplicaSpec, ...]:
        """One entry per engine instance (counts flattened), index-stable."""
        out: list[ReplicaSpec] = []
        for spec in self.replicas:
            out.extend([spec] * spec.count)
        return tuple(out)

    @property
    def label(self) -> str:
        first = self.replicas[0]
        parts = [
            self.config.name,
            first.cluster.name,
            str(first.strategy),
            self.trace.label,
            self.policy,
            f"{self.router}{_replica_summary(self.replicas)}",
        ]
        if self.overlap_policy != "per_layer":
            parts.append(self.overlap_policy)
        if any(
            r.stragglers is not None and not r.stragglers.is_uniform
            for r in self.replicas
        ):
            parts.append(
                "+".join(
                    r.stragglers.label
                    for r in self.replicas
                    if r.stragglers is not None and not r.stragglers.is_uniform
                )
            )
        if self.autoscaler is not None:
            parts.append(self.autoscaler.label)
        if self.failures:
            parts.append(f"fail:{len(self.failures)}")
        if self.faults is not None and self.faults:
            parts.append(f"faults:{self.faults.label}")
        if self.resilience is not None and self.resilience:
            parts.append(self.resilience.label)
        if self.migration is not None:
            parts.append(self.migration.label)
        return "/".join(parts + _budget_label_parts(self))

    def build_trace(self) -> tuple[Request, ...]:
        return self.trace.build()

    def skip_record(self, system: str, reason: str) -> FleetSkip:
        """The record of ``system`` being unable to serve this scenario."""
        return FleetSkip(
            scenario_label=self.label,
            system=system,
            reason=reason,
            router=self.router,
            num_replicas=self.num_replicas,
        )

    def run_system(
        self,
        system: MoESystem,
        trace: tuple[Request, ...] | None = None,
    ) -> FleetReport:
        """Serve the trace on one system instance across the fleet.

        Raises :class:`~repro.systems.base.UnsupportedWorkload` if the
        system cannot run any replica shape at all (checked eagerly at
        cost-model construction, same as single-replica serving).

        A replica with :class:`~repro.faults.plan.DegradeEvent` windows
        gets a :class:`~repro.faults.plan.TimeVaryingStepCost`: one
        fingerprint-keyed :func:`~repro.perf.shared_step_cost` model per
        degradation window (identical windows share an instance through
        the cache; un-degraded windows share the base model object), so
        step costs re-price at event boundaries without any per-step
        recomputation.
        """
        from repro import perf
        from repro.fleet.simulator import FleetEngine

        def shared(spec: ReplicaSpec, stragglers):
            return perf.shared_step_cost(
                system,
                self.config,
                spec.cluster,
                spec.strategy,
                bucket_tokens=self.bucket_tokens,
                overlap_policy=self.overlap_policy,
                stragglers=stragglers,
            )

        cost_models = []
        for index, spec in enumerate(self.expand_replicas()):
            base = shared(spec, spec.stragglers)
            windows = (
                self.faults.boundaries(
                    index, spec.cluster.world_size, spec.stragglers
                )
                if self.faults is not None
                else ()
            )
            if windows:
                cost_models.append(
                    TimeVaryingStepCost(
                        starts=[start for start, _ in windows],
                        models=[
                            base if composed is None else shared(spec, composed)
                            for _, composed in windows
                        ],
                    )
                )
            else:
                cost_models.append(base)
        engine = FleetEngine(
            scenario=self,
            cost_models=cost_models,
            trace=trace if trace is not None else self.build_trace(),
        )
        return engine.run(system.name)


def _as_replica_axis(value: Any) -> tuple[Any, ...]:
    """Normalise the ``replicas`` grid axis into entry tuples.

    Each *entry* describes one fleet shape and may be an ``int`` (N
    unified replicas on the grid point's cluster), a ``"2p+2d"`` string
    (disaggregated pools), one :class:`ReplicaSpec`, or a sequence of
    :class:`ReplicaSpec` (a heterogeneous fleet).  A bare sequence of
    ReplicaSpecs is one entry, not an axis.
    """
    items = _as_axis(1 if value is None else value)
    if items and all(isinstance(v, ReplicaSpec) for v in items):
        return (items,)
    return items


def _expand_replica_entry(
    entry: Any,
    cluster: ClusterSpec,
    strategy: ParallelStrategy,
    stragglers: StragglerSpec | None,
) -> tuple[ReplicaSpec, ...]:
    """Resolve one replica-axis entry against a grid point's shape."""
    if isinstance(entry, int):
        return (
            ReplicaSpec(
                cluster=cluster, strategy=strategy, count=entry,
                stragglers=stragglers,
            ),
        )
    if isinstance(entry, str):
        match = _DISAGG_RE.match(entry.strip().lower())
        if not match:
            raise ValueError(
                f"replica axis strings must look like '2p+2d' "
                f"(prefill+decode counts), got {entry!r}"
            )
        prefill, decode = int(match.group(1)), int(match.group(2))
        if prefill < 1 or decode < 1:
            raise ValueError(
                f"disaggregated fleets need >= 1 prefill and decode "
                f"replica, got {entry!r}"
            )
        return (
            ReplicaSpec(
                cluster=cluster, strategy=strategy, count=prefill,
                role="prefill", stragglers=stragglers,
            ),
            ReplicaSpec(
                cluster=cluster, strategy=strategy, count=decode,
                role="decode", stragglers=stragglers,
            ),
        )
    if isinstance(entry, ReplicaSpec):
        return (entry,)
    return tuple(entry)


def _as_failure_axis(value: Any) -> tuple[tuple[FailureEvent, ...], ...]:
    """Normalise the ``failures`` axis: each entry is one failure plan.

    ``None`` is the no-failure plan; a :class:`FailureEvent` or a
    sequence of them is a single plan; a sequence of plans (containing
    ``None`` / events / event sequences) is an axis.  An empty sequence
    is the empty plan, not an empty axis.
    """
    items = _as_axis(value)
    if all(isinstance(v, FailureEvent) for v in items):
        return (items,)
    return tuple(
        () if item is None else (item,) if isinstance(item, FailureEvent)
        else tuple(item)
        for item in items
    )


@dataclass(frozen=True)
class FleetSpec:
    """A set of fleet scenarios plus the systems to serve on each."""

    scenarios: tuple[FleetScenario, ...]
    systems: tuple[str, ...] = ()
    registry: SystemRegistry | None = None

    @classmethod
    def grid(
        cls,
        models: Any = "mixtral",
        clusters: Any = "h800",
        strategies: Any = None,
        replicas: Any = 1,
        routers: Any = "round_robin",
        traces: Any = None,
        policies: Any = "fcfs",
        autoscalers: Any = None,
        failures: Any = None,
        slo_ttft_ms: Any = 500.0,
        slo_tpot_ms: Any = 75.0,
        max_batch_tokens: Any = 8192,
        overlap_policies: Any = "per_layer",
        stragglers: Any = None,
        faults: Any = None,
        resilience: Any = None,
        migrations: Any = None,
        router_seed: int = 0,
        systems: Any = None,
        registry: SystemRegistry | None = None,
    ) -> "FleetSpec":
        """Expand a cartesian fleet sweep.

        On top of the :meth:`~repro.serve.scenario.ServeSpec.grid` axes,
        ``replicas`` sweeps fleet shapes (an int, a ``"2p+2d"``
        disaggregation string, a :class:`ReplicaSpec`, or a sequence of
        ReplicaSpecs for heterogeneous fleets — each resolved against
        the grid point's cluster/strategy where applicable),
        ``routers`` sweeps :data:`~repro.fleet.router.ROUTER_REGISTRY`
        names, ``autoscalers`` sweeps :class:`AutoscalerSpec` entries
        (``None`` = static fleet), and ``failures`` sweeps failure
        plans (tuples of :class:`FailureEvent`; ``None`` = no
        failures).  ``stragglers`` applies its per-cluster axis entries
        to every replica of the scenario.

        The fault/resilience axes (PR 8) follow the ``autoscalers``
        convention — ``None`` is a valid entry meaning "off":
        ``faults`` sweeps :class:`~repro.faults.plan.FaultPlan`
        schedules (crashes + time-varying degradation + brownouts),
        ``resilience`` sweeps
        :class:`~repro.faults.resilience.ResilienceSpec` policies
        (detect→drain→recover, deadlines/retries, shedding), and
        ``migrations`` sweeps
        :class:`~repro.faults.migration.MigrationSpec` KV-transfer
        cost models.

        Expansion order is models, clusters, strategies, stragglers,
        replicas, traces, policies, routers, autoscalers, failures, TTFT
        SLOs, TPOT SLOs, batch budgets, overlap policies, faults,
        resilience, migrations (outer to inner).
        """
        replica_axis = _as_replica_axis(replicas)

        def pools(cluster, strategy, stragglers):
            return tuple(
                _expand_replica_entry(entry, cluster, strategy, stragglers)
                for entry in replica_axis
            )

        def make(cluster, strategy, stragglers, **fields):
            return FleetScenario(router_seed=router_seed, **fields)

        axes = (
            *_shape_axes(models, clusters, strategies),
            _straggler_axis(stragglers),
            ("replicas", pools),
            ("trace", _as_axis(traces if traces is not None else TraceSpec())),
            ("policy", _as_axis(policies)),
            ("router", tuple(ROUTER_REGISTRY.resolve(r) for r in _as_axis(routers))),
            ("autoscaler", _as_axis(autoscalers)),
            ("failures", _as_failure_axis(failures)),
            ("slo_ttft_ms", _numeric_axis("slo_ttft_ms", slo_ttft_ms)),
            ("slo_tpot_ms", _numeric_axis("slo_tpot_ms", slo_tpot_ms)),
            (
                "max_batch_tokens",
                _numeric_axis("max_batch_tokens", max_batch_tokens, integral=True),
            ),
            ("overlap_policy", _as_axis(overlap_policies)),
            ("faults", _as_axis(faults)),
            ("resilience", _as_axis(resilience)),
            ("migration", _as_axis(migrations)),
        )
        return _grid(cls, axes, make, systems, registry)

    system_names = ServeSpec.system_names
    traces = ServeSpec.traces

    def run(
        self, workers: int | None = None, executor: str = "thread"
    ) -> FleetResultSet:
        """Serve every (scenario, system) pair and collect the reports.

        The run path of :meth:`ServeSpec.run`: each unique scenario's
        trace is built once, here in the calling process, and process
        workers receive it pickled; every export is byte-identical to
        the serial run whatever the worker kind.
        """
        return serve_grid(self, "fleet", FleetResultSet, workers, executor)
