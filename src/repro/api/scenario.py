"""Declarative experiments: scenarios, cartesian grids, and execution.

A :class:`Scenario` names one grid point of the paper's evaluation space
— model x cluster x parallelism x token count x imbalance x seed — and
:class:`ExperimentSpec` expands cartesian sweeps over those axes
(:meth:`ExperimentSpec.grid`), then executes every registered system on
each point (:meth:`ExperimentSpec.run`).

The workload (and therefore its :class:`~repro.runtime.workload.WorkloadGeometry`
caches) is constructed exactly once per scenario and shared across all
systems timing it, no matter how many systems run — the deduplication the
hand-written figure loops used to do ad hoc.

This module is also the sweep engine of the serving and fleet specs
(:class:`~repro.serve.scenario.ServeSpec`,
:class:`~repro.fleet.spec.FleetSpec`):

* :func:`expand` folds one ordered axis list, outer to inner, into grid
  points in nested-loop order.  An axis may depend on outer axes — the
  strategies and stragglers follow each cluster's world size — and is
  evaluated once per combination of the values it names, so every
  scenario of one cluster shares its straggler specs.
* :func:`run_tasks` runs one module-level task per payload serially
  (``workers`` unset or 1, or a single payload), on threads, or on
  worker processes (``executor="process"``), and yields the results in
  payload order, so every export is byte-identical across worker kinds.
  Process workers start from :func:`repro.perf.process_worker_init` and
  their cache counters merge into :func:`repro.perf.cache_stats`.  A
  custom registry exists only in the calling process, so
  ``executor="process"`` with ``workers > 1`` refuses one, whatever the
  grid size.
* :func:`check_point` holds the cross-field checks every scenario kind
  makes of its grid point; each numeric field checks its own declared
  domain (:mod:`repro.domains`).

Example::

    from repro import ExperimentSpec

    spec = ExperimentSpec.grid(
        models="mixtral", clusters="h800", strategies="sweep",
        tokens=(4096, 8192), systems=("comet", "megatron-cutlass"),
    )
    results = spec.run()
    print(results.mean_speedup_over("Megatron-Cutlass"))
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.api.registry import (
    SYSTEM_REGISTRY,
    SystemRegistry,
    resolve_cluster,
    resolve_model,
)
from repro.api.results import ResultRow, ResultSet, SkipRecord
from repro.domains import knob, validate
from repro.graph.lower import check_policy
from repro.graph.straggler import StragglerSpec, check_multiplier
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.moe.routing import max_imbalance_std
from repro.obs.manifest import capture
from repro.parallel.strategy import ParallelStrategy
from repro.runtime.model_runner import run_model
from repro.runtime.workload import MoELayerWorkload
from repro.systems import ALL_SYSTEMS
from repro.systems.base import UnsupportedWorkload

__all__ = [
    "BUDGET_PER_UNIT",
    "ExperimentSpec",
    "Scenario",
    "SimulationBudgetExceeded",
    "check_point",
    "default_system_names",
    "expand",
    "run_tasks",
]


def default_system_names() -> tuple[str, ...]:
    """Registry slugs of the built-in systems, in the paper's plotting
    order (Megatron-TE first, Comet last)."""
    return tuple(cls.slug for cls in ALL_SYSTEMS)


class SimulationBudgetExceeded(RuntimeError):
    """A run took more steps than its offered work allows.

    Every accepted spec either runs to completion in work bounded by
    what it offers or raises this, naming the scenario or trace: a
    finite, positive tick interval or dwell too small to advance the
    clock (``1e-300``) would otherwise loop forever.
    """


#: Steps a run may take per unit of offered work before it raises
#: :class:`SimulationBudgetExceeded`: the fleet co-simulation's timer pops
#: (:meth:`repro.fleet.simulator.FleetEngine._offered_units`) and a trace
#: generator's loop iterations (one unit per expected request, plus one).
#: The pinned exports, the examples and the CLI smokes stay under a
#: tenth of it.
BUDGET_PER_UNIT = 32


# -- the grid-point boundary ---------------------------------------------------
def check_point(
    cluster: ClusterSpec,
    strategy: ParallelStrategy,
    *,
    config: MoEConfig | None = None,
    stragglers: StragglerSpec | None = None,
    overlap_policy: str = "per_layer",
    policy: str | None = None,
) -> None:
    """The cross-field checks every scenario kind makes of one grid point.

    The strategy spans the cluster, the model's experts and FFN divide
    over it (when ``config`` is given), a straggler spec covers every
    rank, and the overlap policy is known.  Serving scenarios also name
    a registered scheduler ``policy``.
    """
    if strategy.world_size != cluster.world_size:
        raise ValueError(
            f"strategy {strategy} needs world size {strategy.world_size}, "
            f"cluster {cluster.name} has {cluster.world_size}"
        )
    if config is not None:
        strategy.validate_model(config.num_experts, config.ffn_size)
    if stragglers is not None and stragglers.num_ranks != cluster.world_size:
        raise ValueError(
            f"straggler spec covers {stragglers.num_ranks} ranks, "
            f"cluster {cluster.name} has {cluster.world_size}"
        )
    check_policy(overlap_policy)
    if policy is not None:
        from repro.serve.policies import POLICY_REGISTRY

        if policy not in POLICY_REGISTRY:
            raise ValueError(
                f"unknown policy {policy!r}; valid policies: "
                f"{', '.join(POLICY_REGISTRY.names())}"
            )


# -- the sweep engine ----------------------------------------------------------
def expand(
    axes: Sequence[tuple[str, Any]], make: Callable[..., Any]
) -> Iterator[Any]:
    """Yield ``make(**point)`` for every point of a cartesian grid.

    ``axes`` holds ``(name, values)`` pairs, outer to inner: the last
    axis varies fastest, as in nested ``for`` loops.  ``values`` is a
    sequence, or a function whose parameters name outer axes
    (``lambda cluster: ...``); the function is called once per
    combination of those outer values and its result serves every
    point inside them.

    An empty sequence raises ``ValueError`` naming its axis: it would
    expand to no point at all.  A function may return no values for
    some outer points, which then drop out of the grid (a TP x EP split
    that misses one cluster's world size).
    """
    axes = tuple(axes)
    for name, values in axes:
        if not callable(values) and not len(values):
            raise ValueError(f"grid axis {name!r} has no values")
    depends = [
        tuple(inspect.signature(values).parameters) if callable(values) else None
        for _, values in axes
    ]
    resolved: dict[tuple, tuple] = {}
    point: dict[str, Any] = {}

    def fold(depth: int) -> Iterator[Any]:
        if depth == len(axes):
            yield make(**point)
            return
        name, values = axes[depth]
        if depends[depth] is not None:
            outer = [point[dep] for dep in depends[depth]]
            key = (depth, *map(id, outer))
            if key not in resolved:
                resolved[key] = tuple(values(*outer))
            values = resolved[key]
        for value in values:
            point[name] = value
            yield from fold(depth + 1)

    return fold(0)


def _check_executor(executor: str) -> None:
    if executor not in ("thread", "process"):
        raise ValueError(
            f"executor must be 'thread' or 'process', got {executor!r}"
        )


def run_tasks(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int | None = None,
    executor: str = "thread",
    registry: SystemRegistry | None = None,
) -> Iterator[Any]:
    """Yield ``task(payload)`` for every payload, in payload order.

    Serial unless ``workers`` > 1 and there are two or more payloads;
    then the tasks run on that many threads, or worker processes with
    ``executor="process"``.  ``task`` must be module-level (it pickles
    by reference), and each process worker's cache counters merge into
    :func:`repro.perf.cache_stats`.  ``registry`` is the spec's custom
    system registry, which process workers cannot see, so process mode
    refuses one.
    """
    _check_executor(executor)
    parallel = workers is not None and workers > 1
    if parallel and executor == "process" and registry is not None:
        raise ValueError(
            "executor='process' requires the default registry "
            "(a custom registry exists only in this process)"
        )
    if not parallel or len(payloads) < 2:
        return map(task, payloads)
    return _pooled(task, payloads, workers, executor)


def _pooled(
    task: Callable[[Any], Any], payloads: Sequence[Any], workers: int, executor: str
) -> Iterator[Any]:
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    from repro import perf

    if executor == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(task, payloads)
        return
    jobs = [(task, payload) for payload in payloads]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=perf.process_worker_init
    ) as pool:
        for result, pid, stats in pool.map(_in_worker, jobs):
            perf.record_worker_stats(pid, stats)
            yield result


def _in_worker(job: tuple[Callable[[Any], Any], Any]):
    """Process-pool entry: one task, returned with this worker's pid and
    own cache counters for :func:`repro.perf.record_worker_stats`."""
    import os

    from repro import perf

    task, payload = job
    return task(payload), os.getpid(), perf.cache_stats(include_workers=False)


@dataclass(frozen=True)
class Scenario:
    """One grid point: everything that determines a workload.

    Scenarios are frozen and hashable, so they key workload caches and
    :class:`~repro.api.results.ResultSet` queries directly.
    """

    config: MoEConfig
    cluster: ClusterSpec
    strategy: ParallelStrategy
    tokens: int = knob(gt=0, integral=True)
    imbalance_std: float = knob(0.0, ge=0, help="expert-load imbalance std")
    # numpy's SeedSequence rejects a negative or fractional seed only
    # mid-run, and a bool seed would run as 0 or 1 under its own label.
    seed: int = knob(0, ge=0, integral=True)
    overlap_policy: str = "per_layer"
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        check_point(
            self.cluster,
            self.strategy,
            config=self.config,
            stragglers=self.stragglers,
            overlap_policy=self.overlap_policy,
        )
        # Checked before the domain, for the message: the token count
        # must also divide over the ranks.
        if self.tokens <= 0 or self.tokens % self.cluster.world_size != 0:
            raise ValueError(
                f"tokens {self.tokens} must be positive and divide evenly "
                f"over {self.cluster.world_size} ranks"
            )
        validate(self)
        bound = max_imbalance_std(self.config.num_experts)
        if self.imbalance_std and self.imbalance_std >= bound:
            raise ValueError(
                f"imbalance_std {self.imbalance_std} unreachable for "
                f"E={self.config.num_experts} (max {bound:.4f})"
            )

    @property
    def label(self) -> str:
        """Compact human-readable identifier used in skip annotations."""
        parts = [
            self.config.name,
            self.cluster.name,
            str(self.strategy),
            f"M{self.tokens}",
        ]
        if self.imbalance_std:
            parts.append(f"std{self.imbalance_std}")
        if self.seed:
            parts.append(f"seed{self.seed}")
        if self.overlap_policy != "per_layer":
            parts.append(self.overlap_policy)
        if self.stragglers is not None and not self.stragglers.is_uniform:
            parts.append(self.stragglers.label)
        return "/".join(parts)

    def build_workload(self) -> MoELayerWorkload:
        """Synthesise the workload this scenario describes.

        Goes through :func:`repro.perf.shared_workload`, so repeated
        builds of the same scenario (re-runs, serving buckets, other
        grids) reuse one workload object and its geometry caches —
        ``make_workload`` is deterministic, so this is unobservable
        except in speed.
        """
        from repro import perf

        return perf.shared_workload(
            self.config,
            self.cluster,
            self.strategy,
            self.tokens,
            imbalance_std=self.imbalance_std,
            seed=self.seed,
        )


# -- grid axes -----------------------------------------------------------------
def _as_axis(value: Any) -> tuple:
    """One grid axis: a sequence is its values; anything else — a string
    included — is a single value."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        return (value,)
    return tuple(value)


def _numeric_axis(name: str, value: Any, integral: bool = False) -> tuple:
    """A numeric axis: floats, or ints where ``integral``.  A string or
    a non-integral value for an integer axis is an error, never split
    into characters or truncated."""
    out = []
    for entry in _as_axis(value):
        if not isinstance(entry, numbers.Real):
            raise ValueError(f"{name} entries must be numbers, got {entry!r}")
        if not integral:
            out.append(float(entry))
        elif isinstance(entry, numbers.Integral) or (
            math.isfinite(entry) and float(entry).is_integer()
        ):
            out.append(int(entry))
        else:
            raise ValueError(f"{name} entries must be integers, got {entry!r}")
    return tuple(out)


def _as_straggler_axis(
    value: Any, world_size: int
) -> tuple[StragglerSpec | None, ...]:
    """Normalise one straggler-axis input against a cluster's world size.

    Each entry may be ``None`` (baseline), a :class:`StragglerSpec`
    (rank count checked by :class:`Scenario` validation), or a float
    shorthand for the rank-0 slow-rank preset at that compute
    multiplier.  Every spelling of the baseline — ``None``, ``1.0``,
    an explicit uniform spec — normalises to ``None``, so the axis is
    canonical (no duplicate indistinguishable grid points) and a
    ``(1.0, 1.5)`` sweep keeps its baseline point byte-identical to an
    unswept grid.  An empty sequence raises: it would expand to no
    grid point.
    """
    entries = _as_axis(value)
    if not entries:
        raise ValueError("grid axis 'stragglers' has no values")
    out: list[StragglerSpec | None] = []
    for entry in entries:
        if isinstance(entry, (int, float)):
            mult = check_multiplier(entry)
            entry = StragglerSpec.slow_rank(world_size, compute_mult=mult)
        elif entry is not None and not isinstance(entry, StragglerSpec):
            raise ValueError(
                f"straggler axis entries must be None, a StragglerSpec, or "
                f"a slow-rank multiplier; got {entry!r}"
            )
        out.append(None if entry is None or entry.is_uniform else entry)
    return tuple(out)


def _as_strategies(value: Any, world_size: int) -> tuple[ParallelStrategy, ...]:
    if value is None:
        return (ParallelStrategy(tp_size=1, ep_size=world_size),)
    if isinstance(value, str):
        if value != "sweep":
            raise ValueError(
                f"strategies must be 'sweep', a ParallelStrategy, a (tp, ep) "
                f"pair, or a sequence of those; got {value!r}"
            )
        return tuple(ParallelStrategy.sweep(world_size))
    if isinstance(value, ParallelStrategy):
        return (value,)
    items = tuple(value)
    if not items:
        raise ValueError("grid axis 'strategy' has no values")
    if len(items) == 2 and all(isinstance(v, int) for v in items):
        items = (items,)
    out = []
    for item in items:
        if not isinstance(item, ParallelStrategy):
            tp, ep = item
            item = ParallelStrategy(tp_size=tp, ep_size=ep)
        out.append(item)
    return tuple(out)


def _shape_axes(models: Any, clusters: Any, strategies: Any) -> tuple:
    """The outer ``config``, ``cluster`` and ``strategy`` axes every
    grid starts with; ``strategies=None`` is pure expert parallelism
    (TP=1, EP=world) on each cluster."""
    return (
        ("config", tuple(resolve_model(m) for m in _as_axis(models))),
        ("cluster", tuple(resolve_cluster(c) for c in _as_axis(clusters))),
        ("strategy", lambda cluster: _as_strategies(strategies, cluster.world_size)),
    )


def _straggler_axis(stragglers: Any) -> tuple:
    return (
        "stragglers",
        lambda cluster: _as_straggler_axis(stragglers, cluster.world_size),
    )


def _grid(
    cls: type,
    axes: Sequence[tuple[str, Any]],
    make: Callable[..., Any],
    systems: Any,
    registry: SystemRegistry | None,
):
    """A ``cls`` spec over the expanded axes, its systems resolved
    through ``registry`` (the global one by default)."""
    scenarios = tuple(expand(axes, make))
    reg = registry if registry is not None else SYSTEM_REGISTRY
    names = () if systems is None else tuple(reg.resolve(n) for n in _as_axis(systems))
    return cls(scenarios=scenarios, systems=names, registry=registry)


def _run_point(payload) -> tuple[list[ResultRow], list[SkipRecord]]:
    """Task: one grid point — its workload built once, every system run
    on it in sequence (one layer, or the whole forward pass at
    ``level="model"``)."""
    from repro import perf

    scenario, level, names, registry = payload
    registry = registry if registry is not None else SYSTEM_REGISTRY
    workload = scenario.build_workload()
    rows: list[ResultRow] = []
    skips: list[SkipRecord] = []
    for system in [registry.create(name) for name in names]:
        model_timing = None
        try:
            if level == "layer":
                timing = perf.cached_time_layer(system, workload)
            else:
                model_timing = run_model(
                    system,
                    scenario.config,
                    scenario.cluster,
                    scenario.strategy,
                    total_tokens=scenario.tokens,
                    workload=workload,
                    overlap_policy=scenario.overlap_policy,
                    stragglers=scenario.stragglers,
                )
                timing = model_timing.moe
        except UnsupportedWorkload as exc:
            skips.append(
                SkipRecord(scenario=scenario, system=system.name, reason=str(exc))
            )
            continue
        rows.append(
            ResultRow(
                scenario=scenario,
                system=system.name,
                timing=timing,
                model_timing=model_timing,
                workload=workload,
            )
        )
    return rows, skips


@dataclass(frozen=True)
class ExperimentSpec:
    """A set of scenarios plus the systems to run on each.

    ``systems`` holds registry names (empty means all built-ins, in the
    paper's order); ``registry`` defaults to the global
    :data:`~repro.api.registry.SYSTEM_REGISTRY`.
    """

    scenarios: tuple[Scenario, ...]
    systems: tuple[str, ...] = ()
    registry: SystemRegistry | None = None

    @classmethod
    def grid(
        cls,
        models: Any = "mixtral",
        clusters: Any = "h800",
        strategies: Any = "sweep",
        tokens: Any = 16384,
        imbalance_stds: Any = (0.0,),
        seeds: Any = (0,),
        overlap_policies: Any = "per_layer",
        stragglers: Any = None,
        systems: Any = None,
        registry: SystemRegistry | None = None,
    ) -> "ExperimentSpec":
        """Expand a cartesian sweep into scenarios.

        Every axis accepts a single value or a sequence; models, clusters,
        and systems also accept registry names.  ``strategies`` may be
        ``"sweep"`` (all TP x EP factorisations of each cluster's world
        size — Figure 12's x-axis), one strategy (a
        :class:`ParallelStrategy` or ``(tp, ep)`` pair), or a sequence of
        strategies.  ``overlap_policies`` sweeps the cross-layer
        scheduling model (``"per_layer"`` | ``"cross_layer"`` |
        ``"shortcut"``) used at ``level="model"``.  ``stragglers`` sweeps
        per-rank straggler scenarios at ``level="model"`` — each entry is
        ``None`` (baseline), a
        :class:`~repro.graph.straggler.StragglerSpec`, or a float
        shorthand for the rank-0 slow-rank preset at that compute
        multiplier (resolved against each cluster's world size; ``1.0``
        means baseline).  Expansion order is models, clusters,
        strategies, tokens, imbalance, seeds, overlap policies,
        stragglers (outer to inner) — the row order of the paper's
        figure tables.
        """
        axes = (
            *_shape_axes(models, clusters, strategies),
            ("tokens", _numeric_axis("tokens", tokens, integral=True)),
            ("imbalance_std", _numeric_axis("imbalance_stds", imbalance_stds)),
            ("seed", _numeric_axis("seeds", seeds, integral=True)),
            ("overlap_policy", _as_axis(overlap_policies)),
            _straggler_axis(stragglers),
        )
        return _grid(cls, axes, Scenario, systems, registry)

    # -- execution -------------------------------------------------------------
    def system_names(self) -> tuple[str, ...]:
        """Requested system names, deduplicated, defaulting to all built-ins."""
        return tuple(dict.fromkeys(self.systems or default_system_names()))

    def workloads(self) -> Iterator[tuple[Scenario, MoELayerWorkload]]:
        """Yield one ``(scenario, workload)`` pair per unique grid point.

        Repeated scenarios are collapsed, so a workload is built — and a
        scenario executed — exactly once no matter how the grid was
        assembled."""
        for scenario in dict.fromkeys(self.scenarios):
            yield scenario, scenario.build_workload()

    def run(
        self,
        level: str = "layer",
        on_skip: Callable[[SkipRecord], None] | None = None,
        workers: int | None = None,
        executor: str = "thread",
    ) -> ResultSet:
        """Execute every (scenario, system) pair and collect a ResultSet.

        ``level="layer"`` times one MoE layer per pair; ``level="model"``
        times the full forward pass (Figure 9's convention) and fills
        ``model_timing`` on each row.  Unsupported pairs become
        :class:`SkipRecord` entries instead of vanishing.

        Each unique scenario is one task — its workload built once, its
        systems run in sequence — handed to :func:`run_tasks`:
        ``workers`` > 1 runs scenarios on that many threads, or worker
        processes with ``executor="process"`` (which requires the
        default registry).  Rows and skips (and so every export) come
        out in grid order whatever the worker kind, and ``on_skip``
        fires for each skip in that same order, as each scenario's
        outcome arrives.
        """
        if level not in ("layer", "model"):
            raise ValueError(f"level must be 'layer' or 'model', got {level!r}")
        if level == "layer" and any(
            s.stragglers is not None and not s.stragglers.is_uniform
            for s in self.scenarios
        ):
            # The MoE layer timing is priced on the bottleneck rank and
            # never sees the straggler spec; running such a grid at
            # layer level would export baseline numbers labelled as
            # straggler measurements.
            raise ValueError(
                "straggler-swept grids must run at level='model' (the "
                "per-rank schedule graph is a whole-model construct; "
                "layer timings are straggler-independent)"
            )
        names = self.system_names()
        scenarios = tuple(dict.fromkeys(self.scenarios))
        payloads = [(s, level, names, self.registry) for s in scenarios]
        rows: list[ResultRow] = []
        skips: list[SkipRecord] = []
        for point_rows, point_skips in run_tasks(
            _run_point, payloads, workers, executor, self.registry
        ):
            rows.extend(point_rows)
            skips.extend(point_skips)
            if on_skip is not None:
                for record in point_skips:
                    on_skip(record)
        return ResultSet(
            rows=tuple(rows),
            skips=tuple(skips),
            grid=scenarios,
            manifest=capture("experiment", scenarios, names),
        )
