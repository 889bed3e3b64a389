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

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.api.registry import (
    SYSTEM_REGISTRY,
    SystemRegistry,
    resolve_cluster,
    resolve_model,
)
from repro.api.results import ResultRow, ResultSet, SkipRecord
from repro.graph.straggler import StragglerSpec, check_multiplier
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.parallel.strategy import ParallelStrategy
from repro.runtime.executor import compare_systems
from repro.runtime.model_runner import run_model
from repro.runtime.workload import MoELayerWorkload
from repro.systems import ALL_SYSTEMS
from repro.systems.base import UnsupportedWorkload

__all__ = ["ExperimentSpec", "Scenario", "default_system_names"]


def default_system_names() -> tuple[str, ...]:
    """Registry slugs of the built-in systems, in the paper's plotting
    order (Megatron-TE first, Comet last)."""
    return tuple(cls.slug for cls in ALL_SYSTEMS)


def _check_executor(executor: str) -> None:
    if executor not in ("thread", "process"):
        raise ValueError(
            f"executor must be 'thread' or 'process', got {executor!r}"
        )


def _run_scenario_task(payload):
    """Process-pool task: one grid point, executed in a worker process.

    Module-level (picklable by reference); rebuilds a single-scenario
    spec against the worker's global registry and ships the rows back
    with the worker's own cache counters, so the parent can merge them
    into :func:`repro.perf.cache_stats`.
    """
    import os

    from repro import perf

    scenario, level, names = payload
    spec = ExperimentSpec(scenarios=(scenario,), systems=names)
    rows, skips = spec._run_scenario(scenario, level, names)
    return rows, skips, os.getpid(), perf.cache_stats(include_workers=False)


@dataclass(frozen=True)
class Scenario:
    """One grid point: everything that determines a workload.

    Scenarios are frozen and hashable, so they key workload caches and
    :class:`~repro.api.results.ResultSet` queries directly.
    """

    config: MoEConfig
    cluster: ClusterSpec
    strategy: ParallelStrategy
    tokens: int
    imbalance_std: float = 0.0
    seed: int = 0
    overlap_policy: str = "per_layer"
    stragglers: StragglerSpec | None = None

    def __post_init__(self) -> None:
        from repro.graph.lower import check_policy

        check_policy(self.overlap_policy)
        if (
            self.stragglers is not None
            and self.stragglers.num_ranks != self.cluster.world_size
        ):
            raise ValueError(
                f"straggler spec covers {self.stragglers.num_ranks} ranks, "
                f"cluster {self.cluster.name} has {self.cluster.world_size}"
            )
        if self.strategy.world_size != self.cluster.world_size:
            raise ValueError(
                f"strategy {self.strategy} needs world size "
                f"{self.strategy.world_size}, cluster {self.cluster.name} "
                f"has {self.cluster.world_size}"
            )
        self.strategy.validate_model(self.config.num_experts, self.config.ffn_size)
        if self.tokens <= 0 or self.tokens % self.cluster.world_size != 0:
            raise ValueError(
                f"tokens {self.tokens} must be positive and divide evenly "
                f"over {self.cluster.world_size} ranks"
            )
        if self.imbalance_std < 0:
            raise ValueError(f"imbalance_std must be >= 0, got {self.imbalance_std}")

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


def _as_sequence(value: Any, scalar_types: tuple[type, ...]) -> tuple:
    """Treat ``value`` as one axis: scalars become 1-tuples."""
    if isinstance(value, scalar_types) or not isinstance(value, Iterable):
        return (value,)
    return tuple(value)


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
    unswept grid.
    """
    entries = _as_sequence(value, (StragglerSpec, int, float, type(None)))
    out: list[StragglerSpec | None] = []
    for entry in entries:
        if entry is None:
            out.append(None)
        elif isinstance(entry, StragglerSpec):
            out.append(None if entry.is_uniform else entry)
        elif isinstance(entry, (int, float)):
            mult = check_multiplier(entry)
            out.append(
                None
                if mult == 1.0
                else StragglerSpec.slow_rank(world_size, compute_mult=mult)
            )
        else:
            raise ValueError(
                f"straggler axis entries must be None, a StragglerSpec, or "
                f"a slow-rank multiplier; got {entry!r}"
            )
    return tuple(out)


def _as_strategies(value: Any, world_size: int) -> tuple[ParallelStrategy, ...]:
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
    if len(items) == 2 and all(isinstance(v, int) for v in items):
        return (ParallelStrategy(tp_size=items[0], ep_size=items[1]),)
    out = []
    for item in items:
        if isinstance(item, ParallelStrategy):
            out.append(item)
        else:
            tp, ep = item
            out.append(ParallelStrategy(tp_size=tp, ep_size=ep))
    return tuple(out)


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
        reg = registry if registry is not None else SYSTEM_REGISTRY
        model_list = [
            resolve_model(m) for m in _as_sequence(models, (MoEConfig, str))
        ]
        cluster_list = [
            resolve_cluster(c)
            for c in _as_sequence(clusters, (ClusterSpec, str))
        ]
        token_list = [int(t) for t in _as_sequence(tokens, (int,))]
        std_list = [float(s) for s in _as_sequence(imbalance_stds, (int, float))]
        seed_list = [int(s) for s in _as_sequence(seeds, (int,))]
        overlap_list = list(_as_sequence(overlap_policies, (str,)))

        scenarios = []
        for config in model_list:
            for cluster in cluster_list:
                straggler_list = _as_straggler_axis(
                    stragglers, cluster.world_size
                )
                for strategy in _as_strategies(strategies, cluster.world_size):
                    for token_count in token_list:
                        for std in std_list:
                            for seed in seed_list:
                                for overlap in overlap_list:
                                    for spec in straggler_list:
                                        scenarios.append(
                                            Scenario(
                                                config=config,
                                                cluster=cluster,
                                                strategy=strategy,
                                                tokens=token_count,
                                                imbalance_std=std,
                                                seed=seed,
                                                overlap_policy=overlap,
                                                stragglers=spec,
                                            )
                                        )
        if systems is None:
            names: tuple[str, ...] = ()
        else:
            names = tuple(
                reg.resolve(n) for n in _as_sequence(systems, (str,))
            )
        return cls(scenarios=tuple(scenarios), systems=names, registry=registry)

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

    def _run_scenario(
        self,
        scenario: Scenario,
        level: str,
        names: tuple[str, ...],
        on_skip: Callable[[SkipRecord], None] | None = None,
    ) -> tuple[list[ResultRow], list[SkipRecord]]:
        """Execute one grid point: build its workload, run every system.

        Self-contained (no shared mutable state beyond the thread-safe
        perf caches), so scenarios can execute on worker threads; the
        caller reassembles results in grid order either way.  ``on_skip``
        fires live as each pair is skipped (serial runs pass it through;
        parallel runs defer to the ordered reassembly instead).
        """
        from repro import perf

        registry = self.registry if self.registry is not None else SYSTEM_REGISTRY
        workload = scenario.build_workload()
        systems = [registry.create(name) for name in names]
        rows: list[ResultRow] = []
        skips: list[SkipRecord] = []

        def record_skip(record: SkipRecord) -> None:
            skips.append(record)
            if on_skip is not None:
                on_skip(record)

        if level == "layer":
            timings = compare_systems(
                systems,
                workload,
                on_skip=lambda system, reason: record_skip(
                    SkipRecord(scenario=scenario, system=system.name, reason=reason)
                ),
                timer=perf.cached_time_layer,
            )
            for system in systems:
                timing = timings.get(system.name)
                if timing is None:
                    continue
                rows.append(
                    ResultRow(
                        scenario=scenario,
                        system=system.name,
                        timing=timing,
                        workload=workload,
                    )
                )
        else:
            for system in systems:
                try:
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
                except UnsupportedWorkload as exc:
                    record_skip(
                        SkipRecord(
                            scenario=scenario, system=system.name, reason=str(exc)
                        )
                    )
                    continue
                rows.append(
                    ResultRow(
                        scenario=scenario,
                        system=system.name,
                        timing=model_timing.moe,
                        model_timing=model_timing,
                        workload=workload,
                    )
                )
        return rows, skips

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
        :class:`SkipRecord` entries instead of vanishing; ``on_skip`` is
        additionally invoked per skip, for live annotation.

        ``workers`` > 1 executes grid points on that many workers —
        threads by default, or worker *processes* with
        ``executor="process"`` (sidestepping the GIL; every spec object
        is pickle-stable, the round-trip tests enforce it).  Row and
        skip ordering (and therefore every export) is identical to the
        serial run: results are reassembled in grid order, and each
        scenario's systems still run in sequence on one worker.  In
        parallel mode ``on_skip`` fires during reassembly (grid order)
        rather than live.  Process mode requires the default registry
        (a custom ``registry`` lives only in this process) and merges
        each worker's cache counters into
        :func:`repro.perf.cache_stats`.
        """
        if level not in ("layer", "model"):
            raise ValueError(f"level must be 'layer' or 'model', got {level!r}")
        _check_executor(executor)
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
        scenarios = list(dict.fromkeys(self.scenarios))
        parallel = workers is not None and workers > 1 and len(scenarios) > 1
        if parallel and executor == "process":
            if self.registry is not None:
                raise ValueError(
                    "executor='process' requires the default registry "
                    "(a custom registry exists only in this process)"
                )
            from concurrent.futures import ProcessPoolExecutor

            from repro import perf

            payloads = [(s, level, names) for s in scenarios]
            outcomes = []
            with ProcessPoolExecutor(
                max_workers=workers, initializer=perf.process_worker_init
            ) as pool:
                for rows_, skips_, pid, stats in pool.map(
                    _run_scenario_task, payloads
                ):
                    perf.record_worker_stats(pid, stats)
                    outcomes.append((rows_, skips_))
        elif parallel:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes = list(
                    pool.map(
                        lambda s: self._run_scenario(s, level, names), scenarios
                    )
                )
        else:
            outcomes = [
                self._run_scenario(s, level, names, on_skip=on_skip)
                for s in scenarios
            ]

        rows: list[ResultRow] = []
        skips: list[SkipRecord] = []
        for scenario_rows, scenario_skips in outcomes:
            rows.extend(scenario_rows)
            skips.extend(scenario_skips)
            if parallel and on_skip is not None:
                for record in scenario_skips:
                    on_skip(record)
        from repro.obs import capture

        return ResultSet(
            rows=tuple(rows),
            skips=tuple(skips),
            grid=tuple(scenarios),
            manifest=capture("experiment", scenarios, names),
        )
