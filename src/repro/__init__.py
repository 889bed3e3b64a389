"""repro — reproduction of COMET (MLSys 2025).

COMET: Fine-grained Computation-communication Overlapping for
Mixture-of-Experts (Zhang et al., ByteDance Seed / SJTU).

The package simulates multi-GPU MoE layer execution at GEMM-tile
granularity and implements five execution systems over a shared hardware
and cost substrate: Megatron-Cutlass, Megatron-TE, FasterMoE, Tutel, and
COMET itself (shared-tensor dependency resolving + rescheduling +
thread-block-specialised fused kernels with adaptive workload
assignment).

Quickstart — the declarative experiment API.  Systems are addressable by
registry name, sweeps are cartesian grids, and results come back as a
queryable :class:`ResultSet`::

    from repro import ExperimentSpec

    spec = ExperimentSpec.grid(
        models="mixtral",             # or a MoEConfig / list of either
        clusters="h800",              # or a ClusterSpec / list
        strategies="sweep",           # every TP x EP split, or [(1, 8), ...]
        tokens=(4096, 16384),
        systems=("megatron-cutlass", "comet"),
    )
    results = spec.run()              # one workload per grid point,
                                      # shared across systems
    print(results.mean_speedup_over("Megatron-Cutlass"))
    best = results.filter(tokens=16384).best()
    print(best.system, best.layer_ms)
    print(results.skipped)            # unsupported pairs, with reasons

The imperative layer underneath remains available::

    from repro import (
        MIXTRAL_8X7B, ParallelStrategy, h800_node, make_workload,
        Comet, MegatronCutlass, compare_systems,
    )

    workload = make_workload(
        MIXTRAL_8X7B, h800_node(), ParallelStrategy(tp_size=1, ep_size=8),
        total_tokens=16384,
    )
    timings = compare_systems([MegatronCutlass(), Comet()], workload)

New systems join the registry (and the CLI) with a decorator::

    from repro import MoESystem, register_system

    @register_system("my-system")
    class MySystem(MoESystem):
        name = "My-System"
        ...

Online serving.  :mod:`repro.serve` layers a request-level inference
simulator on top of the per-layer timings: seeded traffic generators
(Poisson / bursty / diurnal / replay), a continuous-batching scheduler
with pluggable admission policies, and TTFT/TPOT/goodput SLO metrics —
the latency-bound workload class, next to the throughput-bound sweeps
above.  Every registered system is servable through the same names::

    from repro import ServeSpec, TraceSpec

    spec = ServeSpec.grid(
        models="mixtral",
        traces=TraceSpec(kind="poisson", rps=40, duration_s=10),
        policies="fcfs",                  # or "spf" / "slo"
        slo_ttft_ms=500,
        systems=("comet", "tutel", "megatron"),
    )
    results = spec.run()                  # same trace replayed per system
    print(results.goodput_by_system())    # SLO-attaining requests per sec
    results.to_csv("serving.csv")

See ``examples/online_serving.py`` for a walkthrough and
``python -m repro serve --help`` for the CLI equivalent.

Fleet serving — multi-replica clusters.  :mod:`repro.fleet` scales the
serving simulator from one engine to a *fleet*: N continuous-batching
replicas (optionally on heterogeneous clusters or with distinct
:class:`StragglerSpec` s) behind a front-door router
(:data:`repro.fleet.ROUTER_REGISTRY`: ``round_robin``, ``least_queue``,
``session_affinity``, ``power_of_two``), with queue-driven autoscaling
(warm-up delay, churn accounting), replica failure/recovery injection,
and prefill/decode-disaggregated pools (``replicas="2p+2d"``)::

    from repro import AutoscalerSpec, FleetSpec, TraceSpec

    spec = FleetSpec.grid(
        models="mixtral",
        replicas=4,                        # or "2p+2d", or ReplicaSpec(...)
        routers=("round_robin", "power_of_two"),
        traces=TraceSpec(kind="bursty", rps=150, duration_s=4),
        autoscalers=AutoscalerSpec(min_replicas=1),   # None = static fleet
        systems="comet",
    )
    results = spec.run()                   # FleetResultSet
    print(results.goodput_by_router())     # fleet-level SLO goodput
    report = results.filter(router="power_of_two").best_goodput()
    print(report.goodput_per_gpu, report.mean_utilization,
          report.autoscaler_churn)

A 1-replica round-robin fleet decomposes to the bare serving engine and
is *bit-identical* to it (``==`` on the record tuples — the equivalence
tests assert it); state-dependent routers, autoscaling, failures, and
disaggregation co-simulate all replicas in one event loop, still fully
deterministic.  ``router``/``replicas`` export columns appear only when
those axes are swept, per the one-predicate schema rule shared with
every other export.  See ``examples/fleet_serving.py`` and
``python -m repro fleet --help``.

Faults and resilience — degradation, costed KV migration, remediation.
:mod:`repro.faults` turns the fleet from a failure injector into a
resilience testbed: a :class:`FaultPlan` schedules crashes, soft
time-varying degradation (a replica's effective straggler spec becomes
a step function over the trace), and migration-link brownouts; a
:class:`MigrationSpec` prices prefill→decode KV handoffs and post-crash
context re-dispatch over the inter-replica link (replacing the
free-handoff lower bound); and a :class:`ResilienceSpec` runs the
detect→drain→recover loop — windowed health detection with router
probation/eviction, front-door deadlines with bounded seeded retries,
and SLO-aware shedding::

    from repro import (
        DegradeEvent, FaultPlan, FleetSpec, MigrationSpec,
        ResilienceSpec, TraceSpec,
    )

    plan = FaultPlan(degrades=(
        DegradeEvent(replica=0, t0_ms=500, t1_ms=4000,
                     compute_mult=4.0, comm_mult=4.0),
    ))
    spec = FleetSpec.grid(
        models="mixtral", replicas=3, systems="comet",
        traces=TraceSpec(kind="poisson", rps=70, duration_s=4),
        faults=plan,
        resilience=(None, ResilienceSpec(slow_factor=1.5)),
        migrations=MigrationSpec(),        # KV bytes ride the link
    )
    results = spec.run()
    for report in results:                 # detector vs no detector
        print(report.resilience_label or "none",
              report.ttft_percentiles()["p99"],
              report.timed_out, report.shed, report.probations)

Every request resolves as exactly one of completed / timed-out / shed /
unserved (the conservation tests enforce the partition), everything is
deterministic under a seed, and a fleet with no faults and no
resilience stays bit-identical to the plain fleet simulator.  The
resilience export columns follow the same swept-axis gating rule.  See
``examples/resilient_fleet.py`` and the ``--failures`` degrade grammar,
``--timeout-ms``/``--retry``/``--shed``/``--detect``/``--kv-migration``
on ``python -m repro fleet --help``.

Whole-model schedule graph and overlap policies.  :mod:`repro.graph`
lifts the per-layer timings into a cross-layer IR: every layer lowers
(via :meth:`MoESystem.lower_layer`) into typed nodes — attention, gate,
dispatch, expert GEMM, combine, grad-sync, optimizer — tagged with
compute/comm resource streams, and a deterministic list scheduler (with
a discrete-event reference executor in :mod:`repro.oracles` checked to
exact float equality) computes end-to-end makespans under three
**overlap policies**, a new sweep axis::

    from repro import (
        MIXTRAL_8X7B, Comet, ExperimentSpec, ParallelStrategy, h800_node,
        run_model,
    )

    cluster, strategy = h800_node(), ParallelStrategy(tp_size=1, ep_size=8)
    per_layer = run_model(Comet(), MIXTRAL_8X7B, cluster, strategy, 4096)
    cross = run_model(Comet(), MIXTRAL_8X7B, cluster, strategy, 4096,
                      overlap_policy="cross_layer")   # Lancet-style
    short = run_model(Comet(), MIXTRAL_8X7B, cluster, strategy, 4096,
                      overlap_policy="shortcut")      # ScMoE-style
    print(per_layer.total_ms, cross.makespan_ms, short.makespan_ms)

    spec = ExperimentSpec.grid(
        models="mixtral", strategies=[(1, 8)], tokens=4096,
        overlap_policies=("per_layer", "cross_layer", "shortcut"),
        systems=("comet", "megatron-cutlass"),
    )
    results = spec.run(level="model")   # policy column in every export

``per_layer`` reproduces the legacy additive totals *byte-identically*
(the equivalence tests assert ``==`` on the floats), so existing numbers
never move; ``cross_layer`` overlaps each layer's combine with the next
layer's attention (plus bucketed gradient all-reduce in training) and
``shortcut`` additionally overlaps dispatch with the dense path.  The
same knob serves online: ``ServeScenario(..., overlap_policy=...)`` (CLI
``repro serve --overlap-policy``), and ``repro model --report`` prints
the critical path through the scheduled graph.  See
``examples/cross_layer_overlap.py``.

Stragglers and skew — per-rank schedule graphs.  A synchronous MoE step
is paced by its *slowest* rank: every dispatch/combine all-to-all (and
the gradient all-reduce) is a barrier.  A :class:`StragglerSpec` carries
per-rank compute/comm/expert-load multipliers and turns the lowering
per-rank: one compute+comm stream pair per rank, cross-rank dependency
edges at every collective, ranks sharing a multiplier triple sharing one
lowered phase tuple::

    from repro import StragglerSpec, run_model

    slow = StragglerSpec.slow_rank(8, rank=0, compute_mult=1.5)
    timing = run_model(Comet(), MIXTRAL_8X7B, cluster, strategy, 4096,
                       stragglers=slow)
    print(timing.makespan_ms, timing.rank_makespans(), timing.imbalance_us)

    spec = ExperimentSpec.grid(
        models="mixtral", strategies=[(1, 8)], tokens=4096,
        stragglers=(1.0, 1.5), systems="comet",
    )
    results = spec.run(level="model")   # 'stragglers' column when swept

Scenario families: ``StragglerSpec.slow_rank`` (one throttled device),
``StragglerSpec.degraded_link`` (a rank's NIC demoted to another link
tier, e.g. :data:`repro.hw.multinode.IB_400G`), and
``StragglerSpec.skewed_placement`` (per-rank expert load from
temporally correlated routing).  **Uniform-case bit identity is a
guarantee**: the uniform spec (all multipliers 1.0) lowers to per-rank
graphs whose scheduled makespan equals the single-rank graph's makespan
``==``-exactly for every system and policy — each rank's chain performs
the same IEEE-754 accumulations and the barrier maxima take maxima of
bit-equal values — so opting into the per-rank model never moves a
balanced number (the straggler test suite asserts it).  The same knob
serves online (``StepCostModel(..., stragglers=...)``, CLI ``repro
serve --straggler-mult``) and sweeps offline (``repro sweep
--straggler-mult 1.0 1.5``; ``repro model --stragglers 1.5 --report``
prints per-rank makespans, the imbalance, and the straggler critical
path).  See ``examples/straggler_sweep.py``.

Performance architecture.  Simulation speed is a feature: the same
``MoESystem.time_layer`` core prices figure grids, training steps, and
tens of thousands of serving iterations, so :mod:`repro.perf` layers
fast paths over the whole stack — each one verified *bit-identical*
against the slow path it replaces (the oracle table enforces it, and
``benchmarks/bench_sim_speed.py`` measures the speedup):

* **Analytic list scheduling** — the layer0 fused kernel's per-tile
  heapq loop collapses to a scan of the one server that finishes last
  (:func:`repro.kernels.fused.layer0_makespan_analytic`); the heapq
  version prices traced runs, which need per-block completion times.
* **Batched ranks and rank deduplication** — COMET prices all of a
  layer's ranks in one call per fused kernel, one row per *distinct*
  rank (TP peers share layer0 schedules; symmetric routings collapse
  further), and a division-point sweep prices every variant the same
  way, one row per ``nc``.
* **Balanced routing from uniform draws** — a balanced plan takes each
  token's top-k experts from the uniform draws under its Gumbel noise
  (:mod:`repro.moe.routing`): the same plan and generator state for
  less work.  Those experts are a prefix of one stream per (experts,
  top-k, seed), so every balanced plan of a seed is cut from the rows
  drawn once (:class:`repro.moe.routing.ExpertStream`), with its
  weights drawn at its own stream offset.
* **Fingerprints and caches** — ``MoESystem.fingerprint()`` +
  ``MoELayerWorkload.fingerprint()`` key the bounded, instrumented
  :data:`repro.perf.TIMING_CACHE`; workloads are shared process-wide
  through :data:`repro.perf.WORKLOAD_CACHE`, and their read-only
  routing plans through :data:`repro.perf.ROUTING_CACHE`, keyed by
  (experts, top-k, tokens, imbalance, seed) alone, so every TP x EP
  split of a model routes one plan.  COMET's division-point sweeps are
  shared by (system, workload, layer) through
  :data:`repro.perf.NC_SWEEP_CACHE`, while each instance still picks
  which workload records a token bucket.  Every cache exposes hit/miss
  counters (``repro sweep/serve ... --report``) and ``clear()``, and
  computes each key once even when thread workers miss it together,
  so a threaded run's counters match a serial run's.
* **One lookup per serving step** — a serving cost model prices each
  batch-token bucket once and answers every later step in it with one
  dict lookup by bucket number
  (:meth:`repro.serve.engine_adapter.StepCostModel.step_ms_at`).
* **Fast serving loop** — the continuous-batching DES is replayed by a
  sequential transcription with identical event ordering, and each
  sequence retires from a completion map filed at admission.
* **One fleet loop** — the fleet co-simulation pops a heap of typed
  timers in the DES queue's own order instead of resuming generator
  processes, and power-of-two routers draw their probes 256 pairs per
  generator call (:mod:`repro.oracles.fleet_des` keeps the processes
  and the scalar draws it must equal).
* **Columnar request records** — completions, step samples and routing
  decisions are appended as plain row tuples and become numpy columns
  (:class:`repro.serve.metrics.Table`) once per run; every report
  metric is one vectorised pass over them, and ``RequestRecord``/
  ``TimelinePoint``/``DispatchRecord`` objects are built only when a
  caller iterates a table.
* **Graph symmetry reduction** — rank-blocked multi-rank graphs fold
  exchangeable ranks to one representative stream pair per straggler
  equivalence class before scheduling
  (:func:`repro.graph.scheduler.reduce_symmetry`): a world-64 graph
  with one slow rank schedules 2 ranks and replicates the start/finish
  floats back out, bit for bit.
* **Batched grid scheduling** — chain-compatible topologies compile
  once per :func:`repro.perf.topology_key` into a max/add recurrence
  (:mod:`repro.graph.batch`); :func:`repro.graph.batch.schedule_batch`
  replays it across a whole ``(batch, nodes)`` duration matrix in
  numpy.  ``benchmarks/bench_graph_speed.py`` enforces the >= 10x
  world-64 straggler-grid floor with exact output equality.
* **Parallel grids** — ``ExperimentSpec.run(workers=N)`` and
  ``ServeSpec.run(workers=N)`` execute grid points on threads with
  row ordering identical to the serial run (CLI: ``--workers N``);
  add ``executor="process"`` (CLI: ``--executor process``) to run the
  points in worker *processes* instead — specs travel by pickle, rows
  come back in serial order, and each worker's cache counters merge
  into :func:`repro.perf.cache_stats` (``--report`` shows the
  per-process totals).
* **Import on use** — every package ``__init__`` but
  :mod:`repro.systems` is a PEP 562 name table (:mod:`repro._lazy`),
  and each spec's ``run()``, each scenario's ``run_system()`` and each
  CLI subcommand imports its engines, schedulers, report classes and
  renderers where it runs.  ``import repro`` loads the pricing tier and
  the five systems (their import order is :data:`SYSTEM_REGISTRY`'s),
  a paper-figure run compiles none of the serving and fleet engines,
  the DES kernel or the trace and metrics renderers, and the
  module-level import graph has no cycle (``tests/test_import_graph.py``).

:func:`repro.oracles.reference_paths` swaps every fast path for its
reference and bypasses the caches — a test and benchmark tool that
nothing on the simulation path imports::

    from repro import ExperimentSpec, oracles, perf

    spec = ExperimentSpec.grid(
        models="mixtral", strategies=[(1, 8)], tokens=(2048, 4096),
        systems=("megatron-cutlass", "comet"),
    )
    with oracles.reference_paths():   # the references, nothing cached
        slow = spec.run()
    fast = spec.run(workers=2)   # byte-identical ResultSet, much faster
    wide = spec.run(workers=2, executor="process")   # same bytes again
    assert slow.to_json() == fast.to_json() == wide.to_json()
    print(perf.cache_stats())

Observability.  :mod:`repro.obs` renders what the simulators already
computed, after the run — it never instruments the computation itself,
so observing a run cannot change it (the identity tests render every
trace and a metrics snapshot, and assert the export bytes and the
reports are unchanged).  Three pillars:

* **Timelines** — post-hoc builders turn a schedule graph, a serving
  report, or a fleet report into a Chrome/Perfetto trace with counter
  tracks (queue depth, batch tokens), flow arrows (router → replica),
  per-rank / per-replica process grouping, and instant markers for
  autoscale / failure events::

      from repro import FleetSpec, TraceSpec, obs

      report = FleetSpec.grid(
          replicas=4, systems="comet",
          traces=TraceSpec(kind="poisson", rps=40, duration_s=5),
      ).run().reports[0]
      tracer = obs.trace_fleet_report(report)
      tracer.save_chrome_trace("fleet.json")      # open in ui.perfetto.dev
      obs.validate_chrome_trace(tracer.to_chrome_trace())

* **Metrics** — :class:`~repro.obs.metrics.MetricsRegistry` unifies
  cache hit rates, queue/batch stats, and autoscaler churn into one
  snapshot: ``obs.snapshot_for(results)`` for any result set.
* **Provenance** — every ``*Spec.run()`` result carries a deterministic
  :class:`~repro.obs.manifest.RunManifest` (spec fingerprint, seeds,
  version), embedded in ``to_json()`` exports.

CLI: ``--trace-out`` and ``--metrics-out`` on ``model`` / ``serve`` /
``fleet``, and ``repro trace`` for one rank's fused kernels.  See
``examples/trace_timelines.py``.

Correctness tooling.  Every fast path and every cache above is trusted
only because it equals an oracle exactly.  The pairs are declared once,
as the rows of one table in ``tests/test_oracles.py``, and one
hypothesis harness runs them: the analytic layer0 scheduler, COMET's
batched and deduplicated ranks, the graph recurrences and symmetry
fold, the serve fast loop, the completion-map step kernel under the
fleet's cores, the fleet's decomposed path, its timer loop and block
probe draws, and each cache in
:mod:`repro.perf` (a cache row changes one input field at a time, so a
field missing from a cache key fails it).  The oracles themselves live
in :mod:`repro.oracles`, which nothing on the simulation path imports.
Coverage tests tie the table to the code: every function named like a
fast path, every cache, and every fingerprinted class must appear in
some row.  ``tests/test_conventions.py`` checks the two
conventions that equality rests on.  Every ``*Spec`` is a top-level
frozen dataclass whose live instances hash and survive a pickle round
trip.  The simulators and oracles never read a wall clock, draw ambient
entropy or iterate a bare set, and their exports are identical under
any hash seed.  Every numeric spec field declares its domain once, on
the field (:func:`repro.domains.knob`): construction rejects NaN,
infinities, bools, fractional counts and out-of-bound values with an
error that names the field, the CLI reads its numeric flags' types,
defaults and help from the same declarations, and
``tests/test_point_checks.py`` walks every declared field.  Style is
pinned separately by ruff (``pyproject.toml``: pycodestyle/pyflakes/isort
subset).
"""

# The systems register themselves in SYSTEM_REGISTRY as they are
# imported, so this one eager import fills the registry, in
# repro.systems' order, before any caller reads it.
from repro import systems  # noqa: F401
from repro._lazy import lazy_exports

__version__ = "1.7.0"

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "CLUSTER_REGISTRY": "repro.api.registry",
    "MODEL_REGISTRY": "repro.api.registry",
    "register_system": "repro.api.registry",
    "SYSTEM_REGISTRY": "repro.api.registry",
    "SystemRegistry": "repro.api.registry",
    "UnknownNameError": "repro.api.registry",
    "ResultRow": "repro.api.results",
    "ResultSet": "repro.api.results",
    "SkipRecord": "repro.api.results",
    "ExperimentSpec": "repro.api.scenario",
    "Scenario": "repro.api.scenario",
    "SimulationBudgetExceeded": "repro.api.scenario",
    "MigrationSpec": "repro.faults.migration",
    "OutcomeRecord": "repro.faults.migration",
    "BrownoutEvent": "repro.faults.plan",
    "DegradeEvent": "repro.faults.plan",
    "FailureEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "ResilienceSpec": "repro.faults.resilience",
    "FleetReport": "repro.fleet.metrics",
    "FleetResultSet": "repro.fleet.metrics",
    "ROUTER_REGISTRY": "repro.fleet.router",
    "AutoscalerSpec": "repro.fleet.spec",
    "FleetScenario": "repro.fleet.spec",
    "FleetSpec": "repro.fleet.spec",
    "ReplicaSpec": "repro.fleet.spec",
    "LayerPhase": "repro.graph.ir",
    "NodeKind": "repro.graph.ir",
    "ScheduleGraph": "repro.graph.ir",
    "OVERLAP_POLICIES": "repro.graph.lower",
    "GraphSchedule": "repro.graph.scheduler",
    "list_schedule": "repro.graph.scheduler",
    "StragglerSpec": "repro.graph.straggler",
    "ClusterSpec": "repro.hw.cluster",
    "GpuSpec": "repro.hw.gpu",
    "LinkSpec": "repro.hw.link",
    "h800_node": "repro.hw.presets",
    "l20_node": "repro.hw.presets",
    "MIXTRAL_8X7B": "repro.moe.config",
    "MoEConfig": "repro.moe.config",
    "PAPER_MODELS": "repro.moe.config",
    "PHI35_MOE": "repro.moe.config",
    "QWEN2_MOE": "repro.moe.config",
    "ExpertWeights": "repro.moe.experts",
    "TopKGate": "repro.moe.gate",
    "reference_moe_forward": "repro.moe.reference",
    "RoutingPlan": "repro.moe.routing",
    "obs": "repro.obs",
    "ParallelStrategy": "repro.parallel.strategy",
    "perf": "repro.perf",
    "compare_systems": "repro.runtime.executor",
    "ModelTiming": "repro.runtime.model_runner",
    "run_model": "repro.runtime.model_runner",
    "overlap_report": "repro.runtime.profiler",
    "run_training_step": "repro.runtime.training",
    "TrainStepTiming": "repro.runtime.training",
    "make_workload": "repro.runtime.workload",
    "MoELayerWorkload": "repro.runtime.workload",
    "StepCostModel": "repro.serve.engine_adapter",
    "ServeReport": "repro.serve.metrics",
    "ServeResultSet": "repro.serve.metrics",
    "ServeScenario": "repro.serve.scenario",
    "ServeSpec": "repro.serve.scenario",
    "ContinuousBatchingScheduler": "repro.serve.scheduler",
    "Request": "repro.serve.traffic",
    "TraceSpec": "repro.serve.traffic",
    "ALL_SYSTEMS": "repro.systems",
    "BASELINE_SYSTEMS": "repro.systems",
    "LayerTiming": "repro.systems.base",
    "MoESystem": "repro.systems.base",
    "UnsupportedWorkload": "repro.systems.base",
    "Comet": "repro.systems.comet",
    "FasterMoE": "repro.systems.fastermoe",
    "MegatronCutlass": "repro.systems.megatron",
    "MegatronTE": "repro.systems.megatron",
    "Tutel": "repro.systems.tutel",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
