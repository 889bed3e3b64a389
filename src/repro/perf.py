"""Cross-stack performance layer: fast paths, fingerprints, bounded caches.

Everything in this module is an *accelerator*, never a semantics change:
each fast path and each cache is verified bit-identical against the
slow path it replaces — the oracle table in ``tests/test_oracles.py``
holds one row per flag and per cache, and fails if a flag or a cache has
no row — and :func:`disabled` restores the original serial behaviour
wholesale, which is also how ``benchmarks/bench_sim_speed.py`` measures
the speedup honestly.

Six switchable fast paths (see :class:`PerfConfig`):

* ``analytic_layer0`` — the vectorised wave scheduler in
  :mod:`repro.kernels.fused` replacing the per-tile heapq loop;
* ``rank_dedup`` — :class:`~repro.systems.comet.Comet` simulates each
  *distinct* per-rank schedule once instead of looping all ranks;
* ``timing_cache`` — the global :data:`TIMING_CACHE` memoising
  ``LayerTiming`` by ``(system fingerprint, workload fingerprint)``
  across grids, training steps, and serving runs;
* ``fast_serve_loop`` — the sequential transcription of the serving
  DES in :mod:`repro.serve.scheduler`, and the keyed
  :class:`~repro.serve.scheduler.ReplicaCore` step kernel under it and
  under every replica of the fleet co-simulation: sequences retire from
  a completion map keyed by step instead of a per-token count over
  every running sequence;
* ``graph_symmetry`` — rank-blocked multi-rank graphs fold
  exchangeable ranks to one representative per equivalence class
  before scheduling (:func:`repro.graph.scheduler.reduce_symmetry`);
* ``graph_batch`` — chain-compatible topologies schedule through the
  compiled max/add recurrence of :mod:`repro.graph.batch` instead of
  the heapq list scheduler, one compiled topology per
  :func:`topology_key` cached in :data:`GRAPH_BATCH_CACHE` (with both
  flags on, the symmetry fold itself is vectorised: cached block
  structure + ``np.unique`` rank classification + cached reduced
  recurrence); and the lowering builders of :mod:`repro.graph.lower`
  lower each topology once into a duration-free skeleton
  (:func:`lowered_skeleton`), so every later build only gathers its
  durations.

Cache layers live here:

* :data:`WORKLOAD_CACHE` — one :class:`~repro.runtime.workload.MoELayerWorkload`
  per (config, cluster, strategy, tokens, imbalance, seed), shared by
  scenario grids and every serving token bucket (this absorbs the old
  module-level ``_WORKLOAD_CACHE`` of :mod:`repro.serve.engine_adapter`,
  which grew without bound);
* :data:`TIMING_CACHE` — ``LayerTiming`` results keyed by fingerprints,
  so the same (system, workload) pair is simulated once no matter which
  entry point (grid / training step / serving bucket) asks;
* :data:`GRAPH_CACHE` — graph schedules keyed by topology and duration
  bits;
* :data:`GRAPH_BATCH_CACHE` — everything duration-free a graph
  topology needs, keyed by :func:`topology_key` or the builder token:
  lowered skeletons, compiled recurrences, block structures and reduced
  recurrences;
* :data:`STEP_COST_CACHE` — one serving step-cost model per system
  state and scenario shape;
* :data:`ROUTING_CACHE` — one read-only
  :class:`~repro.moe.routing.RoutingPlan` per (experts, top-k, tokens,
  imbalance, seed).  ``make_workload`` draws a plan from
  ``default_rng(seed)`` and reads nothing else of the model, the
  cluster or the TP x EP split, so that key is complete: every split
  of a model, and every model with the same (E, top-k), shares a plan;
* :data:`NC_SWEEP_CACHE` — COMET's division-point sweeps
  (:class:`~repro.kernels.assignment.SweepResult`) keyed by (system
  fingerprint, workload fingerprint, layer).  A sweep times the default
  variant library on the workload's bottleneck rank; the system
  fingerprint covers every knob the fused kernels read, and the
  workload fingerprint its shapes, hardware and routing realisation.

All are bounded LRU caches with hit/miss/eviction counters and an
explicit ``clear()``; :func:`cache_stats` aggregates them for the CLI's
``--report`` flag.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.kernels.assignment import SweepResult
    from repro.runtime.workload import MoELayerWorkload
    from repro.systems.base import LayerTiming, MoESystem
    from repro.systems.comet import Comet

__all__ = [
    "CONFIG",
    "GRAPH_BATCH_CACHE",
    "GRAPH_CACHE",
    "NC_SWEEP_CACHE",
    "ROUTING_CACHE",
    "STEP_COST_CACHE",
    "TIMING_CACHE",
    "WORKLOAD_CACHE",
    "BoundedCache",
    "PerfConfig",
    "TimingCache",
    "cache_stats",
    "cached_graph_schedule",
    "cached_time_layer",
    "clear_caches",
    "compiled_topology",
    "configure",
    "disabled",
    "lowered_skeleton",
    "process_worker_init",
    "record_worker_stats",
    "shared_nc_sweep",
    "shared_step_cost",
    "shared_workload",
    "time_layer_calls",
    "topology_key",
    "worker_process_count",
]


@dataclass
class PerfConfig:
    """Which fast paths are active.  All default on; tests and the
    benchmark baseline flip them off to recover the original serial
    behaviour exactly."""

    analytic_layer0: bool = True
    rank_dedup: bool = True
    timing_cache: bool = True
    fast_serve_loop: bool = True
    graph_symmetry: bool = True
    graph_batch: bool = True


CONFIG = PerfConfig()


@contextmanager
def configure(**flags: bool) -> Iterator[PerfConfig]:
    """Temporarily override :data:`CONFIG` flags (restored on exit)."""
    previous = {name: getattr(CONFIG, name) for name in vars(CONFIG)}
    for name, value in flags.items():
        if name not in previous:
            raise ValueError(f"unknown perf flag {name!r}")
        setattr(CONFIG, name, value)
    try:
        yield CONFIG
    finally:
        for name, value in previous.items():
            setattr(CONFIG, name, value)


@contextmanager
def disabled() -> Iterator[PerfConfig]:
    """All fast paths off: the pre-optimisation serial behaviour."""
    with configure(
        analytic_layer0=False,
        rank_dedup=False,
        timing_cache=False,
        fast_serve_loop=False,
        graph_symmetry=False,
        graph_batch=False,
    ) as config:
        yield config


class BoundedCache:
    """Thread-safe LRU cache with hit/miss/eviction instrumentation.

    ``maxsize`` bounds the entry count; inserting beyond it evicts the
    least recently used entry, so long-running processes (sweep servers,
    notebook sessions) cannot grow caches without bound.

    Every operation — lookups, the insert-plus-eviction loop of
    :meth:`put`, counter resets, and the :meth:`stats` snapshot — runs
    under one lock, so ``workers=N`` grids can hammer a cache from many
    threads and still observe a coherent state: ``size`` never exceeds
    ``maxsize``, counters never go backwards or negative, and a
    :meth:`stats` snapshot is internally consistent (its ``hit_rate``
    is computed from the same locked reads as its ``hits``/``misses``)
    rather than a torn mix of before/after values.
    """

    def __init__(self, maxsize: int, name: str = "cache"):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or ``None`` (which is never a stored value)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (evicting LRU entries past ``maxsize``); returns ``value``.

        The insert and the eviction loop are one atomic operation: no
        concurrent reader can observe the cache above ``maxsize`` or an
        eviction count mid-update.
        """
        if value is None:
            raise ValueError("BoundedCache cannot store None")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
        return value

    def _reset_locked(self) -> None:
        """Drop entries and counters; caller must hold ``_lock``."""
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        """Drop all entries and reset the counters (atomically)."""
        with self._lock:
            self._reset_locked()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def _stats_locked(self) -> dict[str, Any]:
        """Build the stats doc; caller must hold ``_lock``."""
        total = self.hits + self.misses
        return {
            "name": self.name,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }

    def stats(self) -> dict[str, Any]:
        """A consistent snapshot of size and counters (single lock hold)."""
        with self._lock:
            return self._stats_locked()


class TimingCache(BoundedCache):
    """``LayerTiming`` memo keyed by (system, workload) fingerprints.

    ``time_layer`` is the cached entry point; it also counts the
    *actual* ``MoESystem.time_layer`` invocations (cache misses plus
    every call made while the cache is disabled), which is the
    simulator-throughput metric the speed benchmark reports.
    """

    def __init__(self, maxsize: int = 4096, name: str = "timing"):
        super().__init__(maxsize, name=name)
        self.computed = 0  # real time_layer invocations (misses + bypasses)

    def time_layer(
        self, system: "MoESystem", workload: "MoELayerWorkload"
    ) -> "LayerTiming":
        if not CONFIG.timing_cache:
            with self._lock:
                self.computed += 1
            return system.time_layer(workload)
        # timing_key (not timing_state_token): systems whose timing is a
        # pure function of per-workload *resolved* state — e.g. COMET's
        # adaptive division points — return that state so equal-config
        # instances share entries across runs instead of cold-missing on
        # a per-instance epoch (any probe side effects run during key
        # resolution, exactly as an uncached call would run them).
        key = (
            system.fingerprint(),
            system.timing_key(workload),
            workload.fingerprint(),
        )
        timing = self.get(key)
        if timing is None:
            with self._lock:
                self.computed += 1
            timing = system.time_layer(workload)
            self.put(key, timing)
        return timing

    def clear(self) -> None:
        with self._lock:
            self._reset_locked()
            self.computed = 0

    def stats(self) -> dict[str, Any]:
        # One lock hold for the whole snapshot, so time_layer_calls is
        # read in the same critical section as the hit/miss counters.
        # (computed and misses are still bumped in *separate* critical
        # sections — a snapshot taken mid-miss can legitimately show
        # them one apart, so don't assert equality between them.)
        with self._lock:
            doc = self._stats_locked()
            doc["time_layer_calls"] = self.computed
        return doc


TIMING_CACHE = TimingCache(maxsize=4096, name="timing")
WORKLOAD_CACHE = BoundedCache(maxsize=256, name="workload")
GRAPH_CACHE = BoundedCache(maxsize=1024, name="graph")
GRAPH_BATCH_CACHE = BoundedCache(maxsize=256, name="graph_batch")
STEP_COST_CACHE = BoundedCache(maxsize=64, name="step-cost")
ROUTING_CACHE = BoundedCache(maxsize=256, name="routing")
NC_SWEEP_CACHE = BoundedCache(maxsize=1024, name="nc-sweep")
_CACHES = (
    TIMING_CACHE,
    WORKLOAD_CACHE,
    GRAPH_CACHE,
    GRAPH_BATCH_CACHE,
    STEP_COST_CACHE,
    ROUTING_CACHE,
    NC_SWEEP_CACHE,
)


def topology_key(graph: Any) -> tuple:
    """Cheap structural identity for the graph-level caches.

    The lowering builders stamp every graph with an O(1)
    ``topology_token`` covering everything node topology depends on
    (policy, layer count, rank count, per-position phase shape with its
    zero/nonzero activity pattern); hand-built graphs — and any graph
    mutated after building, which resets the token — fall back to the
    sha1 :meth:`~repro.graph.ir.ScheduleGraph.topology_fingerprint`.
    The two forms are prefix-tagged so they can never collide.
    """
    token = getattr(graph, "topology_token", None)
    if token is not None:
        return ("token", token)
    return ("sha1", graph.topology_fingerprint())


def compiled_topology(graph: Any) -> Any:
    """The :class:`repro.graph.batch.CompiledTopology` for ``graph``,
    through the bounded :data:`GRAPH_BATCH_CACHE`.

    Keyed by :func:`topology_key` (durations excluded), so every graph a
    sweep produces for one (model, policy, straggler-shape) point reuses
    one compiled recurrence.  With the ``graph_batch`` flag off the
    topology is compiled fresh and unrecorded.
    """
    from repro.graph.batch import compile_topology

    if not CONFIG.graph_batch:
        return compile_topology(graph)
    key = topology_key(graph)
    topology = GRAPH_BATCH_CACHE.get(("topo", key))
    if topology is None:
        topology = GRAPH_BATCH_CACHE.put(
            ("topo", key), compile_topology(graph, key)
        )
    return topology


def lowered_skeleton(token: tuple, lower: Callable[[], Any]) -> Any:
    """The lowering skeleton of a builder ``topology_token``, through the
    bounded :data:`GRAPH_BATCH_CACHE`.

    :mod:`repro.graph.lower` lowers each topology once per process —
    ``lower()`` runs on the first build only — and every later build of
    it only gathers its durations.  With the ``graph_batch`` flag off
    every build lowers a fresh, unrecorded skeleton.
    """
    if not CONFIG.graph_batch:
        return lower()
    key = ("skeleton", token)
    skeleton = GRAPH_BATCH_CACHE.get(key)
    if skeleton is None:
        skeleton = GRAPH_BATCH_CACHE.put(key, lower())
    return skeleton


def _schedule_plain(graph: Any) -> Any:
    """Schedule one graph via the fastest enabled per-graph path."""
    from repro.graph.scheduler import list_schedule

    if CONFIG.graph_batch:
        from repro.graph.batch import fast_schedule

        return fast_schedule(graph, compiled_topology(graph))
    return list_schedule(graph)


# GRAPH_BATCH_CACHE sentinels (BoundedCache cannot store None).
_NO_STRUCTURE = "no-structure"
_NOT_CHAIN = "not-chain"


def _cached_block_structure(graph: Any, key: tuple) -> Any:
    """:func:`repro.graph.scheduler.block_structure`, cached per topology."""
    from repro.graph.scheduler import block_structure

    entry = GRAPH_BATCH_CACHE.get(("sym", key))
    if entry is None:
        entry = GRAPH_BATCH_CACHE.put(
            ("sym", key), block_structure(graph) or _NO_STRUCTURE
        )
    return None if entry is _NO_STRUCTURE else entry


def _reduced_recurrence(graph: Any, key: tuple, k: int) -> Any:
    """Dependency structure of the compiled *reduced* topology for a
    class count ``k``, cached per (topology, k); ``None`` when the
    reduced graph is not chain-compatible.

    One compiled structure serves every rank→class assignment with the
    same ``k``: the cache is only consulted for structures whose
    ``reusable_deps`` flag proves the reduced dependency sets are
    assignment-independent (first-occurrence class labels ascend in rank
    order, so fully-covered barriers always map to all ``k``
    representatives of each dep block, and rank-local patterns map
    within the own class by construction).
    """
    from repro.graph.batch import compile_topology
    from repro.graph.scheduler import reduce_symmetry

    entry = GRAPH_BATCH_CACHE.get(("symred", key, k))
    if entry is None:
        symmetry = reduce_symmetry(graph)
        if symmetry is None or len(symmetry.reps) != k:
            payload = _NOT_CHAIN  # defensive: classification disagreed
        else:
            topology = compile_topology(
                symmetry.reduced, key=("reduced", key, k)
            )
            payload = topology.deps if topology.chain_ok else _NOT_CHAIN
        entry = GRAPH_BATCH_CACHE.put(("symred", key, k), payload)
    return None if entry is _NOT_CHAIN else entry


def _fast_symmetric_schedule(
    graph: Any, key: tuple, structure: Any, durations: Any = None
) -> Any:
    """Vectorised symmetry fold + compiled recurrence for one graph.

    All per-node work runs in C: the rank equivalence classes come from
    exact equality of each rank's duration *bit pattern* (the same
    partition the hex-signature loop in ``reduce_symmetry`` computes —
    one ``bytes`` signature per rank, grouped by dict), the recurrence
    runs over the k-class reduced dependency structure, and the
    expansion back to all ranks is one fancy-indexing gather.  Returns
    ``None`` when no reduction applies — callers fall back to the
    generic path, so every outcome stays bit-identical to
    :func:`~repro.graph.scheduler.list_schedule`.
    """
    from repro.graph.scheduler import GraphSchedule

    if not structure.reusable_deps:
        return None
    world = structure.world
    blocks = structure.blocks
    if durations is None:
        durations = np.asarray(graph.durations, dtype=np.float64)
    if durations.shape[0] != blocks * world:
        return None  # stale durations list (defensive; add() maintains it)
    matrix = durations.reshape(blocks, world)
    signatures = np.ascontiguousarray(matrix.T).tobytes()
    stride = blocks * 8  # one rank's duration bits
    reps: list[int] = []
    relabel: dict[bytes, int] = {}
    rep_index = [0] * world
    for rank in range(world):
        signature = signatures[rank * stride : (rank + 1) * stride]
        j = relabel.get(signature)
        if j is None:
            j = len(reps)
            relabel[signature] = j
            reps.append(rank)
        rep_index[rank] = j
    k = len(reps)
    if k >= world:
        return None  # every rank distinct: nothing to fold
    deps = _reduced_recurrence(graph, key, k)
    if deps is None:
        return None
    reduced_durations = matrix[:, reps].reshape(-1).tolist()
    reduced_n = blocks * k
    start = [0.0] * reduced_n
    finish = [0.0] * reduced_n
    for i, node_deps in enumerate(deps):
        begin = 0.0
        for d in node_deps:
            f = finish[d]
            if f > begin:
                begin = f
        start[i] = begin
        finish[i] = begin + reduced_durations[i]
    node_ids = np.arange(blocks * world)
    expand = (node_ids // world) * k + np.asarray(rep_index)[node_ids % world]
    return GraphSchedule(
        graph=graph,
        start_us=tuple(np.asarray(start)[expand].tolist()),
        finish_us=tuple(np.asarray(finish)[expand].tolist()),
    )


def _schedule_graph(graph: Any, durations: Any = None) -> Any:
    """Uncached scheduling dispatch: symmetry fold, then plain path.

    Every branch returns floats bit-identical to
    :func:`repro.graph.scheduler.list_schedule` on the full graph (the
    property suite enforces it); the flags only pick how much work that
    costs.
    """
    if CONFIG.graph_symmetry:
        if CONFIG.graph_batch:
            key = topology_key(graph)
            structure = _cached_block_structure(graph, key)
            if structure is None:
                return _schedule_plain(graph)  # known: not rank-blocked
            schedule = _fast_symmetric_schedule(graph, key, structure, durations)
            if schedule is not None:
                return schedule
        from repro.graph.scheduler import expand_symmetry, reduce_symmetry

        symmetry = reduce_symmetry(graph)
        if symmetry is not None:
            return expand_symmetry(
                graph, symmetry, _schedule_plain(symmetry.reduced)
            )
    return _schedule_plain(graph)


def cached_graph_schedule(graph: Any) -> Any:
    """Schedule a :class:`repro.graph.ir.ScheduleGraph` through the
    bounded :data:`GRAPH_CACHE`.

    Keyed by (:func:`topology_key`, duration bits): the structural key
    covers node order, kinds, and streams (every node's per-rank stream
    tag, so a straggler spec's per-rank graph and the single-rank graph
    it degenerates to key separately), and the raw IEEE-754 byte dump of
    the duration vector covers the timings exactly.  A cache hit is
    byte-identical to rescheduling — grids with ``workers=N`` and
    warm-cache reruns produce the same floats.  On a miss, scheduling
    runs through the symmetry-reduction and compiled-recurrence fast
    paths (``graph_symmetry`` / ``graph_batch`` flags);
    :func:`disabled` restores the plain list scheduler wholesale.
    """
    if not CONFIG.timing_cache:
        return _schedule_graph(graph)
    durations = np.asarray(graph.durations, dtype=np.float64)
    key = (topology_key(graph), durations.tobytes())
    schedule = GRAPH_CACHE.get(key)
    if schedule is None:
        schedule = GRAPH_CACHE.put(key, _schedule_graph(graph, durations))
    return schedule


def cached_time_layer(
    system: "MoESystem", workload: "MoELayerWorkload"
) -> "LayerTiming":
    """Time one layer through the global :data:`TIMING_CACHE`.

    Identical to ``system.time_layer(workload)`` — including raising
    :class:`~repro.systems.base.UnsupportedWorkload` — but repeated
    (system, workload) pairs are simulated once.  This is the timing
    entry point used by :meth:`repro.api.scenario.ExperimentSpec.run`,
    :func:`repro.runtime.training.run_training_step`, and
    :class:`repro.serve.engine_adapter.StepCostModel`.
    """
    return TIMING_CACHE.time_layer(system, workload)


def time_layer_calls() -> int:
    """Actual ``time_layer`` simulations performed since the last clear."""
    return TIMING_CACHE.computed


def shared_workload(
    config: Any,
    cluster: Any,
    strategy: Any,
    total_tokens: int,
    imbalance_std: float = 0.0,
    seed: int = 0,
) -> "MoELayerWorkload":
    """One workload object per grid point / token bucket, process-wide.

    ``make_workload`` is deterministic in its arguments, so sharing the
    object is observationally identical to rebuilding it — but the
    routing synthesis and the per-rank geometry caches attached to the
    workload are paid once per distinct key instead of once per caller.
    """
    from repro.runtime.workload import make_workload

    key = (config, cluster, strategy, total_tokens, imbalance_std, seed)
    workload = WORKLOAD_CACHE.get(key)
    if workload is None:
        workload = WORKLOAD_CACHE.put(
            key,
            make_workload(
                config, cluster, strategy, total_tokens, imbalance_std, seed
            ),
        )
    return workload


def shared_step_cost(
    system: "MoESystem",
    config: Any,
    cluster: Any,
    strategy: Any,
    bucket_tokens: int = 256,
    overlap_policy: str = "per_layer",
    stragglers: Any = None,
) -> Any:
    """One :class:`~repro.serve.engine_adapter.StepCostModel` per
    distinct (system state, scenario shape), process-wide.

    A homogeneous N-replica fleet prices iterations against N identical
    cost models; sharing one instance means the per-bucket timing work
    (and the model's internal step cache) is paid once for the whole
    fleet instead of once per replica.  The key includes the system's
    fingerprint *and* timing-state token, so a mutated system never hits
    a stale entry.  Construction failures
    (:class:`~repro.systems.base.UnsupportedWorkload` from the eager
    support check) propagate and are never cached.  Honours the
    ``timing_cache`` perf flag: when disabled, every caller gets a fresh
    model.
    """
    from repro.serve.engine_adapter import StepCostModel

    def build() -> Any:
        return StepCostModel(
            system=system,
            config=config,
            cluster=cluster,
            strategy=strategy,
            bucket_tokens=bucket_tokens,
            overlap_policy=overlap_policy,
            stragglers=stragglers,
        )

    if not CONFIG.timing_cache:
        return build()
    key = (
        system.fingerprint(),
        system.timing_state_token(),
        config,
        cluster,
        strategy,
        bucket_tokens,
        overlap_policy,
        stragglers.fingerprint() if stragglers is not None else None,
    )
    model = STEP_COST_CACHE.get(key)
    if model is None:
        model = STEP_COST_CACHE.put(key, build())
    return model


def shared_nc_sweep(
    system: "Comet", workload: "MoELayerWorkload", layer: int
) -> "SweepResult":
    """``system.sweep_division_points(workload, layer)``, process-wide.

    The sweep is a pure function of the system's knobs, the workload and
    the layer, so equal-config COMET instances share it; each instance
    still decides for itself which workload records a token bucket.
    Honours the ``timing_cache`` perf flag: when disabled, every sweep
    runs.
    """
    if not CONFIG.timing_cache:
        return system.sweep_division_points(workload, layer)
    key = (system.fingerprint(), workload.fingerprint(), layer)
    sweep = NC_SWEEP_CACHE.get(key)
    if sweep is None:
        sweep = NC_SWEEP_CACHE.put(
            key, system.sweep_division_points(workload, layer)
        )
    return sweep


# -- process-worker statistics -------------------------------------------------
#
# ``executor="process"`` grids run scenarios in forked workers whose
# caches are private; each task returns a ``cache_stats`` snapshot which
# the parent records here, so ``--report`` stays attributable.  Within
# one worker the counters are monotone (the pool initializer clears
# inherited state once, at fork), so snapshots from the same pid merge
# by elementwise max — results may be collected out of execution order,
# and the max is exactly the pid's latest state.

_WORKER_STATS: dict[int, dict[str, dict[str, Any]]] = {}
_WORKER_LOCK = threading.Lock()

_MERGED_COUNTERS = ("hits", "misses", "evictions", "time_layer_calls")


def process_worker_init() -> None:
    """Pool initializer for ``executor="process"`` workers.

    Forked children inherit the parent's cache *contents* (free warm
    starts) but also its counters; reset only the counters so the
    returned snapshots count the worker's own activity.
    """
    for cache in _CACHES:
        with cache._lock:
            cache.hits = 0
            cache.misses = 0
            cache.evictions = 0
            if isinstance(cache, TimingCache):
                cache.computed = 0
    with _WORKER_LOCK:
        _WORKER_STATS.clear()


def record_worker_stats(pid: int, stats: dict[str, dict[str, Any]]) -> None:
    """Fold one worker's ``cache_stats`` snapshot into the parent's view."""
    with _WORKER_LOCK:
        previous = _WORKER_STATS.get(pid)
        if previous is None:
            _WORKER_STATS[pid] = stats
            return
        for name, doc in stats.items():
            merged = previous.get(name)
            if merged is None:
                previous[name] = doc
                continue
            for counter in _MERGED_COUNTERS + ("size",):
                if counter in doc:
                    merged[counter] = max(
                        merged.get(counter, 0), doc[counter]
                    )


def worker_process_count() -> int:
    """Distinct worker processes that have reported statistics."""
    with _WORKER_LOCK:
        return len(_WORKER_STATS)


def clear_caches() -> None:
    """Empty the global caches and reset their counters."""
    for cache in _CACHES:
        cache.clear()
    with _WORKER_LOCK:
        _WORKER_STATS.clear()


def cache_stats(include_workers: bool = True) -> dict[str, dict[str, Any]]:
    """Per-cache statistics, keyed by cache name (for ``--report``).

    With ``include_workers`` (the default), counters reported back by
    ``executor="process"`` workers are summed into each cache's entry —
    ``hit_rate`` is recomputed over the merged totals, the per-worker
    contribution stays visible under ``worker_*`` keys, and every entry
    carries the distinct worker-``processes`` count.  Workers themselves
    snapshot with ``include_workers=False`` to return only their own
    counters.
    """
    stats = {cache.name: cache.stats() for cache in _CACHES}
    if not include_workers:
        return stats
    with _WORKER_LOCK:
        if not _WORKER_STATS:
            return stats
        processes = len(_WORKER_STATS)
        for snapshot in _WORKER_STATS.values():
            for name, doc in snapshot.items():
                entry = stats.get(name)
                if entry is None:
                    continue
                for counter in _MERGED_COUNTERS:
                    if counter in doc and counter in entry:
                        entry[counter] += doc[counter]
                        key = f"worker_{counter}"
                        entry[key] = entry.get(key, 0) + doc[counter]
    for entry in stats.values():
        entry["processes"] = processes
        total = entry["hits"] + entry["misses"]
        entry["hit_rate"] = entry["hits"] / total if total else 0.0
    return stats
