"""Cross-stack performance layer: fast paths, fingerprints, bounded caches.

Everything in this module is an *accelerator*, never a semantics change:
each fast path and each cache is verified bit-identical against the
slow path it replaces — the oracle table in ``tests/test_oracles.py``
holds one row per fast path and per cache, and fails if a cache has no
row — and :func:`repro.oracles.reference_paths` swaps every fast path
for its reference and bypasses the caches, which is also how
``benchmarks/bench_sim_speed.py`` measures the speedup honestly.

The product runs one path per input; only the input picks another:

* the analytic layer0 scan in :mod:`repro.kernels.fused` replaces the
  per-tile heapq loop: it walks only the chain of the server that runs
  the last tile, which finishes last.  A traced run takes the heapq
  loop, which records per-block completion times;
* :class:`~repro.systems.comet.Comet` prices each *distinct* rank once:
  its batched fused-kernel calls get one row per distinct (ring-ordered)
  pair matrix or combine split, not one per rank.  Under fabric
  contention every rank has its own arrival curve, so every rank is
  priced;
* the serving loop of :mod:`repro.serve.scheduler` replays the serving
  DES sequentially over the :class:`~repro.serve.scheduler.ReplicaCore`
  step kernel, which also runs under every replica of the fleet
  co-simulation: sequences retire from a completion map keyed by step
  instead of a per-token count over every running sequence;
* rank-blocked multi-rank graphs fold exchangeable ranks to one
  representative per equivalence class before scheduling
  (:func:`repro.graph.scheduler.reduce_symmetry`; the fold itself is
  vectorised: cached block structure, rank classes from duration bits,
  cached reduced recurrence);
* chain-compatible topologies schedule through the compiled max/add
  recurrence of :mod:`repro.graph.batch`, one compiled topology per
  :func:`topology_key` cached in :data:`GRAPH_BATCH_CACHE`
  (:func:`~repro.graph.batch.fast_schedule` falls back to the heapq list
  scheduler on any other topology); and the lowering builders of
  :mod:`repro.graph.lower` lower each topology once into a
  duration-free skeleton (:func:`lowered_skeleton`), so every later
  build only gathers its durations.

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
  and scenario shape;
* :data:`ROUTING_CACHE` — one read-only
  :class:`~repro.moe.routing.RoutingPlan` per (experts, top-k, tokens,
  imbalance, seed).  ``make_workload`` draws a plan from
  ``default_rng(seed)`` and reads nothing else of the model, the
  cluster or the TP x EP split, so that key is complete: every split
  of a model, and every model with the same (E, top-k), shares a plan.
  Beside the plans it keeps one :class:`~repro.moe.routing.ExpertStream`
  per balanced (experts, top-k, seed), keyed ``("stream", E, top-k,
  seed)``: a balanced plan's experts are the first rows of its seed's
  uniform stream, so a miss on a balanced key cuts the plan from the
  rows earlier plans drew, draws only the rows none of them reached,
  and draws its weights at its own offset (see
  :mod:`repro.moe.routing`);
* :data:`NC_SWEEP_CACHE` — COMET's division-point sweeps
  (:class:`~repro.kernels.assignment.SweepResult`) keyed by (system
  fingerprint, workload fingerprint, layer).  A sweep times the default
  variant library on the workload's bottleneck rank; the system
  fingerprint covers every knob the fused kernels read, and the
  workload fingerprint its shapes, hardware and routing realisation.

All are bounded LRU caches with hit/miss/eviction counters and an
explicit ``clear()``; :func:`cache_stats` aggregates them for the CLI's
``--report`` flag.  Every entry point reads its cache through
:meth:`BoundedCache.get_or_compute`, so thread workers that miss one key
at once compute it once and the counters of a threaded run match a
serial one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.kernels.assignment import SweepResult
    from repro.runtime.workload import MoELayerWorkload
    from repro.systems.base import LayerTiming, MoESystem
    from repro.systems.comet import Comet

__all__ = [
    "GRAPH_BATCH_CACHE",
    "GRAPH_CACHE",
    "NC_SWEEP_CACHE",
    "ROUTING_CACHE",
    "STEP_COST_CACHE",
    "TIMING_CACHE",
    "WORKLOAD_CACHE",
    "BoundedCache",
    "TimingCache",
    "cache_stats",
    "cached_graph_schedule",
    "cached_time_layer",
    "clear_caches",
    "compiled_topology",
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


class _Flight:
    """One key's computation in progress: its owner computes, others wait."""

    __slots__ = ("owner", "landed", "value", "error")

    def __init__(self) -> None:
        self.owner = threading.get_ident()
        self.landed = False
        self.value: Any = None
        self.error: BaseException | None = None


class BoundedCache:
    """Thread-safe LRU cache with hit/miss/eviction instrumentation.

    ``maxsize`` bounds the entry count; inserting beyond it evicts the
    least recently used entry, so long-running processes (sweep servers,
    notebook sessions) cannot grow caches without bound.

    Every operation — lookups, the insert-plus-eviction loop that ends
    a :meth:`get_or_compute` miss, counter resets, and the :meth:`stats`
    snapshot — runs under one lock, so ``workers=N`` grids can hammer a
    cache from many threads and still observe a coherent state: ``size``
    never exceeds ``maxsize``, counters never go backwards or negative,
    and a :meth:`stats` snapshot is internally consistent (its
    ``hit_rate`` is computed from the same locked reads as its
    ``hits``/``misses``) rather than a torn mix of before/after values.
    :meth:`get_or_compute` is the only way to store a value; it computes
    each key once however many threads miss it at once.
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
        self._landed = threading.Condition(self._lock)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._flights: dict[Hashable, _Flight] = {}

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

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """The cached value of ``key``, or ``compute()`` stored under it.

        A miss marks ``key`` in flight and computes outside the lock, so
        ``compute`` may look up other keys of this cache.  A caller that
        finds ``key`` in flight waits for it and counts a hit, so each key
        is computed once however many threads miss it at once.  A
        computation that raises stores nothing, and its error reaches
        every caller waiting on it; a computation that asks for its own
        key raises ``RuntimeError`` instead of waiting on itself.
        """
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
                self.hits += 1
                return value
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                self.misses += 1
            else:
                self.hits += 1
                if flight.owner == threading.get_ident():
                    raise RuntimeError(f"{self.name} cache: {key!r} depends on itself")
                while not flight.landed:
                    self._landed.wait()
                if flight.error is None:
                    return flight.value
                try:
                    raise flight.error
                finally:
                    del flight  # the traceback holds this frame: no cycle
        try:
            value = compute()
            if value is None:
                raise ValueError("BoundedCache cannot store None")
        except BaseException as exc:
            self._land(key, flight, None, exc)
            del flight  # the traceback holds this frame: no cycle
            raise
        self._land(key, flight, value, None)
        return value

    def _land(
        self, key: Hashable, flight: _Flight, value: Any, error: BaseException | None
    ) -> None:
        """End ``key``'s flight, storing ``value`` unless it raised, and
        wake the callers waiting on it."""
        with self._lock:
            if error is None:
                # Only a flight's owner stores its key, so the key is new
                # and lands most recently used.
                self._data[key] = value
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self.evictions += 1
            flight.value, flight.error, flight.landed = value, error, True
            del self._flights[key]
            self._landed.notify_all()

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

    ``time_layer`` is the cached entry point.  Every miss runs one real
    ``MoESystem.time_layer``, so ``misses`` counts the simulations —
    the simulator-throughput metric the speed benchmark reports.
    """

    def time_layer(
        self, system: "MoESystem", workload: "MoELayerWorkload"
    ) -> "LayerTiming":
        key = (system.fingerprint(), workload.fingerprint())
        return self.get_or_compute(key, lambda: system.time_layer(workload))


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
    one compiled recurrence.
    """
    from repro.graph.batch import compile_topology

    key = topology_key(graph)
    return GRAPH_BATCH_CACHE.get_or_compute(
        ("topo", key), lambda: compile_topology(graph, key)
    )


def lowered_skeleton(token: tuple, lower: Callable[[], Any]) -> Any:
    """The lowering skeleton of a builder ``topology_token``, through the
    bounded :data:`GRAPH_BATCH_CACHE`.

    :mod:`repro.graph.lower` lowers each topology once per process —
    ``lower()`` runs on the first build only — and every later build of
    it only gathers its durations.
    """
    return GRAPH_BATCH_CACHE.get_or_compute(("skeleton", token), lower)


def _schedule_plain(graph: Any) -> Any:
    """Schedule one graph through its compiled topology."""
    from repro.graph.batch import fast_schedule

    return fast_schedule(graph, compiled_topology(graph))


# GRAPH_BATCH_CACHE sentinels (BoundedCache cannot store None).
_NO_STRUCTURE = "no-structure"
_NOT_CHAIN = "not-chain"


def _cached_block_structure(graph: Any, key: tuple) -> Any:
    """:func:`repro.graph.scheduler.block_structure`, cached per topology."""
    from repro.graph.scheduler import block_structure

    entry = GRAPH_BATCH_CACHE.get_or_compute(
        ("sym", key), lambda: block_structure(graph) or _NO_STRUCTURE
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

    def reduced_deps() -> Any:
        symmetry = reduce_symmetry(graph)
        if symmetry is None or len(symmetry.reps) != k:
            return _NOT_CHAIN  # defensive: classification disagreed
        topology = compile_topology(symmetry.reduced, key=("reduced", key, k))
        return topology.deps if topology.chain_ok else _NOT_CHAIN

    entry = GRAPH_BATCH_CACHE.get_or_compute(("symred", key, k), reduced_deps)
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
    oracle table enforces it); the graph only picks how much work that
    costs.
    """
    from repro.graph.scheduler import expand_symmetry, reduce_symmetry

    key = topology_key(graph)
    structure = _cached_block_structure(graph, key)
    if structure is None:
        return _schedule_plain(graph)  # known: not rank-blocked
    schedule = _fast_symmetric_schedule(graph, key, structure, durations)
    if schedule is not None:
        return schedule
    symmetry = reduce_symmetry(graph)
    if symmetry is not None:
        return expand_symmetry(graph, symmetry, _schedule_plain(symmetry.reduced))
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
    paths.
    """
    durations = np.asarray(graph.durations, dtype=np.float64)
    key = (topology_key(graph), durations.tobytes())
    return GRAPH_CACHE.get_or_compute(key, lambda: _schedule_graph(graph, durations))


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
    """Actual ``time_layer`` simulations performed since the last clear:
    one per timing-cache miss."""
    return TIMING_CACHE.misses


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
    return WORKLOAD_CACHE.get_or_compute(key, lambda: make_workload(*key))


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
    distinct (system, scenario shape), process-wide.

    A homogeneous N-replica fleet prices iterations against N identical
    cost models; sharing one instance means the per-bucket timing work
    (and the model's internal step cache) is paid once for the whole
    fleet instead of once per replica.  The key includes the system's
    fingerprint, so a mutated system never hits a stale entry.
    Construction failures
    (:class:`~repro.systems.base.UnsupportedWorkload` from the eager
    support check) propagate and are never cached.
    """
    from repro.serve.engine_adapter import StepCostModel

    key = (
        system.fingerprint(),
        config,
        cluster,
        strategy,
        bucket_tokens,
        overlap_policy,
        stragglers.fingerprint() if stragglers is not None else None,
    )
    return STEP_COST_CACHE.get_or_compute(
        key,
        lambda: StepCostModel(
            system=system,
            config=config,
            cluster=cluster,
            strategy=strategy,
            bucket_tokens=bucket_tokens,
            overlap_policy=overlap_policy,
            stragglers=stragglers,
        ),
    )


def shared_nc_sweep(
    system: "Comet", workload: "MoELayerWorkload", layer: int
) -> "SweepResult":
    """``system.sweep_division_points(workload, layer)``, process-wide.

    The sweep is a pure function of the system's knobs, the workload and
    the layer, so equal-config COMET instances share it.  COMET sweeps
    each token bucket's canonical workload, so one sweep per bucket
    serves every workload that falls in it.
    """
    key = (system.fingerprint(), workload.fingerprint(), layer)
    return NC_SWEEP_CACHE.get_or_compute(
        key, lambda: system.sweep_division_points(workload, layer)
    )


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
            # No thread but the forking one survives the fork, so no
            # computation inherited in flight will ever finish here.
            cache._flights.clear()
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
    timing = stats[TIMING_CACHE.name]
    timing["time_layer_calls"] = timing["misses"]
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
