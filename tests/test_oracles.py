"""The oracle table: every fast path and every cache against its oracle.

Each row of :data:`PAIRS` pairs one fast path (or a cache's entry point)
with the computation it must reproduce exactly, and one harness,
:func:`_check`, runs every row: on the hypothesis draws of its ``cases``,
and on each of its fixed ``examples`` as a test of its own, so a broken
regression case shows up under its own name.  ``fast`` and ``oracle``
are the imported objects themselves, so a rename fails at import.  A
row with a ``flag`` runs ``case.fast`` with that
:class:`~repro.perf.PerfConfig` flag on and ``case.oracle`` with it off;
the single-scenario serving cases and the fleet co-sim cases run their
oracle side with every fast path and cache off (:func:`all_off`).

Cache rows draw a base input and a copy with exactly one field changed:
one change per parameter of the cached entry point, looked up by name
in :func:`_input_changes`, so a new parameter fails its row until it
gets a value.  They start from empty caches, warm the cache with the
base, then require the cached entry point on the changed input to equal
the uncached computation, so a field that never reaches the cache key
fails its row.  History-dependent systems
(``timing_state_token() is not None``) are checked against a twin
instance given the same probe sequence.

Three coverage tests walk the imported ``repro`` package and tie the
table to the code: every ``PerfConfig`` flag has a row, every function
named like a fast path is some row's ``fast``, every cache in
``perf._CACHES`` has a row, and the package reads the fingerprint of
every fingerprinted class while the cache rows run.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import random
import re
import subprocess
import sys
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro import (
    MIXTRAL_8X7B,
    QWEN2_MOE,
    SYSTEM_REGISTRY,
    BrownoutEvent,
    DegradeEvent,
    FaultPlan,
    FleetSpec,
    MigrationSpec,
    ParallelStrategy,
    ResilienceSpec,
    StepCostModel,
    TraceSpec,
    h800_node,
    perf,
)
from repro.fleet import AutoscalerSpec, FailureEvent
from repro.fleet.simulator import FleetEngine
from repro.graph import (
    COMM,
    COMPUTE,
    OVERLAP_POLICIES,
    LayerPhase,
    NodeKind,
    ScheduleGraph,
    StragglerSpec,
    Stream,
    build_forward_graph,
    build_training_graph,
    compile_topology,
    expand_symmetry,
    fast_schedule,
    list_schedule,
    rank_makespans,
    reduce_symmetry,
    schedule_batch,
)
from repro.hw.multinode import IB_400G
from repro.hw.presets import NVLINK_H800, l20_node
from repro.kernels.fused import (
    layer0_makespan_analytic,
    layer0_makespan_reference,
    simulate_layer0_fused,
)
from repro.kernels.gemm import tile_time_us
from repro.moe import (
    ExpertWeights,
    balanced_fractions,
    imbalanced_fractions,
    routing_from_fractions,
    token_owner_ranks,
)
from repro.moe.config import MoEConfig
from repro.oracles.distributed import DistributedMoE
from repro.oracles.graph_des import des_schedule
from repro.oracles.layer0_des import des_layer0_makespan
from repro.runtime.workload import (
    MoELayerWorkload,
    WorkloadGeometry,
    _synthesise_routing,
    make_workload,
)
from repro.serve import ServeScenario
from repro.serve.scheduler import ContinuousBatchingScheduler, ReplicaCore
from repro.systems import Comet
from repro.systems.base import MoESystem, UnsupportedWorkload
from repro.tensor import build_layer0_schedule

CLUSTER = h800_node()
SEEDS = st.integers(min_value=0, max_value=10_000)


@dataclass(frozen=True)
class Case:
    """One input, driven down the fast path and down the oracle."""

    label: str
    fast: Callable[[], Any]
    oracle: Callable[[], Any]

    def __repr__(self) -> str:
        return self.label


def same(label: str, run: Callable[[], Any]) -> Case:
    """A case whose two paths differ only by the row's flag."""
    return Case(label, run, run)


def all_off(run: Callable[[], Any]) -> Callable[[], Any]:
    """``run`` with every fast path and cache off."""
    def oracle():
        with perf.disabled():
            return run()

    return oracle


@dataclass(frozen=True)
class Pair:
    """One row: ``fast`` (one object or a tuple) must equal ``oracle``.

    ``cases`` draws :class:`Case` objects; ``examples`` are fixed
    regression cases, each run as a test of its own.  A cache row names
    its ``cache``, and every case of the row must reach it.
    """

    fast: Any
    oracle: Any
    cases: st.SearchStrategy
    flag: str | None = None
    examples: tuple[Case, ...] = ()
    max_examples: int = 10
    cache: perf.BoundedCache | None = None

    @property
    def fast_paths(self) -> tuple:
        return self.fast if isinstance(self.fast, tuple) else (self.fast,)


# -- layer0 fused kernel -------------------------------------------------------


def _layer0_fused_case(seed, nc, world, experts, scale, cols, use_arrival_fn):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 150 * scale, size=(world, experts)).astype(np.int64)
    schedule = build_layer0_schedule(pairs, rank=0)
    arrival_fn = None
    if use_arrival_fn and schedule.num_remote:
        base = float(rng.uniform(1, 10))
        step = float(rng.uniform(0.001, 0.5))
        arrival_fn = lambda i: base + (i + 1) * step  # noqa: E731
    kwargs = dict(
        token_bytes=4096, k=2048, cols=cols,
        nc=nc if schedule.num_remote else 0, arrival_fn=arrival_fn,
    )
    return same(
        f"simulate_layer0_fused(seed={seed}, nc={nc}, world={world}, "
        f"experts={experts}, scale={scale}, cols={cols}, "
        f"arrival_fn={use_arrival_fn})",
        lambda: simulate_layer0_fused(CLUSTER.gpu, CLUSTER.link, schedule, **kwargs),
    )


def _wave_case(seed, np_blocks, col_tiles, blocks):
    rng = np.random.default_rng(seed)
    ready = np.sort(rng.uniform(0.0, 50.0, size=blocks))
    per_tile = float(rng.uniform(0.01, 2.0))
    return Case(
        f"waves(seed={seed}, np={np_blocks}, col_tiles={col_tiles}, blocks={blocks})",
        lambda: layer0_makespan_analytic(ready, col_tiles, np_blocks, per_tile),
        lambda: layer0_makespan_reference(
            ready, np.arange(blocks), col_tiles, np_blocks, per_tile
        ),
    )


def _layer0_des_case(label, pairs, nc, cols=1024, k=2048):
    schedule = build_layer0_schedule(pairs, rank=0)
    kwargs = dict(
        token_bytes=4096, k=k, cols=cols, nc=nc if schedule.num_remote else 0
    )

    def heapq_path():
        with perf.configure(analytic_layer0=False):
            return simulate_layer0_fused(
                CLUSTER.gpu, CLUSTER.link, schedule, **kwargs
            ).duration_us

    def des():
        # The two may assign tied tiles to different blocks: one tile.
        return pytest.approx(
            des_layer0_makespan(CLUSTER.gpu, CLUSTER.link, schedule, **kwargs),
            abs=tile_time_us(CLUSTER.gpu, k) + 1e-6,
        )

    return Case(label, heapq_path, des)


@st.composite
def _layer0_des_cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    scale = draw(st.integers(min_value=1, max_value=8))
    shape = draw(st.sampled_from([2, 4, 8])), draw(st.integers(1, 6))
    nc = draw(st.integers(min_value=1, max_value=64))
    pairs = np.random.default_rng(seed).integers(0, 120 * scale, size=shape)
    assume(pairs.sum() > 0)
    return _layer0_des_case(
        f"layer0 DES(seed={seed}, nc={nc}, shape={shape}, scale={scale})",
        pairs.astype(np.int64), nc,
    )


def _pairs(*rows):
    return np.array(rows, dtype=np.int64)


LAYER0_DES_EXAMPLES = (
    _layer0_des_case("all local", _pairs([300, 500], [0, 0], [0, 0], [0, 0]), nc=8),
    _layer0_des_case(
        "all remote", _pairs([0, 0], [400, 400], [100, 700], [0, 0]), nc=16
    ),
    _layer0_des_case(
        "mixed",
        np.random.default_rng(3).integers(0, 600, size=(8, 4)).astype(np.int64),
        nc=24,
    ),
    _layer0_des_case("tiny", _pairs([1, 0], [0, 1]), nc=2),
    _layer0_des_case(
        "comm bound", _pairs([0, 0], [2000, 2000], [0, 0], [0, 0]), nc=1
    ),
    _layer0_des_case(
        "compute bound",
        np.random.default_rng(9).integers(100, 400, size=(4, 4)).astype(np.int64),
        nc=64, cols=4096, k=8192,
    ),
)


# -- COMET rank deduplication --------------------------------------------------


def _dedup_case(tp, ep, imbalance_std, seed=3, tokens=4096, fabric=False):
    def run():
        workload = make_workload(
            MIXTRAL_8X7B, CLUSTER, ParallelStrategy(tp, ep), tokens,
            imbalance_std, seed,
        )
        with perf.configure(timing_cache=False):  # sweep under this flag too
            return Comet(fabric_contention=fabric).time_layer(workload)

    return same(
        f"Comet(fabric_contention={fabric}) TP{tp}xEP{ep} M{tokens} "
        f"std={imbalance_std} seed={seed}",
        run,
    )


DEDUP_EXAMPLES = tuple(
    _dedup_case(tp, ep, std)
    for tp, ep in [(1, 8), (2, 4), (4, 2)]
    for std in [0.0, 0.02, 0.04]
) + (_dedup_case(1, 8, 0.0, seed=0, tokens=2048, fabric=True),)


# -- schedule graphs -----------------------------------------------------------

KINDS = tuple(NodeKind)


def _phases(gate, dispatch, up, act, down, combine, host):
    return (
        LayerPhase(NodeKind.GATE, gate),
        LayerPhase(NodeKind.DISPATCH, dispatch, comm=True),
        LayerPhase(NodeKind.EXPERT, up),
        LayerPhase(NodeKind.ACTIVATION, act),
        LayerPhase(NodeKind.EXPERT, down),
        LayerPhase(NodeKind.COMBINE, combine, comm=True),
        LayerPhase(NodeKind.HOST, host),
    )


BATCH_PHASES = _phases(12.0, 40.0, 55.0, 6.0, 48.0, 33.0, 3.0)
STRAGGLER_PHASES = _phases(10.0, 25.0, 40.0, 5.0, 35.0, 20.0, 3.0)
MODEL_PHASES = _phases(11.0, 6.0, 19.0, 2.5, 14.0, 8.0, 1.5)
SHORT_PHASES = (
    LayerPhase(NodeKind.GATE, 9.0),
    LayerPhase(NodeKind.DISPATCH, 31.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 44.0),
    LayerPhase(NodeKind.COMBINE, 27.0, comm=True),
    LayerPhase(NodeKind.HOST, 2.0),
)


def _duration(rng, zero_fraction):
    if rng.random() < zero_fraction:
        return 0.0
    return rng.choice((1.0, 1.0, 2.5, 7.0, rng.uniform(0.1, 30.0)))


def chain_graph(seed, num_nodes, num_ranks, zero_fraction):
    """Random graph satisfying the chain property by construction:
    every node depends directly on its stream predecessor."""
    rng = random.Random(seed)
    graph = ScheduleGraph()
    last_on_stream: dict[Stream, int] = {}
    for node_id in range(num_nodes):
        stream = Stream(
            COMM if rng.random() < 0.4 else COMPUTE, rng.randrange(num_ranks)
        )
        deps = set()
        prev = last_on_stream.get(stream)
        if prev is not None:
            deps.add(prev)
        extra = rng.randint(0, min(2, node_id))
        if extra:
            deps.update(rng.sample(range(node_id), extra))
        last_on_stream[stream] = graph.add(
            rng.choice(KINDS), _duration(rng, zero_fraction), stream,
            deps=sorted(deps),
        )
    return graph


def blocked_graph(seed, blocks, world, classes, zero_fraction):
    """Rank-blocked graph over random straggler classes.

    Block dependency structure alternates randomly between barriers
    (one dep tuple covering full earlier blocks, shared by every rank)
    and rank-local patterns; durations are drawn once per (block,
    class), so ranks of one class carry bit-equal duration vectors.
    Returns the graph and each rank's class.
    """
    rng = random.Random(seed)
    class_of = [rng.randrange(classes) for _ in range(world)]
    graph = ScheduleGraph()
    for b in range(blocks):
        kind = rng.choice(KINDS)
        stream_kind = COMM if rng.random() < 0.4 else COMPUTE
        dep_blocks = (
            sorted(rng.sample(range(b), rng.randint(1, min(b, 2)))) if b else []
        )
        barrier = bool(dep_blocks) and rng.random() < 0.5
        shared = tuple(pb * world + r for pb in dep_blocks for r in range(world))
        class_durations = {
            c: _duration(rng, zero_fraction) for c in sorted(set(class_of))
        }
        for r in range(world):
            deps = (
                shared if barrier else tuple(pb * world + r for pb in dep_blocks)
            )
            graph.add(
                kind, class_durations[class_of[r]], Stream(stream_kind, r),
                deps=deps, layer=b % 3,
            )
    return graph, class_of


def random_graph(seed, num_nodes, num_ranks, zero_fraction):
    """Arbitrary random DAG: backward edges, as often across ranks as
    within them, and a fraction of zero-duration nodes."""
    rng = random.Random(seed)
    graph = ScheduleGraph()
    for node_id in range(num_nodes):
        stream = Stream(
            COMM if rng.random() < 0.4 else COMPUTE, rng.randrange(num_ranks)
        )
        num_deps = rng.randint(0, min(3, node_id))
        deps = rng.sample(range(node_id), num_deps) if num_deps else ()
        graph.add(
            rng.choice(KINDS), _duration(rng, zero_fraction), stream,
            deps=deps, layer=node_id % 4,
        )
    return graph


def dense_graph(seed, nodes, edge_p, ranks):
    """Random DAG with each backward edge present with probability ``edge_p``."""
    rng = np.random.default_rng(seed)
    graph = ScheduleGraph()
    kinds = list(NodeKind)
    for i in range(nodes):
        deps = [d for d in range(i) if rng.random() < edge_p]
        stream = Stream(
            COMPUTE if rng.random() < 0.5 else COMM, int(rng.integers(0, ranks))
        )
        graph.add(
            kinds[int(rng.integers(0, len(kinds)))],
            float(rng.uniform(0.05, 25.0)), stream, deps=deps,
        )
    return graph


def graph_batch(seed, batch):
    rng = random.Random(seed)
    return [
        (chain_graph if rng.random() < 0.5 else random_graph)(
            rng.randrange(10_000), 30, 2, 0.2
        )
        for _ in range(batch)
    ]


def builder_graph(seed, world, classes, policy):
    """A real lowering over random straggler classes."""
    rng = random.Random(seed)
    multipliers = [round(rng.uniform(1.0, 3.0), 2) for _ in range(classes)]
    stragglers = None  # single-rank degenerate
    if world > 1:
        stragglers = StragglerSpec(
            compute_mult=tuple(
                multipliers[rng.randrange(classes)] for _ in range(world)
            ),
            comm_mult=(1.0,) * world,
            expert_mult=(1.0,) * world,
            name=f"random{seed}",
        )
    return build_forward_graph(SHORT_PHASES, 20.0, 3, policy, stragglers)


def phase_graphs(seed, layers, attention):
    """One forward graph per policy over random phase durations."""
    rng = np.random.default_rng(seed)
    phases = tuple(
        LayerPhase(phase.kind, float(rng.uniform(0.0, 30.0)), comm=phase.comm)
        for phase in MODEL_PHASES
    )
    return [
        build_forward_graph(phases, attention, layers, policy)
        for policy in OVERLAP_POLICIES
    ]


chain_graphs = st.builds(
    chain_graph, SEEDS, st.integers(1, 60), st.sampled_from((1, 2, 4, 8)),
    st.sampled_from((0.0, 0.25, 0.6)),
)
blocked_graphs = st.builds(
    lambda *args: blocked_graph(*args)[0], SEEDS, st.integers(1, 12),
    st.sampled_from((2, 3, 4, 8)), st.sampled_from((1, 2, 3)),
    st.sampled_from((0.0, 0.3)),
)
random_graphs = st.builds(
    random_graph, SEEDS, st.integers(0, 60), st.sampled_from((1, 2, 3, 4, 8)),
    st.sampled_from((0.0, 0.2, 0.5, 1.0)),
)
dense_graphs = st.builds(
    dense_graph, st.integers(0, 2**16), st.integers(1, 60),
    st.floats(min_value=0.0, max_value=0.4), st.integers(1, 3),
)
graph_batches = st.builds(graph_batch, SEEDS, st.integers(2, 6))
builder_graphs = st.builds(
    builder_graph, SEEDS, st.sampled_from((1, 2, 4, 8)),
    st.sampled_from((1, 2, 3)), st.sampled_from(OVERLAP_POLICIES),
)
phase_graph_sets = st.builds(
    phase_graphs, st.integers(0, 2**16), st.integers(1, 12),
    st.floats(min_value=0.1, max_value=50.0),
)


def _graphs(value) -> list[ScheduleGraph]:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _obs(schedule):
    return schedule.start_us, schedule.finish_us, schedule.rank_makespans()


def _graph_case(label, value, fast):
    """``fast(graph)`` vs ``list_schedule(graph)`` on every graph."""
    graphs = _graphs(value)
    return Case(
        label,
        lambda: [_obs(fast(g)) for g in graphs],
        lambda: [_obs(list_schedule(g)) for g in graphs],
    )


def _batch_case(graphs):
    return Case(
        f"schedule_batch({len(graphs)} graphs)",
        lambda: [_obs(s) for s in schedule_batch(graphs)],
        lambda: [_obs(list_schedule(g)) for g in graphs],
    )


def _chain_fast(graph):
    return fast_schedule(graph, compile_topology(graph))


def _folded(graph):
    """Every symmetry route: the perf dispatch (uncached, so the fold
    runs), and the explicit fold and expansion when the graph folds."""
    dispatched = _obs(perf._schedule_graph(graph))
    symmetry = reduce_symmetry(graph)
    if symmetry is None:
        return dispatched, dispatched
    return dispatched, _obs(
        expand_symmetry(graph, symmetry, list_schedule(symmetry.reduced))
    )


def _symmetry_case(label, value):
    graphs = _graphs(value)
    return Case(
        label,
        lambda: [_folded(g) for g in graphs],
        lambda: [(_obs(list_schedule(g)),) * 2 for g in graphs],
    )


def _des_case(label, value):
    graphs = _graphs(value)

    def analytic():
        return [
            (s.finish_us, s.makespan_us, s.rank_makespans())
            for s in map(list_schedule, graphs)
        ]

    def des():
        observed = []
        for graph in graphs:
            finish, makespan = des_schedule(graph)
            observed.append((finish, makespan, rank_makespans(graph, finish)))
        return observed

    return Case(label, analytic, des)


def _forward(phases, policy="per_layer", stragglers=None, layers=4, attention=25.0):
    return build_forward_graph(phases, attention, layers, policy, stragglers)


def _training(phases, policy, stragglers=None, layers=3):
    return build_training_graph(
        phases, phases, 25.0, 50.0, layers, 80.0, 20.0, policy, stragglers
    )


def _hand_built():
    single = ScheduleGraph()
    single.add(NodeKind.EXPERT, 5.0, Stream(COMPUTE, 0))
    diamond = ScheduleGraph()
    a = diamond.add(NodeKind.GATE, 2.0, Stream(COMPUTE, 0))
    b = diamond.add(NodeKind.DISPATCH, 7.0, Stream(COMM, 0), deps=(a,))
    c = diamond.add(NodeKind.EXPERT, 5.0, Stream(COMPUTE, 0), deps=(a,))
    diamond.add(NodeKind.COMBINE, 1.0, Stream(COMM, 0), deps=(b, c))
    contended = ScheduleGraph()  # equal ready times on one stream
    root = contended.add(NodeKind.GATE, 3.0, Stream(COMPUTE, 0))
    for _ in range(5):
        contended.add(NodeKind.EXPERT, 2.0, Stream(COMPUTE, 1), deps=(root,))
    fan_in = ScheduleGraph()
    sources = [
        fan_in.add(NodeKind.EXPERT, float(3 + r), Stream(COMPUTE, r))
        for r in range(4)
    ]
    fan_in.add(NodeKind.COMBINE, 2.0, Stream(COMM, 0), deps=sources)
    ties = ScheduleGraph()  # every completion on the same timestamps
    prev = ()
    for i in range(12):
        prev = (ties.add(NodeKind.EXPERT, 1.0, Stream(COMPUTE, i % 2), deps=prev),)
        ties.add(NodeKind.COMBINE, 1.0, Stream(COMM, 0), deps=prev)
    return {
        "single node": single, "diamond": diamond,
        "contended stream": contended, "multi-rank fan-in": fan_in,
        "equal durations": ties,
    }


def _zero_comm_graph(policy):
    """Rank 0's comm is fully hidden (0.0) while rank 1's stays exposed."""
    def phases(dispatch, combine):
        return (
            LayerPhase(NodeKind.GATE, 10.0),
            LayerPhase(NodeKind.DISPATCH, dispatch, comm=True),
            LayerPhase(NodeKind.EXPERT, 40.0),
            LayerPhase(NodeKind.COMBINE, combine, comm=True),
            LayerPhase(NodeKind.HOST, 3.0),
        )
    return build_forward_graph(
        [phases(0.0, 0.0), phases(50.0, 30.0)], 20.0, 3, policy
    )


SLOW8 = StragglerSpec.slow_rank(8, rank=3, compute_mult=1.7, comm_mult=1.2)
SLOW6 = StragglerSpec.slow_rank(6, rank=4, compute_mult=1.9)
STRAGGLER_SPECS = (
    StragglerSpec.uniform(4),
    StragglerSpec.slow_rank(4, rank=1, compute_mult=1.7),
    StragglerSpec.degraded_link(4, 3, IB_400G, NVLINK_H800),
)

BATCH_EXAMPLES = tuple(
    _graph_case(f"single rank {p}", _forward(BATCH_PHASES, p), fast_schedule)
    for p in ("per_layer", "cross_layer", "shortcut")
) + tuple(
    _graph_case(f"slow rank {p}", _forward(BATCH_PHASES, p, SLOW8), _chain_fast)
    for p in ("per_layer", "cross_layer")
) + (
    _graph_case(
        "training per_layer",
        _training(BATCH_PHASES, "per_layer", StragglerSpec.slow_rank(4, 0, 1.5)),
        fast_schedule,
    ),
    _batch_case([
        _forward(BATCH_PHASES, stragglers=StragglerSpec.slow_rank(4, 2, m))
        for m in (1.0, 1.3, 1.7, 2.2, 3.1)
    ]),
    _batch_case([
        _forward(BATCH_PHASES, "per_layer"),
        _forward(BATCH_PHASES, "shortcut"),  # non-chain: per-graph fallback
        _forward(BATCH_PHASES, "per_layer", StragglerSpec.slow_rank(2, 0, 1.5)),
        _forward(BATCH_PHASES, "cross_layer"),
        _forward(BATCH_PHASES, "per_layer", StragglerSpec.slow_rank(2, 0, 2.5)),
    ]),
)

SYMMETRY_EXAMPLES = tuple(
    _symmetry_case(
        f"slow rank 5 of 8 {p}",
        _forward(BATCH_PHASES, p, StragglerSpec.slow_rank(8, 5, 1.6)),
    )
    for p in ("per_layer", "cross_layer", "shortcut")
) + tuple(
    _symmetry_case(f"folded slow rank {p}", _forward(BATCH_PHASES, p, SLOW6))
    for p in ("per_layer", "cross_layer", "shortcut")
) + (
    _symmetry_case(
        "alternating classes",
        _forward(
            BATCH_PHASES,
            stragglers=StragglerSpec(
                compute_mult=(1.0, 1.5) * 4, comm_mult=(1.0,) * 8,
                expert_mult=(1.0,) * 8, name="alternating",
            ),
        ),
    ),
    _symmetry_case(
        "training folds",
        _training(
            BATCH_PHASES, "per_layer", StragglerSpec.slow_rank(4, 1, 1.4), layers=2
        ),
    ),
)

DES_EXAMPLES = (
    tuple(_des_case(label, graph) for label, graph in _hand_built().items())
    + tuple(
        _des_case(f"forward {p}", _forward(MODEL_PHASES, p, layers=10, attention=9.0))
        for p in OVERLAP_POLICIES
    )
    + tuple(
        _des_case(
            f"training {p}",
            build_training_graph(
                MODEL_PHASES, MODEL_PHASES, 9.0, 18.0, 6, 40.0, 25.0, p
            ),
        )
        for p in OVERLAP_POLICIES
    )
    + tuple(
        _des_case(
            f"per-rank stragglers {p}",
            [_forward(STRAGGLER_PHASES, p, s, attention=50.0) for s in STRAGGLER_SPECS],
        )
        for p in OVERLAP_POLICIES
    )
    + tuple(
        _des_case(
            f"training slow rank 0 {p}",
            build_training_graph(
                STRAGGLER_PHASES, STRAGGLER_PHASES, 50.0, 100.0, 4, 80.0, 30.0,
                p, StragglerSpec.slow_rank(4, rank=0, compute_mult=1.5),
            ),
        )
        for p in OVERLAP_POLICIES
    )
    + tuple(
        _des_case(f"rank 0 zero comm {p}", _zero_comm_graph(p))
        for p in OVERLAP_POLICIES
    )
    + tuple(
        _des_case(f"chain slow rank {p}", _forward(BATCH_PHASES, p, SLOW8))
        for p in ("per_layer", "cross_layer")
    )
    + tuple(
        _des_case(f"folded slow rank {p}", _forward(BATCH_PHASES, p, SLOW6))
        for p in ("per_layer", "cross_layer", "shortcut")
    )
)


def _cases(strategy, build, label):
    return strategy.map(lambda value: build(label, value))


# -- serving loop and fleet ----------------------------------------------------

SMALL_TRACE = TraceSpec(kind="poisson", rps=20, duration_s=3, seed=0)
BURSTY = TraceSpec(kind="bursty", rps=60, duration_s=4, seed=2)


def _fleet_run(spec):
    results = spec.run()
    return results.reports, results.to_json()


def _serve_case(policy, kind, rps, seed, duration_s=3):
    scenario = ServeScenario(
        config=MIXTRAL_8X7B, cluster=CLUSTER, strategy=ParallelStrategy(1, 8),
        trace=TraceSpec(kind=kind, rps=rps, duration_s=duration_s, seed=seed),
        policy=policy,
    )

    def run():
        report = scenario.run_system(SYSTEM_REGISTRY.create("comet"))
        return report.records, report.timeline, json.dumps(
            report.summary(), sort_keys=True
        )

    return Case(
        f"serve {kind} {rps} rps {duration_s} s seed {seed} {policy}", run, all_off(run)
    )


SERVE_EXAMPLES = tuple(
    _serve_case(policy, kind, rps, seed)
    for kind, rps, seed in [("poisson", 60, 0), ("bursty", 150, 1), ("diurnal", 90, 2)]
    for policy in ("fcfs", "spf", "slo")
) + (
    # The decomposed fleet runs each replica through the serving loop.
    same(
        "fleet round_robin x1 poisson 20 rps",
        lambda: _fleet_run(FleetSpec.grid(traces=SMALL_TRACE, systems="comet")),
    ),
)

ORACLE_TRACE = TraceSpec(kind="poisson", rps=60, duration_s=2, seed=5)
BUSY_TRACE = TraceSpec(kind="poisson", rps=400, duration_s=2, seed=5)

#: The co-sim feature matrix: grid kwargs, plus a check that the
#: feature really acted in the run.
COSIM_FEATURES = {
    "autoscaler": (
        dict(
            traces=BUSY_TRACE, replicas=3,
            autoscalers=AutoscalerSpec(
                min_replicas=1, interval_ms=250.0, warmup_ms=300.0,
                scale_up_queue=2.0,
            ),
        ),
        lambda report: any(e.kind == "up" for e in report.events),
    ),
    "crash_recover": (
        dict(
            replicas=3,
            failures=(FailureEvent(replica=0, fail_ms=400.0, recover_ms=1200.0),),
        ),
        lambda report: report.failures == report.recoveries == 1,
    ),
    "disaggregated": (
        dict(replicas="2p+2d"),
        lambda report: any(d.pool == "decode" for d in report.dispatches),
    ),
    "disaggregated_migration": (
        dict(replicas="2p+2d", migrations=MigrationSpec()),
        lambda report: any(d.pool == "decode" for d in report.dispatches),
    ),
    "degrade_brownout": (
        dict(
            replicas="2p+2d", migrations=MigrationSpec(),
            faults=FaultPlan(
                degrades=(
                    DegradeEvent(
                        replica=2, t0_ms=300.0, t1_ms=1200.0,
                        compute_mult=3.0, comm_mult=3.0,
                    ),
                ),
                brownouts=(BrownoutEvent(t0_ms=200.0, t1_ms=1500.0, mult=4.0),),
            ),
        ),
        lambda report: any(e.kind == "degrade" for e in report.events),
    ),
    "resilience": (
        # Deadlines cancel hundreds of running sequences here, so stale
        # completion-map entries are skipped and re-admissions re-filed.
        dict(
            traces=BUSY_TRACE, replicas=3,
            faults=FaultPlan(
                crashes=(FailureEvent(replica=0, fail_ms=300.0, recover_ms=900.0),),
                degrades=(
                    DegradeEvent(
                        replica=1, t0_ms=200.0, t1_ms=1500.0,
                        compute_mult=4.0, comm_mult=4.0,
                    ),
                ),
            ),
            resilience=ResilienceSpec(
                timeout_ms=1500.0, max_retries=2, shed_factor=2.0,
                slow_factor=1.5, queue_factor=2.0,
                check_interval_ms=250.0, health_window_ms=750.0,
            ),
            slo_ttft_ms=300.0,
        ),
        lambda report: (
            report.retries > 0 and report.timed_out > 0
            and report.shed > 0 and report.probations > 0
        ),
    ),
    "overloaded": (
        dict(traces=TraceSpec(kind="poisson", rps=1500, duration_s=1, seed=5), replicas=2),
        lambda report: max(
            p.queue_depth for timeline in report.replica_timelines for p in timeline
        ) > 100,
    ),
}


def _cosim_case(label, spec, acted=lambda report: True):
    def keyed():
        reports, text = _fleet_run(spec)
        assert reports[0].records and acted(reports[0]), "feature did not act"
        return reports, text

    return Case(label, keyed, all_off(lambda: _fleet_run(spec)))


COSIM_EXAMPLES = tuple(
    _cosim_case(
        f"cosim {feature} {router}",
        FleetSpec.grid(
            **{"traces": ORACLE_TRACE, **kwargs}, routers=router, systems="comet"
        ),
        acted,
    )
    for feature, (kwargs, acted) in sorted(COSIM_FEATURES.items())
    for router in ("least_queue", "power_of_two")
)

cosim_cases = st.builds(
    lambda router, replicas, rps, seed: _cosim_case(
        f"cosim {router} x{replicas} {rps} rps seed {seed}",
        FleetSpec.grid(
            traces=TraceSpec(kind="poisson", rps=rps, duration_s=1, seed=seed),
            replicas=replicas, routers=router, systems="comet",
        ),
    ),
    st.sampled_from(("least_queue", "power_of_two")), st.integers(2, 3),
    st.integers(40, 160), st.integers(0, 20),
)

#: Systems whose timing is a pure function of the workload: the scope of
#: the decomposed/co-sim parity claim.  Adaptive COMET records each
#: bucket's division point from the first workload that probes it, and
#: the two paths probe buckets in different orders.
PURE_SYSTEMS = tuple(
    name
    for name in SYSTEM_REGISTRY.names()
    if SYSTEM_REGISTRY.create(name).timing_state_token() is None
)


def _decomposed_only(engine, system_name):
    assert engine._decomposable(), "the case must be decomposable"
    return FleetEngine._run_decomposed(engine, system_name)


def _decomposed_case(label, spec):
    def run_on(path):
        with mock.patch.object(FleetEngine, "run", path):
            return _fleet_run(spec)

    return Case(
        label,
        lambda: run_on(_decomposed_only),
        lambda: run_on(FleetEngine._run_cosim),
    )


DECOMPOSED_EXAMPLES = tuple(
    _decomposed_case(
        f"decomposed {system} {trace.kind}",
        FleetSpec.grid(
            traces=trace, systems=system, replicas=(1, 2, 4, 8),
            routers=("round_robin", "session_affinity"),
        ),
    )
    for trace in (SMALL_TRACE, BURSTY)
    for system in PURE_SYSTEMS
)

decomposed_cases = st.builds(
    lambda system, router, replicas, rps, seed: _decomposed_case(
        f"decomposed {system} {router} x{replicas} {rps} rps seed {seed}",
        FleetSpec.grid(
            traces=TraceSpec(kind="poisson", rps=rps, duration_s=1, seed=seed),
            systems=system, replicas=replicas, routers=router,
        ),
    ),
    st.sampled_from(PURE_SYSTEMS),
    st.sampled_from(("round_robin", "session_affinity")),
    st.integers(1, 3), st.integers(10, 80), st.integers(0, 20),
)


def test_pure_systems_cover_the_baselines():
    assert {"megatron-cutlass", "tutel", "fastermoe"} <= set(PURE_SYSTEMS)
    assert "comet" not in PURE_SYSTEMS


# -- payloads: the traffic the cost models price -------------------------------

HIDDEN, FFN = 24, 32
ROW_BYTES = HIDDEN * 4  # the executor ships float32 rows HIDDEN wide


def _payload_case(label, strategy, plan, owner, weights, x):
    config = MoEConfig(
        "tiny", 1, plan.num_experts, plan.experts.shape[1],
        hidden_size=HIDDEN, ffn_size=FFN,
    )
    workload = MoELayerWorkload(
        config, h800_node(strategy.world_size), strategy, plan, owner
    )

    def priced():
        geometry = WorkloadGeometry(workload)
        return (
            (geometry.pair_matrix * ROW_BYTES).tolist(),
            geometry.unique_tokens_per_rank.tolist(),
        )

    def moved():
        system = DistributedMoE(strategy, weights)
        system.forward(x, plan, owner)
        return (
            system.dispatch_matrix().tolist(),
            # Combine sends one partial row per (token, hosting rank).
            (system.combine_matrix().sum(axis=1) // ROW_BYTES).tolist(),
        )

    return Case(label, priced, moved)


def _payload_inputs(tp=1, ep=4, experts=8, tokens=64, topk=2, std=0.0, seed=0):
    rng = np.random.default_rng(seed)
    fractions = (
        imbalanced_fractions(experts, std, rng) if std > 0
        else balanced_fractions(experts)
    )
    plan = routing_from_fractions(tokens, topk, fractions, rng)
    strategy = ParallelStrategy(tp_size=tp, ep_size=ep)
    owner = token_owner_ranks(tokens, strategy.world_size)
    weights = ExpertWeights.init(experts, HIDDEN, FFN, rng)
    x = rng.normal(size=(tokens, HIDDEN)).astype(np.float32)
    return _payload_case(
        f"payload TP{tp}xEP{ep} E{experts} M{tokens} top{topk} std={std} seed={seed}",
        strategy, plan, owner, weights, x,
    )


def _payload_from_workload():
    config = MoEConfig("tiny", 1, 8, 2, hidden_size=HIDDEN, ffn_size=FFN)
    workload = make_workload(config, h800_node(4), ParallelStrategy(2, 2), 64, seed=0)
    weights = ExpertWeights.init(8, HIDDEN, FFN, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(64, HIDDEN)).astype(np.float32)
    return _payload_case(
        "payload make_workload TP2xEP2", workload.strategy, workload.plan,
        workload.owner, weights, x,
    )


PAYLOAD_EXAMPLES = (
    _payload_inputs(tp=2, ep=2),
    _payload_inputs(tp=1, ep=8),
    _payload_from_workload(),
)

payload_cases = st.builds(
    lambda tp, ep, groups, topk, per_rank, std, seed: _payload_inputs(
        tp, ep, 2 * ep * groups, per_rank * tp * ep, min(topk, 2 * ep * groups),
        std, seed,
    ),
    st.sampled_from((1, 2, 4)), st.sampled_from((1, 2, 4)), st.integers(1, 3),
    st.integers(1, 3), st.integers(1, 12), st.sampled_from((0.0, 0.05)),
    st.integers(0, 2**16),
)


# -- caches --------------------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """Everything a cache row's entry point reads; cases change one field."""

    system: str = "comet"
    knobs: tuple = ()
    config: MoEConfig = MIXTRAL_8X7B
    cluster: Any = CLUSTER
    strategy: ParallelStrategy = ParallelStrategy(1, 8)
    total_tokens: int = 1024
    imbalance_std: float = 0.0
    seed: int = 0
    plan_seed: int | None = None  # the routing plan drawn from this seed
    owner_shift: int = 0  # token owners rolled along the tokens
    layer: int = 0
    bucket_tokens: int = 256
    overlap_policy: str = "per_layer"
    stragglers: StragglerSpec | None = None
    tokened: bool = True  # False: the graph drops its builder token

    def workload_args(self) -> tuple:
        return (
            self.config, self.cluster, self.strategy, self.total_tokens,
            self.imbalance_std, self.seed,
        )

    def workload(self) -> MoELayerWorkload:
        workload = make_workload(*self.workload_args())
        if self.plan_seed is not None:
            args = self.workload_args()[:-1] + (self.plan_seed,)
            workload = replace(workload, plan=make_workload(*args).plan)
        if self.owner_shift:
            workload = replace(
                workload, owner=np.roll(workload.owner, self.owner_shift)
            )
        return workload

    def graph(self) -> ScheduleGraph:
        graph = _forward(BATCH_PHASES, self.overlap_policy, self.stragglers, layers=3)
        # A graph without a token keys its caches by its sha1 topology.
        return graph if self.tokened else graph.with_durations(graph.durations)


#: One changed value per constructor knob of every registered system.
KNOB_VALUES = {
    "reschedule": False, "adaptive": False, "fixed_nc": 8,
    "specialized": False, "gemm_scale": 1.5, "fabric_contention": True,
}


def _knobs(name) -> tuple[str, ...]:
    params = inspect.signature(type(SYSTEM_REGISTRY.create(name)).__init__).parameters
    return tuple(knob for knob in params if knob != "self")


def _system_changes(name):
    """The next registered system of another class with the same knobs
    (when there is one), and one changed value per knob."""
    names = SYSTEM_REGISTRY.names()
    i = names.index(name)
    siblings = [
        other for other in names[i + 1:] + names[:i] if _knobs(other) == _knobs(name)
    ]
    return tuple(("system", other) for other in siblings[:1]) + tuple(
        (knob, KNOB_VALUES[knob]) for knob in _knobs(name)
    )


def _straggler_changes(base: StragglerSpec):
    """One changed value per :class:`StragglerSpec` field: rank 2 made
    slow enough to pace the step."""
    def bumped(mults):
        return tuple(m * 3.0 if r == 2 else m for r, m in enumerate(mults))
    return tuple(
        (f.name, bumped(getattr(base, f.name)) if f.name != "name" else "renamed")
        for f in dataclasses.fields(StragglerSpec)
    )


def _input_changes(base: Inputs) -> dict[str, tuple]:
    """The changed values for each input a cached entry point takes, by
    parameter name.  A ``workload`` changes in every ``make_workload``
    argument and every :class:`MoELayerWorkload` field, a ``graph`` in
    its overlap policy and straggler spec."""
    policies = OVERLAP_POLICIES
    next_policy = policies[(policies.index(base.overlap_policy) + 1) % len(policies)]
    half_a_rank = base.total_tokens // base.strategy.world_size // 2
    changes = {
        "system": _system_changes(base.system),
        "config": (("config", QWEN2_MOE),),
        "cluster": (("cluster", l20_node()),),
        "strategy": (("strategy", ParallelStrategy(2, 4)),),
        "total_tokens": (("total_tokens", 2 * base.total_tokens),),
        "imbalance_std": (("imbalance_std", 0.03),),
        "seed": (("seed", base.seed + 1),),
        "plan": (("plan_seed", base.seed + 1),),
        "owner": (("owner_shift", half_a_rank),),
        "layer": (("layer", 1),),
        "bucket_tokens": (("bucket_tokens", 512),),
        "overlap_policy": (("overlap_policy", next_policy),),
    }
    if base.stragglers is not None:
        changes["stragglers"] = _straggler_changes(base.stragglers)
        changes["graph"] = changes["overlap_policy"] + changes["stragglers"]
    workload_inputs = dict.fromkeys([
        *inspect.signature(make_workload).parameters,
        *(f.name for f in dataclasses.fields(MoELayerWorkload)),
    ])
    changes["workload"] = sum((changes[name] for name in workload_inputs), ())
    return changes


def _changes(entry_point):
    """``changes(base)`` for a cache row: the changed values of every
    parameter of ``entry_point``.  A parameter :func:`_input_changes`
    has no value for raises KeyError, so a new input fails its row."""
    def changes(base):
        table = _input_changes(base)
        return tuple(
            change
            for name in inspect.signature(entry_point).parameters
            for change in table[name]
        )
    return changes


def _changed(base: Inputs, field: str, value) -> Inputs:
    if field in KNOB_VALUES:
        return replace(base, knobs=base.knobs + ((field, value),))
    if field in {f.name for f in dataclasses.fields(StragglerSpec)}:
        return replace(base, stragglers=replace(base.stragglers, **{field: value}))
    return replace(base, **{field: value})


def _cache_case(base: Inputs, field: str, value, probe, oracle=None) -> Case:
    """Warm with ``base``, then read ``base`` changed in ``field``.

    ``probe(inputs, systems)`` runs the cached entry point; ``systems``
    hands out one system instance per (name, knobs), so a history-
    dependent system sees the whole probe sequence, and the oracle run
    (the same sequence with the cache bypassed) gets a twin.  Caches no
    flag bypasses pass an ``oracle(inputs)`` that skips them instead.
    """
    changed = _changed(base, field, value)

    def run(final):
        instances: dict = {}

        def systems(inputs):
            key = (inputs.system, inputs.knobs)
            if key not in instances:
                instances[key] = SYSTEM_REGISTRY.create(inputs.system, **dict(inputs.knobs))
            return instances[key]

        probe(base, systems)
        try:
            return final(changed, systems)
        except UnsupportedWorkload as exc:  # the cached path must raise too
            return "unsupported", str(exc)

    untokened = "" if base.tokened else "/untokened"
    return Case(
        f"{base.system}/{base.overlap_policy}{untokened} seed={base.seed} "
        f"M{base.total_tokens} {field}={getattr(value, 'name', value)!r}",
        lambda: run(probe),
        lambda: run(probe) if oracle is None else oracle(changed),
    )


def _cache_cases(probe, changes, bases, oracle=None):
    """Every (base, field) as a fixed example, and a strategy that also
    varies the base's routing seed, token count and slow rank."""
    examples = tuple(
        _cache_case(base, field, value, probe, oracle)
        for base in bases for field, value in changes(base)
    )

    @st.composite
    def cases(draw):
        base = replace(
            draw(st.sampled_from(bases)), seed=draw(st.integers(0, 99)),
            total_tokens=draw(st.sampled_from((1024, 2048))),
        )
        if base.stragglers is not None:
            base = replace(base, stragglers=StragglerSpec.slow_rank(
                8, draw(st.integers(0, 7)), draw(st.sampled_from((1.2, 2.0))), 1.3,
            ))
        field, value = draw(st.sampled_from(changes(base)))
        return _cache_case(base, field, value, probe, oracle)

    return examples, cases()


SYSTEM_BASES = tuple(Inputs(system=name) for name in SYSTEM_REGISTRY.names())
STRAGGLER_BASE = StragglerSpec.slow_rank(8, rank=1, compute_mult=1.5, comm_mult=1.3)


def _timing(inputs, systems):
    return perf.cached_time_layer(systems(inputs), inputs.workload())


def _workload_obs(workload):
    return (
        workload.config, workload.cluster, workload.strategy,
        workload.plan.experts.tobytes(), workload.plan.weights.tobytes(),
        workload.owner.tobytes(),
    )


def _shared_workload(inputs, systems):
    return _workload_obs(perf.shared_workload(*inputs.workload_args()))


def _routing_key(inputs):
    return (
        inputs.config.num_experts, inputs.config.topk, inputs.total_tokens,
        inputs.imbalance_std, inputs.seed,
    )


def _plan_obs(plan):
    return plan.experts.tobytes(), plan.weights.tobytes()


def _routing(inputs, systems):
    return _plan_obs(inputs.workload().plan)


def _graph_schedule(inputs, systems):
    return _obs(perf.cached_graph_schedule(inputs.graph()))


def _lowering(inputs, systems):
    graph = inputs.graph()
    return (  # scheduled through the compiled topology, past GRAPH_CACHE
        graph.fingerprint(), graph.topology_token, list(graph.preds),
        graph.nodes, _obs(perf._schedule_plain(graph)),
    )


def _step_cost(inputs, systems):
    model = perf.shared_step_cost(
        systems(inputs), inputs.config, inputs.cluster, inputs.strategy,
        bucket_tokens=inputs.bucket_tokens,
        overlap_policy=inputs.overlap_policy, stragglers=inputs.stragglers,
    )
    return model.step_us(300, 40)


def _nc_sweep(inputs, systems):
    return perf.shared_nc_sweep(systems(inputs), inputs.workload(), inputs.layer)


TIMING_EXAMPLES, timing_cases = _cache_cases(
    _timing, _changes(perf.cached_time_layer), SYSTEM_BASES
)
WORKLOAD_EXAMPLES, workload_cases = _cache_cases(
    _shared_workload, _changes(perf.shared_workload), (Inputs(),),
    oracle=lambda inputs: _workload_obs(make_workload(*inputs.workload_args())),
)
ROUTING_EXAMPLES, routing_cases = _cache_cases(
    _routing, _changes(make_workload), (Inputs(),),
    oracle=lambda inputs: _plan_obs(_synthesise_routing(*_routing_key(inputs))),
)
GRAPH_BASES = tuple(
    Inputs(overlap_policy=policy, stragglers=STRAGGLER_BASE)
    for policy in OVERLAP_POLICIES
) + (Inputs(stragglers=STRAGGLER_BASE, tokened=False),)
GRAPH_EXAMPLES, graph_cases = _cache_cases(
    _graph_schedule, _changes(perf.cached_graph_schedule), GRAPH_BASES
)
LOWERING_EXAMPLES, lowering_cases = _cache_cases(
    _lowering, _changes(perf.compiled_topology), GRAPH_BASES
)
STEP_COST_EXAMPLES, step_cost_cases = _cache_cases(
    _step_cost, _changes(perf.shared_step_cost),
    (Inputs(system="comet", stragglers=STRAGGLER_BASE),),
)
NC_SWEEP_EXAMPLES, nc_sweep_cases = _cache_cases(
    _nc_sweep, _changes(perf.shared_nc_sweep), (Inputs(),)
)


# -- the table -----------------------------------------------------------------

PAIRS = (
    Pair(
        layer0_makespan_analytic, layer0_makespan_reference,
        st.one_of(
            st.builds(
                _layer0_fused_case, st.integers(0, 2**16), st.integers(1, 64),
                st.sampled_from([1, 2, 4, 8]), st.integers(1, 6),
                st.integers(1, 8), st.sampled_from([128, 1024, 4096]),
                st.booleans(),
            ),
            st.builds(
                _wave_case, st.integers(0, 2**16), st.integers(1, 140),
                st.integers(1, 40), st.integers(0, 80),
            ),
        ),
        flag="analytic_layer0", max_examples=120,
    ),
    Pair(
        layer0_makespan_reference, des_layer0_makespan, _layer0_des_cases(),
        examples=LAYER0_DES_EXAMPLES, max_examples=30,
    ),
    Pair(
        Comet.time_layer, Comet.time_layer,
        st.builds(
            lambda tp, std, seed, tokens, fabric: _dedup_case(
                tp, 8 // tp, std, seed, tokens, fabric
            ),
            st.sampled_from((1, 2, 4, 8)), st.sampled_from((0.0, 0.01, 0.03, 0.05)),
            st.integers(0, 50), st.sampled_from((1024, 2048, 4096)), st.booleans(),
        ),
        flag="rank_dedup", examples=DEDUP_EXAMPLES, max_examples=8,
    ),
    Pair(
        (fast_schedule, schedule_batch), list_schedule,
        st.one_of(
            _cases(chain_graphs, lambda label, g: _graph_case(label, g, _chain_fast), "chain"),
            _cases(random_graphs, lambda label, g: _graph_case(label, g, fast_schedule), "random"),
            graph_batches.map(_batch_case),
        ),
        flag="graph_batch", examples=BATCH_EXAMPLES, max_examples=230,
    ),
    Pair(
        (reduce_symmetry, expand_symmetry, perf._fast_symmetric_schedule),
        list_schedule,
        st.one_of(
            _cases(blocked_graphs, _symmetry_case, "blocked"),
            _cases(builder_graphs, _symmetry_case, "builder"),
            _cases(random_graphs, _symmetry_case, "random"),
        ),
        flag="graph_symmetry", examples=SYMMETRY_EXAMPLES, max_examples=260,
    ),
    Pair(
        list_schedule, des_schedule,
        st.one_of(
            _cases(random_graphs, _des_case, "random"),
            _cases(dense_graphs, _des_case, "dense"),
            _cases(phase_graph_sets, _des_case, "policy graphs"),
            _cases(chain_graphs, _des_case, "chain"),
            _cases(blocked_graphs, _des_case, "blocked"),
            _cases(graph_batches, _des_case, "batch"),
            _cases(builder_graphs, _des_case, "builder"),
        ),
        examples=DES_EXAMPLES, max_examples=655,
    ),
    Pair(
        ContinuousBatchingScheduler._run_fast, ContinuousBatchingScheduler._run_des,
        st.builds(
            _serve_case, st.sampled_from(("fcfs", "spf", "slo")),
            st.sampled_from(("poisson", "bursty", "diurnal")), st.integers(20, 150),
            st.integers(0, 20), st.integers(1, 2),
        ),
        flag="fast_serve_loop", examples=SERVE_EXAMPLES, max_examples=2,
    ),
    Pair(
        ReplicaCore.close, ReplicaCore.retire_per_token, cosim_cases,
        flag="fast_serve_loop", examples=COSIM_EXAMPLES, max_examples=2,
    ),
    Pair(
        FleetEngine._run_decomposed, FleetEngine._run_cosim, decomposed_cases,
        examples=DECOMPOSED_EXAMPLES, max_examples=1,
    ),
    Pair(
        (WorkloadGeometry.pair_matrix, WorkloadGeometry.unique_tokens_per_rank),
        DistributedMoE, payload_cases,
        examples=PAYLOAD_EXAMPLES, max_examples=20,
    ),
    Pair(
        perf.cached_time_layer, MoESystem.time_layer, timing_cases,
        flag="timing_cache", examples=TIMING_EXAMPLES, max_examples=5,
        cache=perf.TIMING_CACHE,
    ),
    Pair(
        perf.shared_workload, make_workload, workload_cases,
        examples=WORKLOAD_EXAMPLES, max_examples=3,
        cache=perf.WORKLOAD_CACHE,
    ),
    Pair(
        make_workload, _synthesise_routing, routing_cases,
        examples=ROUTING_EXAMPLES, max_examples=3,
        cache=perf.ROUTING_CACHE,
    ),
    Pair(
        perf.cached_graph_schedule, perf._schedule_graph, graph_cases,
        flag="timing_cache", examples=GRAPH_EXAMPLES, max_examples=3,
        cache=perf.GRAPH_CACHE,
    ),
    Pair(
        (perf.lowered_skeleton, perf.compiled_topology), build_forward_graph,
        lowering_cases,
        flag="graph_batch", examples=LOWERING_EXAMPLES, max_examples=3,
        cache=perf.GRAPH_BATCH_CACHE,
    ),
    Pair(
        perf.shared_step_cost, StepCostModel, step_cost_cases,
        flag="timing_cache", examples=STEP_COST_EXAMPLES, max_examples=3,
        cache=perf.STEP_COST_CACHE,
    ),
    Pair(
        perf.shared_nc_sweep, Comet.sweep_division_points, nc_sweep_cases,
        flag="timing_cache", examples=NC_SWEEP_EXAMPLES, max_examples=3,
        cache=perf.NC_SWEEP_CACHE,
    ),
)


def _name(obj) -> str:
    if isinstance(obj, tuple):
        return "+".join(map(_name, obj))
    if isinstance(obj, property) or hasattr(obj, "attrname"):
        obj = obj.fget if isinstance(obj, property) else obj.func
    return getattr(obj, "__qualname__", repr(obj))


def _flagged(flag: str | None, value: bool):
    return perf.configure(**{flag: value}) if flag else nullcontext()


def _row_id(pair: Pair) -> str:
    return f"{_name(pair.fast)}=={_name(pair.oracle)}"


def _check(pair: Pair, case: Case) -> None:
    if pair.cache is not None:
        perf.clear_caches()
    with _flagged(pair.flag, True):
        fast = case.fast()
    if pair.cache is not None:
        stats = pair.cache.stats()
        assert stats["hits"] + stats["misses"], "the case never reached the cache"
    with _flagged(pair.flag, False):
        oracle = case.oracle()
    assert fast == oracle, case.label


@pytest.mark.parametrize("pair", PAIRS, ids=map(_row_id, PAIRS))
def test_fast_path_equals_oracle(pair):
    settings(max_examples=pair.max_examples, deadline=None, database=None)(
        given(case=pair.cases)(lambda case: _check(pair, case))
    )()


@pytest.mark.parametrize(
    "pair, case",
    [(pair, case) for pair in PAIRS for case in pair.examples],
    ids=[f"{_row_id(pair)}-{case.label}" for pair in PAIRS for case in pair.examples],
)
def test_fixed_case_equals_oracle(pair, case):
    _check(pair, case)


# -- coverage: the table against the code --------------------------------------

FAST_PATH_SEGMENTS = {"fast", "analytic", "decomposed", "symmetry", "symmetric"}
FINGERPRINT_METHODS = {
    "fingerprint", "timing_key", "timing_state_token", "topology_fingerprint",
}


def _product_modules():
    """Every module of the imported package outside the oracles and lint."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        name = info.name
        if name.startswith(("repro.oracles", "repro.lint")) or name.endswith("__main__"):
            continue
        modules.append(importlib.import_module(name))
    return modules


def _defined(module):
    """(name, object) of every function and class defined in ``module``,
    methods included."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield attr, member


def test_every_perf_flag_has_a_row():
    flags = {pair.flag for pair in PAIRS}
    missing = [f.name for f in dataclasses.fields(perf.PerfConfig) if f.name not in flags]
    assert not missing, f"PerfConfig flags with no oracle row: {missing}"


def test_every_fast_path_is_some_rows_fast():
    fast = {id(obj) for pair in PAIRS for obj in pair.fast_paths}
    named = {
        f"{obj.__module__}.{obj.__qualname__}"
        for module in _product_modules()
        for name, obj in _defined(module)
        if inspect.isfunction(obj)
        and FAST_PATH_SEGMENTS & set(name.split("_"))
        and id(obj) not in fast
    }
    assert not named, f"fast paths with no oracle row: {sorted(named)}"


def _package_reads(classes, run) -> set[type]:
    """The classes whose fingerprint methods the package itself calls
    while ``run()`` runs (a call from this module does not count)."""
    reached: set[type] = set()

    def spy(cls, method):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("repro."):
                reached.add(cls)
            return method(*args, **kwargs)
        return wrapper

    with ExitStack() as stack:
        for cls in classes:
            for name in FINGERPRINT_METHODS & set(vars(cls)):
                stack.enter_context(
                    mock.patch.object(cls, name, spy(cls, vars(cls)[name]))
                )
        run()
    return reached


def _run_cached(pair: Pair, case: Case) -> None:
    """``case.fast()`` from empty caches, with the row's flag on."""
    perf.clear_caches()
    with _flagged(pair.flag, True):
        case.fast()


def test_every_fingerprinted_class_and_cache_is_perturbed():
    """Every cache has a row, and the package reads every fingerprinted
    class's fingerprint while the cache rows' fixed cases run cached.

    Every case first warms its cache with its base, so one case per base
    makes every read of that base's path.
    """
    fingerprinted = {
        obj
        for module in _product_modules()
        for _, obj in _defined(module)
        if inspect.isclass(obj) and FINGERPRINT_METHODS & set(vars(obj))
    }
    assert fingerprinted >= {ScheduleGraph, StragglerSpec, MoELayerWorkload, MoESystem, Comet}
    rows = [pair for pair in PAIRS if pair.cache is not None]
    cached = {id(pair.cache) for pair in rows}
    assert [c.name for c in perf._CACHES if id(c) not in cached] == []
    one_per_base = {
        (pair.cache.name, case.label.split(" seed=")[0]): (pair, case)
        for pair in rows for case in pair.examples
    }
    reached = _package_reads(
        fingerprinted, lambda: [_run_cached(*run) for run in one_per_base.values()]
    )
    assert not fingerprinted - reached, fingerprinted - reached


# -- the oracles stay off the product import path ------------------------------


def test_import_repro_loads_no_oracle():
    """No module ``import repro`` loads is an oracle or exposes one."""
    names = [oracle.__name__ for oracle in (des_schedule, des_layer0_makespan, DistributedMoE)]
    code = (
        "import sys, repro\n"
        f"names = {names!r}\n"
        "print(sorted(name for name, module in list(sys.modules.items())\n"
        "    if name.startswith('repro.oracles') or (name.startswith('repro')\n"
        "    and any(hasattr(module, n) for n in names))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_no_product_module_imports_an_oracle():
    package = Path(repro.__file__).parent
    pattern = re.compile(r"^\s*(from|import)\s+repro\.oracles\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "oracles" not in path.parts and pattern.search(path.read_text())
    ]
    assert offenders == []
