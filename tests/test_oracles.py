"""The oracle table: every fast path and every cache against its oracle.

Each row of :data:`PAIRS` pairs one fast path (or a cache's entry point)
with the computation it must reproduce exactly, and one harness,
:func:`_check`, runs every row: on the hypothesis draws of its ``cases``,
and on each of its fixed ``examples`` as a test of its own, so a broken
regression case shows up under its own name.  ``fast`` and ``oracle``
are the imported objects themselves, so a rename fails at import.  The
single-scenario serving cases and the fleet co-sim cases run their
oracle side with every fast path swapped for its reference and the
caches bypassed (:func:`repro.oracles.reference_paths`).

Cache rows draw a base input and a copy with exactly one field changed:
one change per parameter of the cached entry point, looked up by name
in :func:`_input_changes`, so a new parameter fails its row until it
gets a value.  They start from empty caches, warm the cache with the
base, then require the cached entry point on the changed input to equal
the computation with the caches bypassed, so a field that never reaches
the cache key fails its row.  Each probe builds its own system
instances, so every cache row also checks that a fresh instance reads
entries another instance wrote.

Two coverage tests walk the imported ``repro`` package and tie the
table to the code: every function named like a fast path is some row's
``fast``, every cache in ``perf._CACHES`` has a row, and the package
reads the fingerprint of every fingerprinted class while the cache rows
run.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import math
import pkgutil
import random
import subprocess
import sys
import threading
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
import repro.moe.routing as routing_module
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
    run_model,
)
from repro.fleet import AutoscalerSpec, FailureEvent
from repro.fleet.router import ROUTER_REGISTRY, PowerOfTwo
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
from repro.hw.multinode import IB_400G, h800_pod
from repro.hw.presets import NVLINK_H800, l20_node
from repro.kernels.assignment import default_variants, profile_division_points
from repro.kernels.fabric import FetchRun, simulate_fetch_fabric
from repro.kernels.fused import (
    Layer1CommWork,
    _comm_rate,
    layer0_makespan_analytic,
    layer0_makespan_reference,
    simulate_layer0_fused,
    simulate_layer0_vertical,
    simulate_layer1_fused,
    simulate_layer1_vertical,
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
from repro.moe.routing import ExpertStream
from repro.oracles import reference_paths
from repro.oracles.distributed import DistributedMoE
from repro.oracles.fleet_des import des_cosim, scalar_probes
from repro.oracles.graph_des import des_schedule
from repro.oracles.layer0_des import des_layer0_makespan
from repro.oracles.layer0_schedule import sorted_layer0_schedule
from repro.oracles.routing import gumbel_routing_from_fractions
from repro.oracles.serve_des import des_run, per_token_close
from repro.runtime.workload import (
    MoELayerWorkload,
    WorkloadGeometry,
    _balanced_plan,
    _synthesise_routing,
    make_workload,
)
from repro.serve import ServeScenario
from repro.serve.scheduler import ContinuousBatchingScheduler, ReplicaCore
from repro.sim import Tracer
from repro.systems import Comet
from repro.systems.base import LayerTiming, MoESystem, UnsupportedWorkload
from repro.tensor import build_layer0_schedule, build_layer1_schedule
from repro.tensor.reschedule import (
    POLICY_COLUMN_MAJOR,
    POLICY_EXPERT_MAJOR,
    POLICY_SORTED,
    POLICY_TOKEN_ORDER,
)

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


def referenced(run: Callable[[], Any], caches_only: bool = False) -> Callable[[], Any]:
    """``run`` under :func:`reference_paths`."""
    def oracle():
        with reference_paths(caches_only=caches_only):
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
    # A traced kernel runs the heapq reference.
    return Case(
        f"simulate_layer0_fused(seed={seed}, nc={nc}, world={world}, "
        f"experts={experts}, scale={scale}, cols={cols}, "
        f"arrival_fn={use_arrival_fn})",
        lambda: simulate_layer0_fused(CLUSTER.gpu, CLUSTER.link, schedule, **kwargs),
        lambda: simulate_layer0_fused(
            CLUSTER.gpu, CLUSTER.link, schedule, tracer=Tracer(), **kwargs
        ),
    )


def _scan_case(label, ready, col_tiles, np_blocks, per_tile):
    ready = np.asarray(ready, dtype=np.float64)
    return Case(
        label,
        lambda: layer0_makespan_analytic(ready, col_tiles, np_blocks, per_tile),
        lambda: layer0_makespan_reference(
            ready, np.arange(ready.size), col_tiles, np_blocks, per_tile
        ),
    )


def _wave_case(seed, np_blocks, col_tiles, blocks):
    rng = np.random.default_rng(seed)
    return _scan_case(
        f"waves(seed={seed}, np={np_blocks}, col_tiles={col_tiles}, blocks={blocks})",
        np.sort(rng.uniform(0.0, 50.0, size=blocks)), col_tiles, np_blocks,
        float(rng.uniform(0.01, 2.0)),
    )


_SPREAD = np.sort(np.random.default_rng(5).uniform(0.0, 40.0, size=12))
#: The two-lane scan's edge cases: which servers can finish last.
SCAN_EXAMPLES = (
    _scan_case("final wave exactly full", _SPREAD, 6, 8, 0.7),
    _scan_case("final wave one tile short", _SPREAD, 6, 7, 0.7),
    _scan_case("np_blocks above the tile count", _SPREAD[:3], 2, 130, 1.1),
    _scan_case("np_blocks equal to the tile count", _SPREAD[:4], 3, 12, 1.1),
    _scan_case("np_blocks = 1", _SPREAD, 3, 1, 0.25),
    _scan_case("all ready times equal", np.full(20, 7.5), 16, 54, 0.9),
    _scan_case(
        "heavily tied ready times",
        np.repeat([0.0, 2.0, 2.5, 9.0], [7, 11, 5, 9]), 7, 13, 0.5,
    ),
    _scan_case("ready long after the ramp", _SPREAD + 100.0, 5, 9, 0.3),
    _scan_case("zero blocks", np.empty(0), 16, 54, 1.0),
    _scan_case("zero column tiles", _SPREAD, 0, 54, 1.0),
)


def _layer0_des_case(label, pairs, nc, cols=1024, k=2048):
    schedule = build_layer0_schedule(pairs, rank=0)
    kwargs = dict(
        token_bytes=4096, k=k, cols=cols, nc=nc if schedule.num_remote else 0
    )

    def heapq_path():  # a traced kernel runs the heapq loop
        return simulate_layer0_fused(
            CLUSTER.gpu, CLUSTER.link, schedule, tracer=Tracer(), **kwargs
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


# -- sorted layer0 schedule ----------------------------------------------------


def _schedule_obs(schedule):
    arrays = (schedule.rowblock_expert, schedule.rowblock_rows, schedule.rowblock_last_fetch)
    return (
        tuple((str(a.dtype), a.tolist()) for a in arrays),
        schedule.num_remote, schedule.num_local, schedule.tile_tm, schedule.policy,
    )


def _schedule_case(label, pairs, rank, tile_tm):
    pairs = np.asarray(pairs, dtype=np.int64)
    return Case(
        f"{label} (W={pairs.shape[0]}, E={pairs.shape[1]}, rank={rank}, tile_tm={tile_tm})",
        lambda: _schedule_obs(build_layer0_schedule(pairs, rank, tile_tm=tile_tm)),
        lambda: _schedule_obs(sorted_layer0_schedule(pairs, rank, tile_tm=tile_tm)),
    )


@st.composite
def _schedule_cases(draw):
    world = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    experts = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    high = draw(st.sampled_from([2, 40, 300]))
    density = draw(st.sampled_from([0.3, 1.0]))
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, high, size=(world, experts)) * (
        rng.random((world, experts)) < density
    )
    return _schedule_case(
        f"seed={seed}, high={high}, density={density}", pairs,
        draw(st.integers(0, world - 1)), draw(st.sampled_from([1, 7, 64, 128])),
    )


SCHEDULE_EXAMPLES = (
    _schedule_case("one rank", [[300, 0, 129]], 0, 128),
    _schedule_case("no pairs", np.zeros((4, 3)), 2, 128),
    _schedule_case("all local", [[0, 0], [256, 5], [0, 0]], 1, 128),
    _schedule_case("all remote", [[0, 0], [400, 400], [100, 700], [0, 3]], 0, 128),
    _schedule_case(
        "local count on a block boundary", [[128, 64], [200, 0], [0, 65]], 0, 64
    ),
    _schedule_case("one row per block", [[2, 0, 1], [1, 3, 0], [0, 2, 2]], 2, 1),
    _schedule_case(
        "runs spanning blocks",
        np.random.default_rng(3).integers(0, 600, size=(8, 4)), 5, 128,
    ),
    _schedule_case(
        "sparse experts",
        [[0, 9, 0, 0], [0, 0, 0, 130], [7, 0, 0, 0], [0, 0, 0, 1]], 3, 7,
    ),
)


# -- COMET layer1 division-point sweep -------------------------------------------


def _layer0_kernel(comet, workload, schedule, nc, arrival_fn=None):
    """One of ``comet``'s layer0 kernels priced alone: a rank with nothing
    to fetch runs with no comm blocks."""
    config, cluster = workload.config, workload.cluster
    kwargs = dict(
        token_bytes=config.token_bytes, k=config.hidden_size,
        cols=config.ffn_size // workload.strategy.tp_size,
        dtype_bytes=config.dtype_bytes, compute_scale=comet.gemm_scale,
    )
    if not comet.specialized:
        return simulate_layer0_vertical(cluster.gpu, cluster.link, schedule, **kwargs)
    if not schedule.num_remote:
        nc, arrival_fn = 0, None
    return simulate_layer0_fused(
        cluster.gpu, cluster.link, schedule, nc=nc, arrival_fn=arrival_fn, **kwargs
    )


def _layer1_kernel(comet, workload, schedule, comm, nc):
    """One of ``comet``'s layer1 kernels priced alone: the top-k reduce
    keeps one comm block when no reduced row leaves the rank."""
    config, cluster = workload.config, workload.cluster
    kwargs = dict(
        k=config.ffn_size // workload.strategy.tp_size, cols=config.hidden_size,
        dtype_bytes=config.dtype_bytes, compute_scale=comet.gemm_scale,
    )
    if not comet.specialized:
        return simulate_layer1_vertical(cluster.gpu, cluster.link, schedule, comm, **kwargs)
    if not comm.remote_bulk_rows + comm.remote_fine_rows:
        nc = max(1, nc)
    return simulate_layer1_fused(cluster.gpu, cluster.link, schedule, comm, nc=nc, **kwargs)


def _layer1_sweep_per_nc(comet, workload, variant_step):
    """The layer1 sweep as one single-``nc`` kernel simulation per variant."""
    config = workload.config
    rank = workload.geometry.bottleneck_rank
    schedule = build_layer1_schedule(
        workload.geometry.rank_workload(rank).expert_rows, cols=config.hidden_size,
        policy=POLICY_COLUMN_MAJOR if comet.reschedule else POLICY_EXPERT_MAJOR,
    )
    comm = comet.layer1_comm_work(workload, rank)
    return profile_division_points(
        lambda nc: _layer1_kernel(comet, workload, schedule, comm, nc).duration_us,
        default_variants(workload.cluster.gpu.num_sms, step=variant_step),
    )


def _layer1_sweep_case(cluster, tp, tokens, std, seed, step, reschedule=True, specialized=True):
    def curve(sweep):
        comet = Comet(reschedule=reschedule, specialized=specialized)
        workload = make_workload(
            MIXTRAL_8X7B, cluster, ParallelStrategy(tp, cluster.world_size // tp),
            tokens, std, seed,
        )
        result = sweep(comet, workload, step)
        return list(result.durations_us.items()), result.best_nc

    return Case(
        f"layer1 sweep {cluster.name} TP{tp} M{tokens} std={std} seed={seed} "
        f"step={step} reschedule={reschedule} specialized={specialized}",
        lambda: curve(lambda comet, workload, step: comet.sweep_division_points(
            workload, 1, variant_step=step
        )),
        lambda: curve(_layer1_sweep_per_nc),
    )


LAYER1_SWEEP_EXAMPLES = tuple(
    _layer1_sweep_case(cluster, tp, 4096, 0.02, 1, step, reschedule, specialized)
    for cluster in (CLUSTER, l20_node())
    for tp, step, reschedule, specialized in [
        (1, 2, True, True), (2, 4, True, True), (8, 8, True, True),
        (1, 4, False, True), (4, 2, True, False), (1, 8, False, False),
    ]
) + (_layer1_sweep_case(h800_node(1), 1, 2048, 0.0, 0, 4),)

layer1_sweep_cases = st.builds(
    _layer1_sweep_case,
    st.sampled_from((CLUSTER, l20_node(), h800_node(4))), st.sampled_from((1, 2, 4)),
    st.sampled_from((1024, 4096, 8192)), st.sampled_from((0.0, 0.01, 0.04)),
    st.integers(0, 50), st.sampled_from((2, 4, 8)), st.booleans(), st.booleans(),
)


# -- COMET's batched layers ------------------------------------------------------


def _rank_pairs(workload, rank):
    """``rank``'s (source rank, local expert) pair counts, from the plan."""
    experts = workload.strategy.experts_of_rank(rank, workload.config.num_experts)
    return workload.plan.counts_by_rank(workload.owner)[:, experts]


def _combine_split(workload, rank):
    """(local, remote_bulk, remote_fine) owners of the tokens with an
    expert in ``rank``'s EP group, counted token by token."""
    strategy = workload.strategy
    per_group = workload.config.num_experts // strategy.ep_size
    present = (workload.plan.experts // per_group == strategy.ep_rank(rank)).any(axis=1)
    owners = workload.owner[present]
    local = int((owners == rank).sum())
    bulk = int(np.isin(owners, strategy.tp_group_of(rank)).sum()) - local
    return local, bulk, owners.size - local - bulk


def _fabric_arrivals(workload, pairs, nc):
    """Each rank's arrival curve from the joint fetch fabric."""
    config, link, world = workload.config, workload.cluster.link, workload.world_size
    runs = [
        [FetchRun(src=(rank + d) % world, tokens=int(pairs[rank][(rank + d) % world].sum()))
         for d in range(1, world)]
        for rank in range(world)
    ]
    return [
        timeline.arrival_time
        for timeline in simulate_fetch_fabric(
            runs, config.token_bytes,
            np.full(world, _comm_rate(link, nc, config.token_bytes)),
            np.full(world, link.bytes_per_us), latency_us=link.latency_us,
        )
    ]


def _per_rank_comet(comet, workload):
    """COMET's layer timing and layer0 division-point sweep as loops of
    one-row calls: every rank's schedule and kernel on its own, then
    every variant on its own."""
    config, world = workload.config, workload.world_size
    policy0 = POLICY_SORTED if comet.reschedule else POLICY_TOKEN_ORDER
    policy1 = POLICY_COLUMN_MAJOR if comet.reschedule else POLICY_EXPERT_MAJOR
    nc0, nc1 = comet.division_point(workload, 0), comet.division_point(workload, 1)
    pairs = [_rank_pairs(workload, rank) for rank in range(world)]
    arrivals = [None] * world
    if comet.fabric_contention and world > 1:
        arrivals = _fabric_arrivals(workload, pairs, nc0)
    layer0 = [
        _layer0_kernel(
            comet, workload, build_layer0_schedule(pairs[rank], rank, policy=policy0),
            nc0, arrivals[rank],
        )
        for rank in range(world)
    ]
    comms = [
        Layer1CommWork(int(pairs[rank].sum()), *_combine_split(workload, rank), config.token_bytes)
        for rank in range(world)
    ]
    layer1 = [
        _layer1_kernel(
            comet, workload,
            build_layer1_schedule(pairs[rank].sum(axis=0), cols=config.hidden_size, policy=policy1),
            comms[rank], nc1,
        )
        for rank in range(world)
    ]
    l0 = max(layer0, key=lambda result: result.duration_us)
    l1 = max(layer1, key=lambda result: result.duration_us)
    remote = any(comm.remote_bulk_rows + comm.remote_fine_rows for comm in comms)
    timing = LayerTiming(
        system=comet.name,
        gate_us=comet.gate_time_us(workload),
        layer0_comm_us=l0.comm_standalone_us,
        layer0_comp_us=l0.comp_standalone_us,
        activation_us=comet.activation_us(workload),
        layer1_comp_us=l1.comp_standalone_us if remote else l1.duration_us,
        layer1_comm_us=l1.comm_standalone_us if remote else 0.0,
        host_us=comet.NUM_KERNELS * workload.cluster.gpu.kernel_launch_us,
        exposed_layer0_comm_us=min(l0.bubble_us, l0.comm_standalone_us),
        exposed_layer1_comm_us=min(l1.bubble_us, l1.comm_standalone_us) if remote else 0.0,
    )
    rank = int(np.argmax([p.sum() for p in pairs]))
    schedule = build_layer0_schedule(pairs[rank], rank, policy=policy0)
    sweep = profile_division_points(
        lambda nc: _layer0_kernel(comet, workload, schedule, nc).duration_us,
        default_variants(workload.cluster.gpu.num_sms),
    )
    return timing, list(sweep.durations_us.items()), sweep.best_nc


def _batched_comet(comet, workload):
    sweep = comet.sweep_division_points(workload, 0)
    return comet.time_layer(workload), list(sweep.durations_us.items()), sweep.best_nc


def _batched_case(cluster, tp, std, seed, tokens=2048, reschedule=True,
                  specialized=True, fabric=False):
    def run(price):
        comet = Comet(reschedule=reschedule, specialized=specialized, fabric_contention=fabric)
        workload = make_workload(
            MIXTRAL_8X7B, cluster, ParallelStrategy(tp, cluster.world_size // tp),
            tokens, std, seed,
        )
        return price(comet, workload)

    return Case(
        f"batched COMET {cluster.name} TP{tp} M{tokens} std={std} seed={seed} "
        f"reschedule={reschedule} specialized={specialized} fabric={fabric}",
        lambda: run(_batched_comet),
        lambda: run(_per_rank_comet),
    )


TWO_NODES = h800_pod(2).effective_cluster()
BATCHED_EXAMPLES = tuple(
    _batched_case(CLUSTER, tp, std, 1) for tp in (1, 2, 4, 8) for std in (0.0, 0.05)
) + tuple(  # ranks deduplicated across TP x EP splits, then fabric mode
    _batched_case(CLUSTER, tp, std, 3, tokens=4096)
    for tp in (1, 2, 4) for std in (0.0, 0.02, 0.04)
) + (
    _batched_case(CLUSTER, 1, 0.0, 0, fabric=True),
    _batched_case(CLUSTER, 1, 0.02, 2, reschedule=False),
    _batched_case(CLUSTER, 2, 0.02, 3, specialized=False),
    _batched_case(CLUSTER, 1, 0.03, 4, fabric=True),
    _batched_case(CLUSTER, 4, 0.0, 5, tokens=1024, fabric=True),
    _batched_case(l20_node(), 1, 0.02, 6),
    _batched_case(l20_node(), 2, 0.05, 7, reschedule=False, specialized=False),
    _batched_case(TWO_NODES, 2, 0.03, 8),
    _batched_case(TWO_NODES, 4, 0.0, 9, tokens=4096, fabric=True),
)


@st.composite
def _batched_cases(draw):
    cluster = draw(st.sampled_from((CLUSTER, l20_node(), TWO_NODES)))
    splits = (1, 2, 4, 8) if cluster.world_size == 8 else (2, 4, 8)
    return _batched_case(
        cluster, draw(st.sampled_from(splits)), draw(st.sampled_from((0.0, 0.01, 0.03, 0.05))),
        draw(st.integers(0, 50)), draw(st.sampled_from((1024, 2048, 4096))),
        draw(st.booleans()), draw(st.booleans()), draw(st.booleans()),
    )


# -- balanced routing from the uniform draws -------------------------------------


class _EditedStream:
    """``default_rng(seed)`` whose first block of uniform draws is edited.

    The generator still advances by the real draws, so every later draw
    is real.  ``random`` returns the edited block.  With ``keys=True``,
    ``gumbel`` returns numpy's Gumbel expression over the edited block,
    as a stream that really drew those uniforms would; otherwise it draws
    real Gumbel noise, as numpy does after rejecting a zero.
    """

    def __init__(self, seed, edit, keys):
        self._rng = np.random.default_rng(seed)
        self._edit = edit
        self._keys = keys

    def _block(self, size):
        edit, self._edit = self._edit, None
        draws = self._rng.random(size)
        return draws if edit is None else edit(draws)

    def random(self, size=None):
        return self._rng.random() if size is None else self._block(size)

    def gumbel(self, size=None):
        if not self._keys:
            return self._rng.gumbel(size=size)
        draws = self._block(size)
        return np.array(
            [0.0 - 1.0 * math.log(-math.log(1.0 - u)) for u in draws.ravel().tolist()]
        ).reshape(draws.shape)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _tie(row, rank, offset=0.0):
    """Edit: row ``row``'s ``rank + 1``-th smallest uniform becomes its
    ``rank``-th smallest plus ``offset``."""
    def edit(uniforms):
        order = np.argsort(uniforms[row])
        uniforms[row, order[rank + 1]] = uniforms[row, order[rank]] + offset
        return uniforms
    return edit


def _zero(row, col):
    def edit(uniforms):
        uniforms[row, col] = 0.0
        return uniforms
    return edit


def _edits(*edits):
    def edit(uniforms):
        for one in edits:
            uniforms = one(uniforms)
        return uniforms
    return edit


def _routing_case(label, tokens, experts, topk, seed, edit=None, keys=False, gap=None):
    fractions = balanced_fractions(experts)

    def run(route):
        rng = np.random.default_rng(seed) if edit is None else _EditedStream(seed, edit, keys)
        plan = route(tokens, topk, fractions, rng)
        return (
            str(plan.experts.dtype), plan.experts.shape, plan.experts.tobytes(),
            str(plan.weights.dtype), plan.weights.tobytes(), rng.random(),
        )

    def fast():
        if gap is None:
            return run(routing_from_fractions)
        with mock.patch.object(routing_module, "TIE_GAP", gap):
            return run(routing_from_fractions)

    return Case(
        f"{label} (tokens={tokens}, E={experts}, topk={topk}, seed={seed})",
        fast, lambda: run(gumbel_routing_from_fractions),
    )


@st.composite
def _routing_cases(draw):
    experts = draw(st.integers(1, 128))
    return _routing_case(
        "balanced", draw(st.integers(0, 400)), experts,
        draw(st.integers(1, experts)), draw(st.integers(0, 2**32 - 1)),
    )


ROUTING_PATH_EXAMPLES = (
    _routing_case("Mixtral's plan", 16384, 8, 2, 0),
    _routing_case("64 experts", 4096, 64, 6, 1),
    _routing_case("top-k of every expert", 300, 5, 5, 2),
    _routing_case("one expert", 64, 1, 1, 3),
    _routing_case("no tokens", 0, 16, 2, 4),
    _routing_case("a zero draw", 512, 8, 2, 5, edit=_zero(3, 2)),
    _routing_case("a zero draw in the last row", 512, 64, 4, 6, edit=_zero(511, 63)),
    _routing_case(
        "exact ties", 256, 16, 2, 7, keys=True,
        edit=_edits(_tie(0, 0), _tie(1, 1), _tie(2, 2), _tie(200, 0), _tie(200, 1)),
    ),
    _routing_case(
        "ties among all experts", 128, 4, 4, 8, keys=True,
        edit=_edits(_tie(5, 0), _tie(6, 2), _tie(7, 1, 1e-15)),
    ),
    _routing_case(
        "near ties within the gap", 256, 32, 3, 9, keys=True,
        edit=_edits(_tie(0, 0, 1e-13), _tie(9, 3, 5e-13), _tie(10, 2, 1e-12)),
    ),
    _routing_case("every row a near tie", 512, 32, 3, 10, gap=1.0),
    _routing_case("some rows near ties", 2048, 8, 2, 11, gap=0.01),
)


def test_tie_gap_bound_is_inclusive():
    # Row 0's two smallest uniforms lie exactly TIE_GAP apart, row 1's
    # twice that: only row 0 takes the Gumbel keys.
    gap = routing_module.TIE_GAP

    def edit(uniforms):
        uniforms[0, :2] = gap, 2 * gap
        uniforms[1, :2] = gap, 3 * gap
        return uniforms

    assert 2 * gap - gap == gap
    with mock.patch.object(
        routing_module, "_gumbel_top_k", wraps=routing_module._gumbel_top_k
    ) as gumbel_top_k:
        routing_from_fractions(4, 1, balanced_fractions(8), _EditedStream(0, edit, keys=False))
    (call,) = gumbel_top_k.call_args_list
    keys = call.args[1]
    assert keys.shape == (1, 8)
    assert keys[0, 0] == 0.0 - 1.0 * math.log(-math.log(1.0 - gap))


def test_numpy_gumbel_is_its_expression_over_random():
    """The identity the balanced routing path rests on: numpy's Gumbel
    draws are ``0.0 - 1.0 * log(-log(1.0 - u))`` over the uniforms
    ``random`` returns from the same stream, with libm's ``log``."""
    gumbel = np.random.default_rng(2024).gumbel(size=20_000).tolist()
    uniforms = np.random.default_rng(2024).random(20_000).tolist()
    assert gumbel == [0.0 - 1.0 * math.log(-math.log(1.0 - u)) for u in uniforms]


# -- balanced plans cut from one expert stream ------------------------------------


class _EditedRows:
    """``default_rng(seed)`` advanced past ``offset`` draws, whose first
    block of uniform draws reads edited at absolute rows of the stream.

    Stands in for :meth:`ExpertStream.generator` (``offset`` its argument)
    and for the direct draw's ``default_rng(seed)`` (``offset`` 0), so a
    row edited once reads the same down both paths.  Everything but that
    block is real: a plan that meets a zero goes the Gumbel way on real
    draws, as both paths do.
    """

    def __init__(self, seed, experts, offset, edits):
        self._rng = np.random.default_rng(seed)
        self._rng.bit_generator.advance(offset)
        self._row = offset // experts
        self._edits = edits

    def random(self, size=None):
        draws = self._rng.random(size)
        edits, self._edits = self._edits, ()
        for edit in edits:
            edit(draws, self._row)
        return draws

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _zero_at(row, col):
    def edit(draws, first):
        if first <= row < first + len(draws):
            draws[row - first, col] = 0.0
    return edit


def _tie_at(row, rank, offset=0.0):
    """Edit: stream row ``row``'s ``rank + 1``-th smallest uniform becomes
    its ``rank``-th smallest plus ``offset``."""
    def edit(draws, first):
        if first <= row < first + len(draws):
            uniforms = draws[row - first]
            order = np.argsort(uniforms)
            uniforms[order[rank + 1]] = uniforms[order[rank]] + offset
    return edit


def _plan_fields(plan):
    return tuple(
        (str(array.dtype), array.shape, array.tobytes(), array.flags.writeable)
        for array in (plan.experts, plan.weights)
    ) + (plan.num_experts,)


def _edited_stream(edits):
    return mock.patch.object(
        ExpertStream, "generator",
        lambda stream, offset: _EditedRows(stream.seed, stream.num_experts, offset, edits),
    )


def _prefix_case(label, experts, topk, seed, tokens, edits=()):
    """Plans of each count in ``tokens``, asked in that order from one
    fresh stream, against each plan drawn on its own."""
    def fast():
        perf.clear_caches()
        with _edited_stream(edits):
            return [_plan_fields(_balanced_plan(experts, topk, m, seed)) for m in tokens]

    def oracle():
        if not edits:
            return [_plan_fields(_synthesise_routing(experts, topk, m, 0.0, seed)) for m in tokens]
        plans = []
        for m in tokens:
            rng = _EditedRows(seed, experts, 0, edits)
            plan = routing_from_fractions(m, topk, balanced_fractions(experts), rng)
            plan.experts.setflags(write=False)
            plan.weights.setflags(write=False)
            plans.append(_plan_fields(plan))
        return plans

    return Case(f"{label} (E={experts}, topk={topk}, seed={seed}, tokens={tokens})", fast, oracle)


@st.composite
def _prefix_cases(draw):
    experts = draw(st.integers(1, 64))
    tokens = draw(st.lists(st.integers(0, 300), min_size=1, max_size=6))
    order = draw(st.sampled_from(("increasing", "decreasing", "drawn")))
    if order != "drawn":
        tokens = sorted(tokens, reverse=order == "decreasing")
    return _prefix_case(
        order, experts, draw(st.integers(1, experts)),
        draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80))), tokens,
    )


PREFIX_EXAMPLES = (
    _prefix_case("serving buckets, increasing", 8, 2, 0, [256 * n for n in range(1, 9)]),
    _prefix_case("decreasing to none", 8, 2, 0, [8192, 4096, 256, 0]),
    _prefix_case("no tokens first", 16, 2, 4, [0, 10, 0]),
    _prefix_case("64 experts, any order", 64, 6, 1, [100, 7, 300, 0, 55, 300]),
    _prefix_case("top-k of every expert", 5, 5, 2, [40, 300, 3]),
    _prefix_case("one expert", 1, 1, 3, [64, 1, 65]),
    _prefix_case("a 64-bit seed", 8, 2, 2**32, [512, 1024, 256]),
    _prefix_case("a seed past 64 bits", 32, 4, 2**64 + 5, [33, 200, 199]),
    _prefix_case(
        "a zero draw falls back for its plans only", 8, 2, 5,
        [64, 128, 96, 200, 101, 100], edits=(_zero_at(100, 3),),
    ),
    _prefix_case("a zero in the first row", 8, 2, 6, [1, 0, 5], edits=(_zero_at(0, 0),)),
    _prefix_case(
        "near ties", 16, 2, 7, [32, 64, 48],
        edits=(_tie_at(37, 0), _tie_at(40, 1, 1e-13), _tie_at(5, 0, 1e-12)),
    ),
)


def test_a_zero_draw_falls_back_for_its_plan_only():
    """Plans whose rows hold the zero are drawn on their own; the stream
    stops short of the zero and keeps serving the plans before it."""
    perf.clear_caches()
    direct = mock.patch.object(
        routing_module, "routing_from_fractions", wraps=routing_module.routing_from_fractions
    )
    with _edited_stream((_zero_at(100, 3),)), direct as drawn:
        for tokens in (64, 128, 96, 200, 101, 100, 30):
            _balanced_plan(8, 2, tokens, 0)
    assert [call.args[0] for call in drawn.call_args_list] == [128, 200, 101]
    stream = perf.ROUTING_CACHE.get(("stream", 8, 2, 0))
    assert stream._rows.shape == (100, 2)


def test_concurrent_plans_from_one_stream_equal_the_direct_draw():
    threads = 8
    counts = random.Random(3).sample(range(0, 4096, 8), 4 * threads)
    barrier = threading.Barrier(threads)
    plans = {}

    def ask(index):
        barrier.wait()
        for tokens in counts[index::threads]:
            plans[tokens] = _balanced_plan(8, 2, tokens, 7)

    perf.clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(i,)) for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(plans) == sorted(counts)
    for tokens, plan in plans.items():
        direct = _synthesise_routing(8, 2, tokens, 0.0, 7)
        assert _plan_fields(plan) == _plan_fields(direct), tokens


SEEDS_PAST_32_BITS = (0, 1, 7, 2**32, 2**63 + 11, 2**80 + 3)


def test_numpy_default_rng_is_pcg64_of_the_seed():
    """``ExpertStream.generator`` is ``default_rng(seed)`` advanced; the
    offsets count PCG64 draws."""
    for seed in SEEDS_PAST_32_BITS:
        rng = np.random.default_rng(seed)
        assert isinstance(rng.bit_generator, np.random.PCG64), seed
        assert rng.bit_generator.state == np.random.PCG64(seed).state, seed


def test_numpy_advance_skips_the_draws_of_random():
    """The identity the stream rows rest on: ``advance(n)`` then
    ``random(m)`` gives the last ``m`` values of ``random(n + m)``, in
    any block shape."""
    for seed in SEEDS_PAST_32_BITS:
        for n, shape in ((0, (3, 8)), (8, (5, 8)), (16 * 2048, (1024, 16)), (9, (7,))):
            m = math.prod(shape)
            whole = np.random.default_rng(seed).random(n + m)
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance(n)
            assert rng.random(shape).tobytes() == whole[n:].tobytes(), (seed, n, shape)


def test_numpy_uniform_after_advance_is_the_streams():
    """The identity a plan's weights rest on: ``uniform(0.5, 1.5)`` after
    ``advance(n)`` equals the same draw taken after ``n`` uniforms
    through the stream."""
    for seed in SEEDS_PAST_32_BITS:
        for n, shape in ((0, (4, 2)), (8 * 256, (256, 2)), (64 * 300, (300, 6))):
            through = np.random.default_rng(seed)
            through.random(n)
            advanced = np.random.default_rng(seed)
            advanced.bit_generator.advance(n)
            assert (
                advanced.uniform(0.5, 1.5, size=shape).tobytes()
                == through.uniform(0.5, 1.5, size=shape).tobytes()
            ), (seed, n, shape)
            assert advanced.bit_generator.state == through.bit_generator.state


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


def _built_des_case(label, build):
    """:func:`_des_case` on a graph built once, when the case first runs."""
    graph = functools.cache(build)
    return Case(
        label,
        lambda: _des_case(label, graph()).fast(),
        lambda: _des_case(label, graph()).oracle(),
    )


def _comet_model_graph(cluster, strategy, stragglers=None):
    """COMET's 32-layer Mixtral ``cross_layer`` forward graph at 16384
    tokens, as ``repro model`` lowers it."""
    system = SYSTEM_REGISTRY.create("comet")
    timing = run_model(system, MIXTRAL_8X7B, cluster, strategy, 16384)
    phases = (
        system.lower_layer(timing.moe)
        if stragglers is None
        else system.lower_rank_phases(timing.moe, stragglers)
    )
    return build_forward_graph(
        phases, timing.attention_us, timing.num_layers, "cross_layer", stragglers
    )


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
    + (
        _built_des_case(
            "comet model graph, 2-node pod TP2xEP8",
            lambda: _comet_model_graph(TWO_NODES, ParallelStrategy(2, 8)),
        ),
        _built_des_case(
            "comet model graph, 1.5x slow rank 0 on 8 ranks",
            lambda: _comet_model_graph(
                CLUSTER, ParallelStrategy(1, 8),
                StragglerSpec.slow_rank(8, rank=0, compute_mult=1.5),
            ),
        ),
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
        f"serve {kind} {rps} rps {duration_s} s seed {seed} {policy}", run, referenced(run)
    )


def _single_replica_fleet():
    return _fleet_run(FleetSpec.grid(traces=SMALL_TRACE, systems="comet"))


SERVE_EXAMPLES = tuple(
    _serve_case(policy, kind, rps, seed)
    for kind, rps, seed in [("poisson", 60, 0), ("bursty", 150, 1), ("diurnal", 90, 2)]
    for policy in ("fcfs", "spf", "slo")
) + (
    # The decomposed fleet runs each replica through the serving loop.
    Case(
        "fleet round_robin x1 poisson 20 rps",
        _single_replica_fleet, referenced(_single_replica_fleet),
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
    def fast():
        reports, text = _fleet_run(spec)
        assert reports[0].records and acted(reports[0]), "feature did not act"
        return reports, text

    return Case(label, fast, referenced(lambda: _fleet_run(spec)))


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

def _decomposed_only(engine, system_name):
    assert engine._decomposable(), "the case must be decomposable"
    return FleetEngine._run_decomposed(engine, system_name)


def _on_path(path, spec):
    """``spec`` run with every fleet on ``path``."""
    with mock.patch.object(FleetEngine, "run", path):
        return _fleet_run(spec)


def _decomposed_case(label, spec):
    return Case(
        label,
        lambda: _on_path(_decomposed_only, spec),
        lambda: _on_path(FleetEngine._run_cosim, spec),
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
    for system in SYSTEM_REGISTRY.names()
)

decomposed_cases = st.builds(
    lambda system, router, replicas, rps, seed: _decomposed_case(
        f"decomposed {system} {router} x{replicas} {rps} rps seed {seed}",
        FleetSpec.grid(
            traces=TraceSpec(kind="poisson", rps=rps, duration_s=1, seed=seed),
            systems=system, replicas=replicas, routers=router,
        ),
    ),
    st.sampled_from(SYSTEM_REGISTRY.names()),
    st.sampled_from(("round_robin", "session_affinity")),
    st.integers(1, 3), st.integers(10, 80), st.integers(0, 20),
)


def _loop_case(label, spec, acted=lambda report: True):
    """The timer loop with block-drawn probes against the DES processes
    with scalar probes, both forced off the decomposed path."""
    def fast():
        reports, text = _on_path(FleetEngine._run_cosim, spec)
        assert reports[0].records and acted(reports[0]), "feature did not act"
        return reports, text

    def oracle():
        with mock.patch.object(PowerOfTwo, "_probes", scalar_probes):
            return _on_path(des_cosim, spec)

    return Case(label, fast, oracle)


LOOP_EXAMPLES = tuple(
    _loop_case(
        f"loop {feature} {router}",
        FleetSpec.grid(
            **{"traces": ORACLE_TRACE, **kwargs}, routers=router, systems="comet"
        ),
        acted,
    )
    for feature, (kwargs, acted) in sorted(COSIM_FEATURES.items())
    for router in ROUTER_REGISTRY.names()
)

loop_cases = st.builds(
    lambda router, replicas, rps, seed, fail_ms: _loop_case(
        f"loop {router} x{replicas} {rps} rps seed {seed} fail {fail_ms}",
        FleetSpec.grid(
            traces=TraceSpec(kind="poisson", rps=rps, duration_s=1, seed=seed),
            replicas=replicas, routers=router, systems="comet",
            failures=() if fail_ms is None else (
                FailureEvent(replica=0, fail_ms=fail_ms, recover_ms=fail_ms + 300.0),
            ),
        ),
    ),
    st.sampled_from(ROUTER_REGISTRY.names()), st.integers(2, 3),
    st.integers(40, 160), st.integers(0, 20),
    st.one_of(st.none(), st.floats(50.0, 900.0)),
)


def _probe_case(seed, runs):
    """One router probing each ``(candidates, calls)`` run in turn:
    the block draws against one scalar draw per probe."""
    counts = [n for n, calls in runs for _ in range(calls)]

    def probe(draw):
        router = PowerOfTwo(8, seed=seed)
        return [draw(router, n) for n in counts]

    return Case(
        f"probes seed={seed} runs={runs}",
        lambda: probe(PowerOfTwo._probes), lambda: probe(scalar_probes),
    )


BLOCK = PowerOfTwo.BLOCK
PROBE_EXAMPLES = (
    # Whole blocks, then a count change exactly at a block boundary.
    _probe_case(0, [(8, 2 * BLOCK), (7, BLOCK + 1)]),
    # Changes mid-block, right after a refill, and back again.
    _probe_case(1, [(8, 5), (7, 1), (8, BLOCK - 1), (2, 3), (8, 1)]),
    # Bounds past 2**32 take numpy's 64-bit path.
    _probe_case(2, [(2**33, 3), (2**32 + 1, BLOCK), (3, 2)]),
)

probe_cases = st.builds(
    _probe_case,
    st.integers(0, 2**32),
    st.lists(
        st.tuples(st.integers(2, 9), st.integers(1, 2 * BLOCK)), min_size=1, max_size=6
    ),
)


def test_numpy_bounded_integers_match_scalar_draws():
    """The identity the power-of-two block draws rest on: one
    ``integers(0, highs)`` call with per-element bounds gives the values
    of one scalar ``integers(high)`` call per bound, and leaves the
    generator in the same state."""
    bounds = [2, 3, 7, 8, 255, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33, 2**40]
    bounds = (bounds + list(range(2, 300))) * 3
    for seed in range(5):
        block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        values = block.integers(0, np.array(bounds, dtype=np.int64)).tolist()
        assert values == [int(scalar.integers(high)) for high in bounds], seed
        assert block.bit_generator.state == scalar.bit_generator.state, seed


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

    ``probe(inputs)`` runs the cached entry point on a system instance
    of its own; the oracle side runs it with the caches bypassed.
    Caches :func:`reference_paths` keeps on pass an ``oracle(inputs)``
    that skips them instead.
    """
    changed = _changed(base, field, value)

    def run(final):
        probe(base)
        try:
            return final(changed)
        except UnsupportedWorkload as exc:  # the cached path must raise too
            return "unsupported", str(exc)

    untokened = "" if base.tokened else "/untokened"
    return Case(
        f"{base.system}/{base.overlap_policy}{untokened} seed={base.seed} "
        f"M{base.total_tokens} {field}={getattr(value, 'name', value)!r}",
        lambda: run(probe),
        referenced(lambda: run(probe), caches_only=True)
        if oracle is None else lambda: oracle(changed),
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


def _system(inputs):
    return SYSTEM_REGISTRY.create(inputs.system, **dict(inputs.knobs))


def _timing(inputs):
    return perf.cached_time_layer(_system(inputs), inputs.workload())


def _workload_obs(workload):
    return (
        workload.config, workload.cluster, workload.strategy,
        workload.plan.experts.tobytes(), workload.plan.weights.tobytes(),
        workload.owner.tobytes(),
    )


def _shared_workload(inputs):
    return _workload_obs(perf.shared_workload(*inputs.workload_args()))


def _routing_key(inputs):
    return (
        inputs.config.num_experts, inputs.config.topk, inputs.total_tokens,
        inputs.imbalance_std, inputs.seed,
    )


def _plan_obs(plan):
    return plan.experts.tobytes(), plan.weights.tobytes()


def _routing(inputs):
    return _plan_obs(inputs.workload().plan)


def _graph_schedule(inputs):
    return _obs(perf.cached_graph_schedule(inputs.graph()))


def _lowering(inputs):
    graph = inputs.graph()
    return (  # scheduled through the compiled topology, past GRAPH_CACHE
        graph.fingerprint(), graph.topology_token, list(graph.preds),
        graph.nodes, _obs(perf._schedule_plain(graph)),
    )


def _step_cost(inputs):
    model = perf.shared_step_cost(
        _system(inputs), inputs.config, inputs.cluster, inputs.strategy,
        bucket_tokens=inputs.bucket_tokens,
        overlap_policy=inputs.overlap_policy, stragglers=inputs.stragglers,
    )
    return model.step_us(300, 40)


def _nc_sweep(inputs):
    return perf.shared_nc_sweep(_system(inputs), inputs.workload(), inputs.layer)


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
        examples=SCAN_EXAMPLES, max_examples=120,
    ),
    Pair(
        build_layer0_schedule, sorted_layer0_schedule, _schedule_cases(),
        examples=SCHEDULE_EXAMPLES, max_examples=60,
    ),
    Pair(
        Comet.sweep_division_points, _layer1_sweep_per_nc, layer1_sweep_cases,
        examples=LAYER1_SWEEP_EXAMPLES, max_examples=10,
    ),
    Pair(
        layer0_makespan_reference, des_layer0_makespan, _layer0_des_cases(),
        examples=LAYER0_DES_EXAMPLES, max_examples=30,
    ),
    Pair(
        (Comet._simulate_layer0, Comet._simulate_layer1, simulate_layer0_fused),
        _per_rank_comet, _batched_cases(),
        examples=BATCHED_EXAMPLES, max_examples=10,
    ),
    Pair(
        routing_from_fractions, gumbel_routing_from_fractions, _routing_cases(),
        examples=ROUTING_PATH_EXAMPLES, max_examples=60,
    ),
    Pair(
        (_balanced_plan, ExpertStream.plan), _synthesise_routing, _prefix_cases(),
        examples=PREFIX_EXAMPLES, max_examples=40,
    ),
    Pair(
        (fast_schedule, schedule_batch), list_schedule,
        st.one_of(
            _cases(chain_graphs, lambda label, g: _graph_case(label, g, _chain_fast), "chain"),
            _cases(random_graphs, lambda label, g: _graph_case(label, g, fast_schedule), "random"),
            graph_batches.map(_batch_case),
        ),
        examples=BATCH_EXAMPLES, max_examples=230,
    ),
    Pair(
        (reduce_symmetry, expand_symmetry, perf._fast_symmetric_schedule),
        list_schedule,
        st.one_of(
            _cases(blocked_graphs, _symmetry_case, "blocked"),
            _cases(builder_graphs, _symmetry_case, "builder"),
            _cases(random_graphs, _symmetry_case, "random"),
        ),
        examples=SYMMETRY_EXAMPLES, max_examples=260,
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
        ContinuousBatchingScheduler._run_fast, des_run,
        st.builds(
            _serve_case, st.sampled_from(("fcfs", "spf", "slo")),
            st.sampled_from(("poisson", "bursty", "diurnal")), st.integers(20, 150),
            st.integers(0, 20), st.integers(1, 2),
        ),
        examples=SERVE_EXAMPLES, max_examples=2,
    ),
    Pair(
        ReplicaCore.close, per_token_close, cosim_cases,
        examples=COSIM_EXAMPLES, max_examples=2,
    ),
    Pair(
        FleetEngine._run_decomposed, FleetEngine._run_cosim, decomposed_cases,
        examples=DECOMPOSED_EXAMPLES, max_examples=1,
    ),
    Pair(
        (FleetEngine._run_cosim, PowerOfTwo._probes), des_cosim, loop_cases,
        examples=LOOP_EXAMPLES, max_examples=3,
    ),
    Pair(
        PowerOfTwo._probes, scalar_probes, probe_cases,
        examples=PROBE_EXAMPLES, max_examples=40,
    ),
    Pair(
        (WorkloadGeometry.pair_matrix, WorkloadGeometry.unique_tokens_per_rank),
        DistributedMoE, payload_cases,
        examples=PAYLOAD_EXAMPLES, max_examples=20,
    ),
    Pair(
        perf.cached_time_layer, MoESystem.time_layer, timing_cases,
        examples=TIMING_EXAMPLES, max_examples=5,
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
        examples=GRAPH_EXAMPLES, max_examples=3,
        cache=perf.GRAPH_CACHE,
    ),
    Pair(
        (perf.lowered_skeleton, perf.compiled_topology), build_forward_graph,
        lowering_cases,
        examples=LOWERING_EXAMPLES, max_examples=3,
        cache=perf.GRAPH_BATCH_CACHE,
    ),
    Pair(
        perf.shared_step_cost, StepCostModel, step_cost_cases,
        examples=STEP_COST_EXAMPLES, max_examples=3,
        cache=perf.STEP_COST_CACHE,
    ),
    Pair(
        perf.shared_nc_sweep, Comet.sweep_division_points, nc_sweep_cases,
        examples=NC_SWEEP_EXAMPLES, max_examples=3,
        cache=perf.NC_SWEEP_CACHE,
    ),
)


def _name(obj) -> str:
    if isinstance(obj, tuple):
        return "+".join(map(_name, obj))
    if isinstance(obj, property) or hasattr(obj, "attrname"):
        obj = obj.fget if isinstance(obj, property) else obj.func
    return getattr(obj, "__qualname__", repr(obj))


def _row_id(pair: Pair) -> str:
    return f"{_name(pair.fast)}=={_name(pair.oracle)}"


def _check(pair: Pair, case: Case) -> None:
    if pair.cache is not None:
        perf.clear_caches()
    fast = case.fast()
    if pair.cache is not None:
        stats = pair.cache.stats()
        assert stats["hits"] + stats["misses"], "the case never reached the cache"
    assert fast == case.oracle(), case.label


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
FINGERPRINT_METHODS = {"fingerprint", "topology_fingerprint"}


def _product_modules():
    """Every module of the imported package outside the oracles."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        name = info.name
        if name.startswith("repro.oracles") or name.endswith("__main__"):
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


def _run_cached(case: Case) -> None:
    """``case.fast()`` from empty caches."""
    perf.clear_caches()
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
        (pair.cache.name, case.label.split(" seed=")[0]): case
        for pair in rows for case in pair.examples
    }
    reached = _package_reads(
        fingerprinted, lambda: [_run_cached(case) for case in one_per_base.values()]
    )
    assert not fingerprinted - reached, fingerprinted - reached


# -- the oracles stay off the product import path ------------------------------


def test_import_repro_loads_no_oracle():
    """No product module, with every one of them imported, loads an
    oracle or exposes one."""
    modules = [module.__name__ for module in _product_modules()]
    names = [
        oracle.__name__
        for oracle in (
            des_schedule, des_layer0_makespan, DistributedMoE, des_run,
            per_token_close, des_cosim, scalar_probes,
        )
    ]
    code = (
        "import importlib, sys\n"
        f"for module in {modules!r}:\n"
        "    importlib.import_module(module)\n"
        f"names = {names!r}\n"
        "print(sorted(name for name, module in list(sys.modules.items())\n"
        "    if name.startswith('repro.oracles') or (name.startswith('repro')\n"
        "    and any(hasattr(module, n) for n in names))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def _oracle_imports(source: str, package: str) -> list[str]:
    """The ``repro.oracles`` modules that ``source`` imports, at any
    depth and however spelled; ``package`` resolves relative imports.
    Text in a docstring is not an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            targets = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [t for t in targets if t == "repro.oracles" or t.startswith("repro.oracles.")]
    return found


ORACLE_IMPORTS = (
    "import repro.oracles",
    "import repro.oracles.serve_des as des",
    "from repro.oracles import reference_paths",
    "from repro.oracles.routing import gumbel_routing_from_fractions",
    "from repro import oracles",
    "from repro import perf, oracles as refs",
    "from .. import oracles",
)


@pytest.mark.parametrize("statement", ORACLE_IMPORTS)
def test_oracle_import_scan_flags_every_spelling(statement):
    nested = f"class Runner:\n    def run(self):\n        {statement}\n"
    docstring = f'"""Example::\n\n    {statement}\n"""\n'
    assert _oracle_imports(statement, "repro.serve")
    assert _oracle_imports(nested, "repro.serve")
    assert _oracle_imports(docstring, "repro.serve") == []


def test_no_product_module_imports_an_oracle():
    package = Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if "oracles" not in path.parts
        and _oracle_imports(path.read_text(), ".".join(path.relative_to(package.parent).parts[:-1]))
    ]
    assert offenders == []
