"""COMET: fine-grained communication-computation overlapping (the paper).

The layer executes as two thread-block-specialised fused kernels plus the
gate:

* **fused kernel 0** — token dispatch + layer0 GroupGEMM.  The shared
  tensor (dispatch output / GEMM input) is decomposed along M (resolved
  by :func:`repro.tensor.dependency.resolve_decomposition`) and its rows
  rescheduled so each expert's locally resident tokens come first,
  sorted by source rank (Figure 5); compute row-blocks unblock as their
  tokens stream in through the ``nc`` communication blocks.
* **fused kernel 1** — layer1 GroupGEMM + top-k reduce + combine.  The
  shared tensor is decomposed along N and the GroupGEMM iterates
  column-major (Figure 6) so the reducer starts after the first ``TN``
  columns.

``nc`` is chosen per (layer, parallelism, token bucket, hardware) by the
adaptive workload assignment: an offline profile over the pre-compiled
variant library, consulted at runtime (§3.2.2).  Each power-of-two token
bucket is profiled on its canonical workload — the bucket's token count
rounded up to a multiple of the world size, balanced routing, seed 0 —
not on whichever workload asks for it first, so a layer's timing is a
pure function of (system knobs, workload), never of what the instance
priced before.

Each fused kernel is priced for every rank of the layer in one batch:
the workload geometry holds all ranks' pair counts as one
``(W, W, E_local)`` array and the combine split as one ``(W, 3)`` array,
:func:`~repro.tensor.reschedule.build_layer0_schedule` builds every
rank's schedule in one call, and the fused-kernel simulators price one
kernel per row, each row with the floating-point operations of a rank
priced alone.  A division-point sweep prices its whole variant library
the same way, one row per ``nc``.

Constructor flags expose the paper's design choices for ablation:
``reschedule=False`` keeps shared tensors in token order / expert-major
order; ``specialized=False`` emulates vertical fusion (communication in
the GEMM prologue/epilogue); ``fixed_nc`` disables adaptivity.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.api.registry import register_system
from repro.hw.cluster import ClusterSpec
from repro.kernels.assignment import (
    AssignmentProfile,
    ProfileKey,
    SweepResult,
    default_variants,
    select_division_point,
)
from repro.kernels.fused import (
    FusedKernelResult,
    Layer1CommWork,
    simulate_layer0_fused,
    simulate_layer0_vertical,
    simulate_layer1_fused_variants,
    simulate_layer1_vertical,
)
from repro.moe.config import MoEConfig
from repro.moe.experts import ExpertWeights
from repro.perf import shared_nc_sweep, shared_workload
from repro.runtime.workload import MoELayerWorkload
from repro.systems.base import LayerTiming, MoESystem
from repro.tensor.dependency import resolve_decomposition
from repro.tensor.reschedule import (
    POLICY_COLUMN_MAJOR,
    POLICY_EXPERT_MAJOR,
    POLICY_SORTED,
    POLICY_TOKEN_ORDER,
    build_layer0_schedule,
    build_layer1_schedule,
    layer0_rescheduled_forward,
    layer1_columnwise_forward,
)
from repro.tensor.shared_tensor import layer0_shared_tensor, layer1_shared_tensor

__all__ = ["Comet"]


def _distinct_rows(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """``(reps, index)``: the first row of each distinct value, in order,
    and for every row the position of its value in ``reps``."""
    first: dict[bytes, int] = {}
    reps: list[int] = []
    index = []
    for i, row in enumerate(rows):
        j = first.setdefault(row.tobytes(), len(reps))
        if j == len(reps):
            reps.append(i)
        index.append(j)
    return reps, index


@dataclass(frozen=True)
class _LayerSim:
    """Aggregated fused-kernel outcome across ranks."""

    duration_us: float
    comp_us: float
    comm_us: float
    exposed_us: float
    nc: int


@register_system("comet")
class Comet(MoESystem):
    """The COMET MoE system."""

    name = "Comet"
    # COMET's tile-granular fused pipeline re-balances data and compute
    # granularity on the perturbed rank, so a straggler's extra comm can
    # still hide under its (slower) expert GEMMs at full capacity.
    straggler_rehide = 1.0

    # Host side: gate kernel + two fused kernels.
    NUM_KERNELS = 3

    def __init__(
        self,
        reschedule: bool = True,
        adaptive: bool = True,
        fixed_nc: int | None = None,
        specialized: bool = True,
        gemm_scale: float = 1.0,
        fabric_contention: bool = False,
    ):
        super().__init__(gemm_scale=gemm_scale)
        # The upper bound depends on the GPU's SM count, so time_layer
        # checks it against each workload's cluster.
        if fixed_nc is not None and (
            isinstance(fixed_nc, bool)
            or not isinstance(fixed_nc, numbers.Integral)
            or fixed_nc < 0
        ):
            raise ValueError(
                f"fixed_nc must be None or a non-negative integer, got {fixed_nc!r}"
            )
        self.reschedule = reschedule
        self.adaptive = adaptive
        self.fixed_nc = fixed_nc
        self.specialized = specialized
        # High-fidelity layer0 mode: token arrivals computed by the joint
        # fabric simulation (shared source egress) instead of the
        # independent per-rank ingress model.
        self.fabric_contention = fabric_contention
        # Profiled metadata per (cluster, model): ProfileKey -> SweepResult.
        # Keyed by the specs, not their names (a resized config keeps its
        # base model's name).  Each entry is the sweep of its bucket's
        # canonical workload (see _adaptive_nc): a pure function of this
        # system's knobs and the key, shared across equal-config
        # instances through perf.NC_SWEEP_CACHE.
        self._profiles: dict[tuple[ClusterSpec, MoEConfig], AssignmentProfile] = {}

    def backward_variant(self) -> "Comet":
        """Backward copy: doubled GEMM work, fresh assignment metadata.

        The optimal division point moves when the compute side doubles,
        so the backward pass gets its own profile cache rather than
        inheriting forward optima.
        """
        variant = Comet(
            reschedule=self.reschedule,
            adaptive=self.adaptive,
            fixed_nc=self.fixed_nc,
            specialized=self.specialized,
            gemm_scale=self.gemm_scale * 2.0,
            fabric_contention=self.fabric_contention,
        )
        return variant

    def fingerprint(self) -> tuple:
        """Extend the base fingerprint with COMET's ablation knobs."""
        return super().fingerprint() + (
            self.reschedule,
            self.adaptive,
            self.fixed_nc,
            self.specialized,
            self.fabric_contention,
        )

    # -- timing ----------------------------------------------------------------
    def time_layer(self, workload: MoELayerWorkload) -> LayerTiming:
        self.check_supported(workload)
        l0 = self._simulate_layer0(workload)
        l1 = self._simulate_layer1(workload)
        host = self.NUM_KERNELS * workload.cluster.gpu.kernel_launch_us
        return LayerTiming(
            system=self.name,
            gate_us=self.gate_time_us(workload),
            layer0_comm_us=l0.comm_us,
            layer0_comp_us=l0.comp_us,
            activation_us=self.activation_us(workload),
            layer1_comp_us=l1.comp_us,
            layer1_comm_us=l1.comm_us,
            host_us=host,
            exposed_layer0_comm_us=min(l0.exposed_us, l0.comm_us),
            exposed_layer1_comm_us=min(l1.exposed_us, l1.comm_us),
        )

    def division_point(self, workload: MoELayerWorkload, layer: int) -> int:
        """The ``nc`` COMET would use for this workload and layer."""
        if workload.world_size == 1:
            return 0
        if self.fixed_nc is not None:
            return self.fixed_nc
        if not self.adaptive:
            return max(2, workload.cluster.link.blocks_to_saturate())
        return self._adaptive_nc(workload, layer)

    # -- layer simulations -------------------------------------------------------
    def _simulate_layer0(self, workload: MoELayerWorkload) -> _LayerSim:
        config = workload.config
        # Dependency resolving: layer0 decomposes along M (tokens).
        tensor = layer0_shared_tensor(
            workload.plan.total_routed, config.hidden_size
        )
        assert resolve_decomposition(tensor) == "M"

        nc = self.division_point(workload, layer=0)
        world = workload.world_size
        ranks = np.arange(world)
        pairs = workload.geometry.pairs_by_src_expert
        fabric = self.fabric_contention and world > 1
        # Rank dedup: the schedule is a pure function of the rank's pair
        # matrix *in ring order* (local row first), so ranks whose rolled
        # matrices coincide run identical fused kernels — simulate each
        # distinct one once.  Fabric mode gives every rank its own arrival
        # curve, so dedup only applies to the independent-ingress model.
        if fabric:
            reps = index = ranks.tolist()
        else:
            reps, index = _distinct_rows(pairs[ranks[:, None], (ranks[:, None] + ranks) % world])
        schedules = build_layer0_schedule(pairs[reps], reps, policy=self._layer0_policy)
        arrival_fns = self._fabric_arrivals(workload, nc) if fabric else [None] * world
        results = self._layer0_kernels(
            workload, schedules, nc, [arrival_fns[rank] for rank in reps]
        )
        return self._aggregate([results[i] for i in index], nc)

    @property
    def _layer0_policy(self) -> str:
        return POLICY_SORTED if self.reschedule else POLICY_TOKEN_ORDER

    @property
    def _layer1_policy(self) -> str:
        return POLICY_COLUMN_MAJOR if self.reschedule else POLICY_EXPERT_MAJOR

    def _fabric_arrivals(self, workload: MoELayerWorkload, nc: int):
        """Joint fetch-fabric simulation: per-rank arrival curves."""
        from repro.kernels.fabric import FetchRun, simulate_fetch_fabric
        from repro.kernels.fused import _comm_rate

        cluster = workload.cluster
        world = workload.world_size
        token_bytes = workload.config.token_bytes
        source_tokens = workload.geometry.pairs_by_src_expert.sum(axis=2).tolist()
        runs = [
            [
                FetchRun(src=src, tokens=source_tokens[rank][src])
                for src in ((rank + d) % world for d in range(1, world))
            ]
            for rank in range(world)
        ]
        ingress = np.full(
            world, _comm_rate(cluster.link, nc, token_bytes), dtype=np.float64
        )
        egress = np.full(world, cluster.link.bytes_per_us, dtype=np.float64)
        timelines = simulate_fetch_fabric(
            runs, token_bytes, ingress, egress, latency_us=cluster.link.latency_us
        )
        return [timeline.arrival_time for timeline in timelines]

    def _layer0_kernels(
        self, workload, schedules, nc, arrival_fns
    ) -> list[FusedKernelResult]:
        """One layer0 fused kernel per schedule (and arrival curve),
        priced in one call; a rank with nothing to fetch runs with no
        comm blocks."""
        config = workload.config
        cluster = workload.cluster
        cols = config.ffn_size // workload.strategy.tp_size
        if not self.specialized:
            return [
                simulate_layer0_vertical(
                    cluster.gpu,
                    cluster.link,
                    schedule,
                    token_bytes=config.token_bytes,
                    k=config.hidden_size,
                    cols=cols,
                    dtype_bytes=config.dtype_bytes,
                    compute_scale=self.gemm_scale,
                )
                for schedule in schedules
            ]
        return simulate_layer0_fused(
            cluster.gpu,
            cluster.link,
            schedules,
            token_bytes=config.token_bytes,
            k=config.hidden_size,
            cols=cols,
            nc=[nc if s.num_remote else 0 for s in schedules],
            dtype_bytes=config.dtype_bytes,
            compute_scale=self.gemm_scale,
            arrival_fn=[fn if s.num_remote else None for s, fn in zip(schedules, arrival_fns)],
        )

    def _simulate_layer1(self, workload: MoELayerWorkload) -> _LayerSim:
        config = workload.config
        geometry = workload.geometry
        tensor = layer1_shared_tensor(
            workload.plan.total_routed, config.hidden_size
        )
        assert resolve_decomposition(tensor) == "N"

        nc = self.division_point(workload, layer=1)
        # Rank dedup: the layer1 kernel is determined by the GroupGEMM row
        # structure plus the combine traffic split.
        reps, index = _distinct_rows(
            np.concatenate((geometry.expert_rows, geometry.combine_split), axis=1)
        )
        schedules = build_layer1_schedule(
            geometry.expert_rows[reps], cols=config.hidden_size, policy=self._layer1_policy
        )
        comms = [self.layer1_comm_work(workload, rank) for rank in reps]
        results = self._layer1_kernels(workload, schedules, comms, nc)
        sim = self._aggregate([results[i] for i in index], nc)
        if not geometry.combine_split[:, 1:].any():
            # Single-GPU (or fully local) layer: the top-k reduce is local
            # work; the paper's accounting charges it to computation, and
            # no GPU-to-GPU communication exists to expose or hide.
            return _LayerSim(
                duration_us=sim.duration_us,
                comp_us=sim.duration_us,
                comm_us=0.0,
                exposed_us=0.0,
                nc=nc,
            )
        return sim

    def layer1_comm_work(self, workload: MoELayerWorkload, rank: int) -> Layer1CommWork:
        """The combine traffic ``rank``'s layer1 fused kernel must move.

        Public so trace exporters and nc-sweep tooling can reconstruct
        the kernel's communication side without reaching into internals.
        """
        geometry = workload.geometry
        local, bulk, fine = geometry.combine_row_split(rank)
        return Layer1CommWork(
            reduce_rows=int(geometry.rows_per_rank[rank]),
            local_rows=local,
            remote_bulk_rows=bulk,
            remote_fine_rows=fine,
            row_bytes=workload.config.token_bytes,
        )

    @staticmethod
    def _layer1_nc(comm: Layer1CommWork, nc: int) -> int:
        """The comm blocks layer1 runs with: the top-k reduce keeps one
        even when no reduced row leaves the rank."""
        return nc if comm.remote_bulk_rows + comm.remote_fine_rows > 0 else max(1, nc)

    def _layer1_kernels(self, workload, schedules, comms, nc) -> list[FusedKernelResult]:
        """One layer1 fused kernel per (schedule, comm) row, priced in one
        call."""
        config = workload.config
        cluster = workload.cluster
        k = config.ffn_size // workload.strategy.tp_size
        if not self.specialized:
            return [
                simulate_layer1_vertical(
                    cluster.gpu,
                    cluster.link,
                    schedule,
                    comm,
                    k=k,
                    cols=config.hidden_size,
                    dtype_bytes=config.dtype_bytes,
                    compute_scale=self.gemm_scale,
                )
                for schedule, comm in zip(schedules, comms)
            ]
        return simulate_layer1_fused_variants(
            cluster.gpu,
            cluster.link,
            schedules,
            comms,
            k=k,
            cols=config.hidden_size,
            ncs=[self._layer1_nc(comm, nc) for comm in comms],
            dtype_bytes=config.dtype_bytes,
            compute_scale=self.gemm_scale,
        )

    @staticmethod
    def _aggregate(results: list[FusedKernelResult], nc: int) -> _LayerSim:
        """The layer finishes when the slowest rank's fused kernel does."""
        slowest = max(results, key=lambda r: r.duration_us)
        return _LayerSim(
            duration_us=slowest.duration_us,
            comp_us=slowest.comp_standalone_us,
            comm_us=slowest.comm_standalone_us,
            exposed_us=slowest.bubble_us,
            nc=nc,
        )

    # -- adaptive assignment -------------------------------------------------------
    def _adaptive_nc(self, workload: MoELayerWorkload, layer: int) -> int:
        """The profiled ``nc`` of the workload's token bucket.

        A missing bucket is swept on its canonical workload, so the
        answer never depends on which workload probed the bucket first.
        """
        cluster, config, strategy = workload.cluster, workload.config, workload.strategy
        profile = self._profiles.setdefault((cluster, config), AssignmentProfile())
        key = ProfileKey.make(
            layer, strategy.tp_size, strategy.ep_size, workload.total_tokens
        )
        if key not in profile:
            world = cluster.world_size
            tokens = -(-key.m_bucket // world) * world
            canonical = shared_workload(config, cluster, strategy, tokens)
            profile.record(key, shared_nc_sweep(self, canonical, layer))
        return select_division_point(profile, key)

    def sweep_division_points(
        self, workload: MoELayerWorkload, layer: int, variant_step: int = 4
    ) -> SweepResult:
        """Offline profiling pass: sweep the variant library on the
        bottleneck rank (the rank that paces the layer).

        ``variant_step`` is the quantisation of the variant library
        (Figure 8 plots a denser ``step=2`` sweep than the deployed
        default).  Returns the per-``nc`` duration curve and its optimum.
        Each layer prices the whole library in one call of its fused
        kernel; variants the kernel cannot launch are left out.
        """
        ProfileKey.check_layer(layer)
        config = workload.config
        cluster = workload.cluster
        geometry = workload.geometry
        rank = geometry.bottleneck_rank
        ncs = [
            variant.nc
            for variant in default_variants(cluster.gpu.num_sms, step=variant_step)
        ]

        if layer == 0:
            schedule = build_layer0_schedule(
                geometry.pairs_by_src_expert[rank], rank, policy=self._layer0_policy
            )
            if not self.specialized:
                # Vertical fusion has no division point: one kernel for all.
                (vertical,) = self._layer0_kernels(workload, [schedule], 0, [None])
                return SweepResult.from_durations(dict.fromkeys(ncs, vertical.duration_us))
            kernel_nc = {nc: nc if schedule.num_remote else 0 for nc in ncs}
            priced = simulate_layer0_fused(
                cluster.gpu,
                cluster.link,
                schedule,
                token_bytes=config.token_bytes,
                k=config.hidden_size,
                cols=config.ffn_size // workload.strategy.tp_size,
                nc=kernel_nc.values(),
                dtype_bytes=config.dtype_bytes,
                compute_scale=self.gemm_scale,
            )
        else:
            schedule = build_layer1_schedule(
                geometry.expert_rows[rank], cols=config.hidden_size,
                policy=self._layer1_policy,
            )
            comm = self.layer1_comm_work(workload, rank)
            if not self.specialized:
                (vertical,) = self._layer1_kernels(workload, [schedule], [comm], 0)
                return SweepResult.from_durations(dict.fromkeys(ncs, vertical.duration_us))
            kernel_nc = {nc: self._layer1_nc(comm, nc) for nc in ncs}
            priced = simulate_layer1_fused_variants(
                cluster.gpu,
                cluster.link,
                schedule,
                comm,
                k=config.ffn_size // workload.strategy.tp_size,
                cols=config.hidden_size,
                ncs=kernel_nc.values(),
                dtype_bytes=config.dtype_bytes,
                compute_scale=self.gemm_scale,
            )
        return SweepResult.from_durations(
            {
                nc: priced[knc].duration_us
                for nc, knc in kernel_nc.items()
                if knc in priced
            }
        )

    # -- numerics ------------------------------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        workload: MoELayerWorkload,
        weights: ExpertWeights,
    ) -> np.ndarray:
        """Execute the layer's math in COMET's rescheduled order.

        Layer0 runs with rows sorted by source rank; layer1 runs
        column-block by column-block with immediate top-k combination.
        Rescheduling is a pure reordering, so the result must match the
        reference forward (the test suite enforces this).
        """
        self.check_supported(workload)
        if not self.reschedule:
            from repro.moe.reference import reference_moe_forward

            return reference_moe_forward(x, workload.plan, weights)
        expert_acts = layer0_rescheduled_forward(
            x, workload.plan, weights, workload.owner, local_rank=0
        )
        return layer1_columnwise_forward(expert_acts, workload.plan, weights)
