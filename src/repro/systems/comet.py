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
    profile_division_points,
    select_division_point,
)
from repro.kernels.fused import (
    FusedKernelResult,
    Layer1CommWork,
    simulate_layer0_fused,
    simulate_layer0_vertical,
    simulate_layer1_fused,
    simulate_layer1_fused_variants,
    simulate_layer1_vertical,
)
from repro.moe.config import MoEConfig
from repro.moe.experts import ExpertWeights
from repro.perf import CONFIG as PERF_CONFIG
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
        geometry = workload.geometry
        # Dependency resolving: layer0 decomposes along M (tokens).
        tensor = layer0_shared_tensor(
            workload.plan.total_routed, config.hidden_size
        )
        assert resolve_decomposition(tensor) == "M"

        nc = self.division_point(workload, layer=0)
        cols = config.ffn_size // workload.strategy.tp_size
        policy = POLICY_SORTED if self.reschedule else POLICY_TOKEN_ORDER
        arrival_fns = (
            self._fabric_arrivals(workload, nc)
            if self.fabric_contention and workload.world_size > 1
            else [None] * workload.world_size
        )
        # Rank dedup: the schedule is a pure function of the rank's pair
        # matrix *in ring order* (local row first), so ranks whose rolled
        # matrices coincide run identical fused kernels — simulate each
        # distinct one once.  Fabric mode gives every rank its own arrival
        # curve, so dedup only applies to the independent-ingress model.
        dedup = PERF_CONFIG.rank_dedup and all(fn is None for fn in arrival_fns)
        memo: dict[bytes, FusedKernelResult] = {}
        results = []
        for rank in range(workload.world_size):
            rank_workload = geometry.rank_workload(rank)
            key = (
                np.roll(rank_workload.pairs_by_src_expert, -rank, axis=0).tobytes()
                if dedup
                else None
            )
            result = memo.get(key) if dedup else None
            if result is None:
                schedule = build_layer0_schedule(
                    rank_workload.pairs_by_src_expert, rank, policy=policy
                )
                result = self._run_layer0_kernel(
                    workload, schedule, cols, nc, arrival_fn=arrival_fns[rank]
                )
                if dedup:
                    memo[key] = result
            results.append(result)
        return self._aggregate(results, nc)

    def _fabric_arrivals(self, workload: MoELayerWorkload, nc: int):
        """Joint fetch-fabric simulation: per-rank arrival curves."""
        from repro.kernels.fabric import FetchRun, simulate_fetch_fabric
        from repro.kernels.fused import _comm_rate

        geometry = workload.geometry
        cluster = workload.cluster
        world = workload.world_size
        token_bytes = workload.config.token_bytes
        runs = []
        for rank in range(world):
            pairs = geometry.rank_workload(rank).pairs_by_src_expert
            ring = [(rank + d) % world for d in range(1, world)]
            runs.append(
                [FetchRun(src=src, tokens=int(pairs[src].sum())) for src in ring]
            )
        ingress = np.full(
            world, _comm_rate(cluster.link, nc, token_bytes), dtype=np.float64
        )
        egress = np.full(world, cluster.link.bytes_per_us, dtype=np.float64)
        timelines = simulate_fetch_fabric(
            runs, token_bytes, ingress, egress, latency_us=cluster.link.latency_us
        )
        return [timeline.arrival_time for timeline in timelines]

    def _run_layer0_kernel(
        self, workload, schedule, cols, nc, arrival_fn=None
    ) -> FusedKernelResult:
        config = workload.config
        cluster = workload.cluster
        if self.specialized:
            return simulate_layer0_fused(
                cluster.gpu,
                cluster.link,
                schedule,
                token_bytes=config.token_bytes,
                k=config.hidden_size,
                cols=cols,
                nc=nc if schedule.num_remote else 0,
                dtype_bytes=config.dtype_bytes,
                compute_scale=self.gemm_scale,
                arrival_fn=arrival_fn if schedule.num_remote else None,
            )
        return simulate_layer0_vertical(
            cluster.gpu,
            cluster.link,
            schedule,
            token_bytes=config.token_bytes,
            k=config.hidden_size,
            cols=cols,
            dtype_bytes=config.dtype_bytes,
            compute_scale=self.gemm_scale,
        )

    def _simulate_layer1(self, workload: MoELayerWorkload) -> _LayerSim:
        config = workload.config
        geometry = workload.geometry
        tensor = layer1_shared_tensor(
            workload.plan.total_routed, config.hidden_size
        )
        assert resolve_decomposition(tensor) == "N"

        nc = self.division_point(workload, layer=1)
        k = config.ffn_size // workload.strategy.tp_size
        policy = POLICY_COLUMN_MAJOR if self.reschedule else POLICY_EXPERT_MAJOR
        # Rank dedup: the layer1 kernel is determined by the GroupGEMM row
        # structure plus the combine traffic split, both hashable.
        dedup = PERF_CONFIG.rank_dedup
        memo: dict[tuple, FusedKernelResult] = {}
        results = []
        any_remote = False
        for rank in range(workload.world_size):
            rank_workload = geometry.rank_workload(rank)
            comm = self.layer1_comm_work(workload, rank)
            any_remote = any_remote or (
                comm.remote_bulk_rows + comm.remote_fine_rows > 0
            )
            key = (rank_workload.expert_rows.tobytes(), comm) if dedup else None
            result = memo.get(key) if dedup else None
            if result is None:
                schedule = build_layer1_schedule(
                    rank_workload.expert_rows, cols=config.hidden_size, policy=policy
                )
                result = self._run_layer1_kernel(workload, schedule, comm, k, nc)
                if dedup:
                    memo[key] = result
            results.append(result)
        sim = self._aggregate(results, nc)
        if not any_remote:
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

    def _run_layer1_kernel(self, workload, schedule, comm, k, nc) -> FusedKernelResult:
        config = workload.config
        cluster = workload.cluster
        if self.specialized:
            return simulate_layer1_fused(
                cluster.gpu,
                cluster.link,
                schedule,
                comm,
                k=k,
                cols=config.hidden_size,
                nc=self._layer1_nc(comm, nc),
                dtype_bytes=config.dtype_bytes,
                compute_scale=self.gemm_scale,
            )
        return simulate_layer1_vertical(
            cluster.gpu,
            cluster.link,
            schedule,
            comm,
            k=k,
            cols=config.hidden_size,
            dtype_bytes=config.dtype_bytes,
            compute_scale=self.gemm_scale,
        )

    def _run_layer1_kernels(
        self, workload, schedule, comm, k, ncs
    ) -> dict[int, FusedKernelResult]:
        """:meth:`_run_layer1_kernel` at every division point of ``ncs``, in
        one call; those the fused kernel cannot launch with are left out."""
        if not self.specialized:
            # Vertical fusion has no division point: one kernel for all.
            vertical = self._run_layer1_kernel(workload, schedule, comm, k, 0)
            return dict.fromkeys(ncs, vertical)
        config = workload.config
        cluster = workload.cluster
        kernel_nc = {nc: self._layer1_nc(comm, nc) for nc in ncs}
        results = simulate_layer1_fused_variants(
            cluster.gpu,
            cluster.link,
            schedule,
            comm,
            k=k,
            cols=config.hidden_size,
            ncs=kernel_nc.values(),
            dtype_bytes=config.dtype_bytes,
            compute_scale=self.gemm_scale,
        )
        return {nc: results[knc] for nc, knc in kernel_nc.items() if knc in results}

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
        Layer0 simulates each variant in turn; layer1 prices the whole
        library in one vectorised kernel call.
        """
        ProfileKey.check_layer(layer)
        config = workload.config
        geometry = workload.geometry
        rank = geometry.bottleneck_rank
        rank_workload = geometry.rank_workload(rank)
        variants = default_variants(workload.cluster.gpu.num_sms, step=variant_step)

        if layer == 0:
            schedule = build_layer0_schedule(
                rank_workload.pairs_by_src_expert,
                rank,
                policy=POLICY_SORTED if self.reschedule else POLICY_TOKEN_ORDER,
            )
            cols = config.ffn_size // workload.strategy.tp_size

            def simulate(nc: int) -> float:
                return self._run_layer0_kernel(workload, schedule, cols, nc).duration_us

            return profile_division_points(simulate, variants)

        schedule = build_layer1_schedule(
            rank_workload.expert_rows,
            cols=config.hidden_size,
            policy=POLICY_COLUMN_MAJOR if self.reschedule else POLICY_EXPERT_MAJOR,
        )
        comm = self.layer1_comm_work(workload, rank)
        k = config.ffn_size // workload.strategy.tp_size
        results = self._run_layer1_kernels(
            workload, schedule, comm, k, [variant.nc for variant in variants]
        )
        return SweepResult.from_durations(
            {nc: result.duration_us for nc, result in results.items()}
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
