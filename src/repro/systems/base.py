"""System interface, timing record, and shared cost helpers."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.comm.primitives import (
    all_gather_cost,
    all_to_all_cost,
    reduce_scatter_cost,
)
from repro.kernels.gemm import activation_time_us, group_gemm_time_us
from repro.moe.experts import ExpertWeights
from repro.runtime.workload import MoELayerWorkload

__all__ = ["LayerTiming", "MoESystem", "UnsupportedWorkload"]


class UnsupportedWorkload(ValueError):
    """The system cannot run this workload (e.g. FasterMoE with TP > 1)."""


@dataclass(frozen=True)
class LayerTiming:
    """Timing of one MoE layer under one system (all µs).

    Segment semantics follow the paper's Figure 11: the ``*_comm_us``
    fields are the *standalone* GPU-to-GPU communication durations, and
    ``exposed_*`` are the parts that remain on the critical path after
    whatever overlapping the system performs.  ``total_us`` is wall-clock:
    for no-overlap systems it equals the sum of all segments; for
    overlapping systems the hidden communication is subtracted.
    """

    system: str
    gate_us: float
    layer0_comm_us: float
    layer0_comp_us: float
    activation_us: float
    layer1_comp_us: float
    layer1_comm_us: float
    host_us: float
    exposed_layer0_comm_us: float
    exposed_layer1_comm_us: float

    def __post_init__(self) -> None:
        for name in (
            "gate_us",
            "layer0_comm_us",
            "layer0_comp_us",
            "activation_us",
            "layer1_comp_us",
            "layer1_comm_us",
            "host_us",
            "exposed_layer0_comm_us",
            "exposed_layer1_comm_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.exposed_layer0_comm_us > self.layer0_comm_us + 1e-6:
            raise ValueError("exposed layer0 comm exceeds its standalone duration")
        if self.exposed_layer1_comm_us > self.layer1_comm_us + 1e-6:
            raise ValueError("exposed layer1 comm exceeds its standalone duration")

    @property
    def total_us(self) -> float:
        """Wall-clock duration of the layer."""
        return (
            self.gate_us
            + self.exposed_layer0_comm_us
            + self.layer0_comp_us
            + self.activation_us
            + self.layer1_comp_us
            + self.exposed_layer1_comm_us
            + self.host_us
        )

    @property
    def comm_us(self) -> float:
        """Total standalone GPU-to-GPU communication."""
        return self.layer0_comm_us + self.layer1_comm_us

    @property
    def exposed_comm_us(self) -> float:
        return self.exposed_layer0_comm_us + self.exposed_layer1_comm_us

    @property
    def hidden_comm_fraction(self) -> float:
        """Fraction of communication hidden under computation (Figure 11)."""
        if self.comm_us <= 0:
            return 1.0
        return 1.0 - self.exposed_comm_us / self.comm_us

    @property
    def comp_us(self) -> float:
        return self.layer0_comp_us + self.layer1_comp_us

    def breakdown(self) -> dict[str, float]:
        """Figure 11's segments, in its plotting order."""
        return {
            "gating": self.gate_us + self.host_us,
            "layer0-comm": self.exposed_layer0_comm_us,
            "layer0-comp": self.layer0_comp_us,
            "activation": self.activation_us,
            "layer1-comp": self.layer1_comp_us,
            "layer1-comm": self.exposed_layer1_comm_us,
        }


class MoESystem(ABC):
    """An MoE layer execution mechanism.

    ``name`` is the display name used in figure tables; ``slug`` is the
    short registry name (set by :func:`repro.api.registry.register_system`)
    through which the system is addressable from the CLI and the
    declarative experiment API.

    Args:
        gemm_scale: multiplier on expert GEMM compute.  1.0 is the
            forward pass; the backward pass of the same layer runs the
            same communication pattern with roughly twice the GEMM work
            (dgrad + wgrad), i.e. ``gemm_scale = 2.0`` — see
            :mod:`repro.runtime.training`.
    """

    name: str = "abstract"
    slug: str = ""
    #: Fraction of the intra-layer comm-hiding capacity the system can
    #: re-apply when a straggler spec perturbs a rank's durations
    #: (see :meth:`lower_rank_layer`).  1.0 models mechanisms whose
    #: overlap engine adapts to the perturbed timeline (fine-grained
    #: pipelines); 0.0 models mechanisms with no overlap machinery,
    #: where any extra communication lands fully exposed.
    straggler_rehide: float = 1.0

    def __init__(self, gemm_scale: float = 1.0):
        if not 0 < gemm_scale < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"gemm_scale must be finite and positive, got {gemm_scale}"
            )
        self.gemm_scale = gemm_scale

    def backward_variant(self) -> "MoESystem":
        """A copy of this system configured for the backward pass."""
        import copy

        variant = copy.copy(self)
        variant.gemm_scale = self.gemm_scale * 2.0
        return variant

    def fingerprint(self) -> tuple:
        """Hashable identity of everything that affects ``time_layer``.

        Keys the cross-stack :data:`repro.perf.TIMING_CACHE`: two system
        instances with equal fingerprints must time every workload
        identically.  The default covers stateless systems (behaviour
        fixed by the class plus ``gemm_scale``); systems with
        constructor-time knobs override and extend it.
        """
        return (type(self).__qualname__, float(self.gemm_scale))

    def supports(self, workload: MoELayerWorkload) -> bool:
        """Whether this system can execute the workload at all."""
        return True

    def check_supported(self, workload: MoELayerWorkload) -> None:
        if not self.supports(workload):
            raise UnsupportedWorkload(
                f"{self.name} does not support {workload.strategy}"
            )

    @abstractmethod
    def time_layer(self, workload: MoELayerWorkload) -> LayerTiming:
        """Simulate the layer's execution and return its timing."""

    def lower_layer(self, timing: LayerTiming) -> tuple:
        """Lower one timed MoE layer into schedule-graph phases.

        Returns the :class:`repro.graph.ir.LayerPhase` sequence the
        whole-model graph builders consume
        (:mod:`repro.graph.lower`).  The default derives the phases from
        the :class:`LayerTiming` breakdown — gate, exposed dispatch,
        layer-0 GEMM, activation, layer-1 GEMM, exposed combine, host —
        in exactly the order :attr:`LayerTiming.total_us` sums them, so
        a serial chain of these phases reproduces the layer's wall clock
        bit for bit and every system (COMET, Tutel, FasterMoE, Megatron)
        lowers without a per-system rewrite.  Comm phases carry the
        *exposed* durations, so cross-layer overlap policies compound on
        top of whatever intra-layer hiding the system already performs.

        Systems with a different phase structure may override; the
        policy builders key on :class:`~repro.graph.ir.NodeKind` (in
        particular, ``COMBINE`` marks the detachable layer-boundary
        communication).
        """
        from repro.graph.ir import LayerPhase, NodeKind

        return (
            LayerPhase(NodeKind.GATE, timing.gate_us),
            LayerPhase(
                NodeKind.DISPATCH, timing.exposed_layer0_comm_us, comm=True
            ),
            LayerPhase(NodeKind.EXPERT, timing.layer0_comp_us),
            LayerPhase(NodeKind.ACTIVATION, timing.activation_us),
            LayerPhase(NodeKind.EXPERT, timing.layer1_comp_us),
            LayerPhase(
                NodeKind.COMBINE, timing.exposed_layer1_comm_us, comm=True
            ),
            LayerPhase(NodeKind.HOST, timing.host_us),
        )

    def lower_rank_layer(
        self,
        timing: LayerTiming,
        compute_mult: float = 1.0,
        comm_mult: float = 1.0,
        expert_mult: float = 1.0,
    ) -> tuple:
        """Lower one timed MoE layer into phases for one *perturbed* rank.

        The per-rank graph builders call this once per distinct
        straggler multiplier triple (:meth:`lower_rank_phases`).  With
        all multipliers exactly 1.0 it returns :meth:`lower_layer`
        unchanged — the documented degenerate case whose per-rank graph
        makespan is bit-identical to the single-rank graph's.

        Otherwise compute phases scale by ``compute_mult`` (expert-branch
        phases additionally by ``expert_mult``), and the comm phases are
        **re-exposed** from the timing's standalone/exposed split rather
        than naively scaled: the standalone collective grows by
        ``comm_mult`` while the hiding capacity (standalone minus
        exposed) grows with the compute it hides under, applied with the
        system's :attr:`straggler_rehide` fraction::

            exposed' = max(standalone * comm_mult
                           - hidden * (1 + rehide * (branch_mult - 1)), 0)

        For ``comm_mult == branch_mult == m`` and ``rehide = 1`` this
        reduces to ``exposed * m`` (a uniformly slow rank keeps its
        hiding fraction); for ``rehide = 0`` every extra communication
        byte lands on the critical path — the behaviour of systems
        without an overlap engine.
        """
        from repro.graph.ir import LayerPhase, NodeKind

        if compute_mult == 1.0 and comm_mult == 1.0 and expert_mult == 1.0:
            return self.lower_layer(timing)
        if type(self).lower_layer is not MoESystem.lower_layer:
            # The system lowers to a custom phase structure; the re-built
            # 7-phase tuple below would be structurally misaligned with
            # the unperturbed ranks' custom phases.  Scale the system's
            # own phases generically instead (exposed comm by comm_mult,
            # compute by the branch multipliers) — systems wanting the
            # re-exposure refinement override lower_rank_layer in tandem.
            from repro.graph.straggler import StragglerSpec

            return StragglerSpec(
                (compute_mult,), (comm_mult,), (expert_mult,)
            ).scale_phases(self.lower_layer(timing), 0)
        branch_mult = compute_mult * expert_mult  # the expert pipeline rate
        capacity_mult = 1.0 + self.straggler_rehide * (branch_mult - 1.0)

        def exposed(standalone_us: float, exposed_us: float) -> float:
            hidden = standalone_us - exposed_us
            return max(standalone_us * comm_mult - hidden * capacity_mult, 0.0)

        return (
            LayerPhase(NodeKind.GATE, timing.gate_us * compute_mult),
            LayerPhase(
                NodeKind.DISPATCH,
                exposed(timing.layer0_comm_us, timing.exposed_layer0_comm_us),
                comm=True,
            ),
            LayerPhase(NodeKind.EXPERT, timing.layer0_comp_us * branch_mult),
            LayerPhase(NodeKind.ACTIVATION, timing.activation_us * branch_mult),
            LayerPhase(NodeKind.EXPERT, timing.layer1_comp_us * branch_mult),
            LayerPhase(
                NodeKind.COMBINE,
                exposed(timing.layer1_comm_us, timing.exposed_layer1_comm_us),
                comm=True,
            ),
            LayerPhase(NodeKind.HOST, timing.host_us * compute_mult),
        )

    def lower_rank_phases(self, timing: LayerTiming, stragglers) -> tuple:
        """Per-rank phase table for the multi-rank graph builders.

        Returns one phase tuple per rank of the
        :class:`~repro.graph.straggler.StragglerSpec`; ranks sharing a
        multiplier triple share one lowered tuple (the rank-deduplication
        idea of the PR 3 timing fingerprints applied to lowering, via
        :meth:`~repro.graph.straggler.StragglerSpec.per_rank_table`).
        """
        return stragglers.per_rank_table(
            lambda rank: self.lower_rank_layer(
                timing, *stragglers.rank_multipliers(rank)
            )
        )

    def execute(
        self,
        x: np.ndarray,
        workload: MoELayerWorkload,
        weights: ExpertWeights,
    ) -> np.ndarray:
        """Numerically execute the layer under this system's schedule.

        The default executes the canonical (reference) schedule; systems
        that reorder computation override this so tests can verify their
        schedule is a pure reordering.
        """
        from repro.moe.reference import reference_moe_forward

        self.check_supported(workload)
        return reference_moe_forward(x, workload.plan, weights)

    # -- shared cost pieces ---------------------------------------------------
    @staticmethod
    def gate_time_us(workload: MoELayerWorkload) -> float:
        """Gate GEMM + top-k selection on each rank's owned tokens."""
        config = workload.config
        gpu = workload.cluster.gpu
        tokens = workload.tokens_per_rank
        gemm_flops = 2.0 * tokens * config.hidden_size * config.num_experts
        gemm_time = gemm_flops / gpu.flops_per_us
        # Softmax + top-k + routing-table build are bandwidth-bound passes
        # over the (tokens x E) probability matrix.
        softmax_bytes = 4.0 * tokens * config.num_experts * 4
        return gemm_time + softmax_bytes / gpu.hbm_bytes_per_us

    @staticmethod
    def activation_us(workload: MoELayerWorkload) -> float:
        """Elementwise activation on the bottleneck rank's rows."""
        geometry = workload.geometry
        rows = int(geometry.rows_per_rank.max())
        cols = workload.config.ffn_size // workload.strategy.tp_size
        return activation_time_us(
            workload.cluster.gpu, rows, cols, workload.config.dtype_bytes
        )

    def group_gemm_us(
        self,
        workload: MoELayerWorkload,
        layer: int,
        num_sms: int | None = None,
        rows_scale: float = 1.0,
    ) -> float:
        """Bottleneck-rank GroupGEMM time for layer 0 or 1.

        ``rows_scale`` prices a chunked fraction of the rows (pipelined
        baselines) — per-expert remainders make the sum of chunk times
        exceed the unchunked time, the paper's Figure 1(b) effect.
        """
        config = workload.config
        geometry = workload.geometry
        expert_rows = geometry.rank_workload(geometry.bottleneck_rank).expert_rows
        if rows_scale != 1.0:
            expert_rows = np.ceil(expert_rows * rows_scale).astype(np.int64)
        tp = workload.strategy.tp_size
        if layer == 0:
            cols, k = config.ffn_size // tp, config.hidden_size
        elif layer == 1:
            cols, k = config.hidden_size, config.ffn_size // tp
        else:
            raise ValueError(f"layer must be 0 or 1, got {layer}")
        return self.gemm_scale * group_gemm_time_us(
            workload.cluster.gpu,
            expert_rows,
            cols=cols,
            k=k,
            num_sms=num_sms,
            dtype_bytes=config.dtype_bytes,
        ).time_us

    @staticmethod
    def dispatch_comm_us(
        workload: MoELayerWorkload, chunk_fraction: float = 1.0
    ) -> float:
        """Kernel-level dispatch: EP all-to-all + TP-group all-gather.

        Routed pairs cross EP groups once (to the owner's TP-peer), then
        an all-gather replicates them inside the TP group — the standard
        Megatron dispatcher decomposition.
        """
        geometry = workload.geometry
        cluster = workload.cluster
        token_bytes = workload.config.token_bytes
        cross_pairs, entered = geometry.baseline_dispatch_route
        time = 0.0
        cross = cross_pairs * token_bytes
        off = cross.copy()
        np.fill_diagonal(off, 0)
        if off.sum() > 0:
            time += all_to_all_cost(cluster, cross, chunk_fraction).time_us
        tp = workload.strategy.tp_size
        if tp > 1 and entered.sum() > 0:
            per_rank_contribution = float(entered.max()) * token_bytes
            time += all_gather_cost(
                cluster, per_rank_contribution * chunk_fraction, tp
            ).time_us
        return time

    @staticmethod
    def combine_comm_us(
        workload: MoELayerWorkload, chunk_fraction: float = 1.0
    ) -> float:
        """Kernel-level combine: TP-group reduce-scatter + EP all-to-all.

        The reverse of dispatch: partial expert outputs reduce-scatter
        within the TP group, then travel back across EP groups to their
        owner ranks.
        """
        geometry = workload.geometry
        cluster = workload.cluster
        token_bytes = workload.config.token_bytes
        cross_pairs, entered = geometry.baseline_dispatch_route
        time = 0.0
        cross = cross_pairs.T * token_bytes
        off = cross.copy()
        np.fill_diagonal(off, 0)
        if off.sum() > 0:
            time += all_to_all_cost(cluster, cross, chunk_fraction).time_us
        tp = workload.strategy.tp_size
        if tp > 1 and entered.sum() > 0:
            per_rank_contribution = float(entered.max()) * token_bytes
            time += reduce_scatter_cost(
                cluster, per_rank_contribution * chunk_fraction, tp
            ).time_us
        return time

    @staticmethod
    def permute_us(workload: MoELayerWorkload, passes: float = 2.0) -> float:
        """Local token (un)permutation around the collectives (HBM-bound)."""
        geometry = workload.geometry
        rows = int(geometry.rows_per_rank.max())
        bytes_moved = passes * rows * workload.config.token_bytes
        return bytes_moved / workload.cluster.gpu.hbm_bytes_per_us
