"""One MoE layer invocation: model + cluster + parallelism + routing.

:class:`MoELayerWorkload` is the unit every system's scheduler consumes;
:class:`WorkloadGeometry` pre-computes the per-rank quantities (GroupGEMM
rows, traffic matrices, intra-/cross-group splits, unique-token counts)
that the schedulers share, so each system only encodes *scheduling*
decisions.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro import perf
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.moe.routing import (
    ExpertStream,
    RoutingPlan,
    balanced_fractions,
    imbalanced_fractions,
    routing_from_fractions,
    token_owner_ranks,
)
from repro.parallel.placement import ExpertPlacement, RankWorkload
from repro.parallel.strategy import ParallelStrategy

__all__ = ["MoELayerWorkload", "WorkloadGeometry", "make_workload"]


@dataclass(frozen=True)
class MoELayerWorkload:
    """Everything needed to time (and numerically execute) one MoE layer.

    Attributes:
        config: model shapes (N, K, E, topk, dtype).
        cluster: hardware.
        strategy: TP x EP decomposition; ``strategy.world_size`` must equal
            ``cluster.world_size``.
        plan: routing of all ``M`` tokens (``M`` is the *total* token count
            across devices, each device owning ``M / W`` — the convention
            of the paper's Figure 10).
        owner: ``(M,)`` pre-dispatch token placement.
    """

    config: MoEConfig
    cluster: ClusterSpec
    strategy: ParallelStrategy
    plan: RoutingPlan
    owner: np.ndarray

    def __post_init__(self) -> None:
        if self.strategy.world_size != self.cluster.world_size:
            raise ValueError(
                f"strategy world {self.strategy.world_size} != cluster world "
                f"{self.cluster.world_size}"
            )
        self.strategy.validate_model(self.config.num_experts, self.config.ffn_size)
        if self.plan.num_experts != self.config.num_experts:
            raise ValueError("routing plan expert count does not match the model")
        if self.owner.shape != (self.plan.num_tokens,):
            raise ValueError("owner array must cover every routed token")

    @property
    def total_tokens(self) -> int:
        return self.plan.num_tokens

    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    @property
    def tokens_per_rank(self) -> int:
        return self.total_tokens // self.world_size

    @cached_property
    def geometry(self) -> "WorkloadGeometry":
        return WorkloadGeometry(self)

    def fingerprint(self) -> str:
        """Stable digest of everything that determines this workload's timing.

        Keys the cross-stack :data:`repro.perf.TIMING_CACHE`: two
        workloads with equal fingerprints produce identical
        ``LayerTiming`` under any system.  Covers the frozen spec parts
        (config, cluster, strategy) and the routing realisation (expert
        assignments, combine weights, token owners).  Computed once and
        cached on the instance.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha1()
            digest.update(
                repr((self.config, self.cluster, self.strategy)).encode()
            )
            digest.update(str(self.plan.experts.shape).encode())
            digest.update(np.ascontiguousarray(self.plan.experts).tobytes())
            digest.update(np.ascontiguousarray(self.plan.weights).tobytes())
            digest.update(np.ascontiguousarray(self.owner).tobytes())
            cached = digest.hexdigest()
            self.__dict__["_fingerprint"] = cached
        return cached


class WorkloadGeometry:
    """Derived per-rank quantities shared by every scheduler.

    Every rank's quantities come as one array with a leading rank axis
    (:attr:`pairs_by_src_expert`, :attr:`expert_rows`,
    :attr:`combine_split`), so a scheduler prices all ranks in one batch;
    :meth:`rank_workload` is the per-rank view of the same arrays.
    """

    def __init__(self, workload: MoELayerWorkload):
        self.workload = workload
        self.placement = ExpertPlacement(
            workload.strategy, workload.config.num_experts
        )

    # -- per-rank structure -------------------------------------------------
    @cached_property
    def pairs_by_src_expert(self) -> np.ndarray:
        """``(W, W, E_local)`` pairs from each source rank to each rank's
        local experts (see :meth:`ExpertPlacement.rank_pairs`); read-only."""
        pairs = self.placement.rank_pairs(self.workload.plan, self.workload.owner)
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def expert_rows(self) -> np.ndarray:
        """``(W, E_local)`` GroupGEMM rows per local expert of each rank."""
        return self.pairs_by_src_expert.sum(axis=1)

    @cached_property
    def _rank_workloads(self) -> list[RankWorkload]:
        return self.placement.rank_views(self.pairs_by_src_expert, self.pair_matrix)

    def rank_workload(self, rank: int) -> RankWorkload:
        return self._rank_workloads[rank]

    @cached_property
    def rows_per_rank(self) -> np.ndarray:
        """GroupGEMM rows (routed pairs resident) per rank."""
        return self.expert_rows.sum(axis=1)

    @property
    def bottleneck_rank(self) -> int:
        """Rank with the most GroupGEMM rows — it paces the layer."""
        return int(self.rows_per_rank.argmax())

    # -- traffic ------------------------------------------------------------
    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """``(W, W)`` routed-pair copies (source rank -> destination rank)."""
        return self.placement.pair_matrix(self.workload.plan, self.workload.owner)

    @cached_property
    def dispatch_bytes_matrix(self) -> np.ndarray:
        """Dispatch traffic in bytes; combine traffic is its transpose."""
        return self.pair_matrix * self.workload.config.token_bytes

    def split_intra_cross(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a (W, W) traffic matrix into intra-TP-group and cross-group.

        Intra-group traffic moves between ranks of one TP group (ring
        collective shaped); cross-group traffic is the EP all-to-all.
        """
        strategy = self.workload.strategy
        world = strategy.world_size
        intra = np.zeros_like(matrix)
        for src in range(world):
            for dst in strategy.tp_group_of(src):
                intra[src, dst] = matrix[src, dst]
        return intra, matrix - intra

    @cached_property
    def baseline_dispatch_route(self) -> tuple[np.ndarray, np.ndarray]:
        """Kernel-level dispatch route: (cross_pair_matrix, entered_pairs).

        Megatron-style dispatchers do not fan a routed pair out to every
        TP rank over the all-to-all: the pair crosses EP groups *once* to
        its TP-peer entry rank (``rank_of(group, tp_rank(owner))``) and is
        then replicated inside the group by an all-gather.

        Returns:
            cross_pair_matrix: ``(W, W)`` pairs moved by the EP all-to-all
                from owner rank to entry rank (diagonal = already local).
            entered_pairs: ``(W,)`` pairs entering each rank, i.e. each
                rank's contribution to its TP-group all-gather.
        """
        workload = self.workload
        strategy = workload.strategy
        world = strategy.world_size
        src_expert = workload.plan.counts_by_rank(workload.owner)
        if src_expert.shape[0] < world:
            padded = np.zeros((world, workload.plan.num_experts), dtype=np.int64)
            padded[: src_expert.shape[0]] = src_expert
            src_expert = padded
        # Vectorised scatter-add over the (src, expert) count matrix.
        # entry(src, e) = rank_of(group_of(e), tp_rank(src)) — read off
        # the placement's hosting matrix at each source's TP coordinate.
        tp_ranks = np.array(
            [strategy.tp_rank(src) for src in range(world)], dtype=np.int64
        )
        entry = self.placement.hosting_ranks[:, tp_ranks].T  # (W, E)
        src_grid = np.broadcast_to(
            np.arange(world, dtype=np.int64)[:, None], entry.shape
        )
        cross = np.zeros((world, world), dtype=np.int64)
        np.add.at(cross, (src_grid, entry), src_expert)
        entered = cross.sum(axis=0)
        return cross, entered

    # -- layer1 combine structure --------------------------------------------
    @cached_property
    def unique_tokens_per_rank(self) -> np.ndarray:
        """Tokens with at least one expert copy on each rank.

        This is the row count the layer1 combine sends after the local
        top-k partial reduction merged same-token copies.
        """
        strategy = self.workload.strategy
        # Tokens present in a group, regardless of owner; every rank of
        # an EP group sees that group's token set.
        group_counts = self._group_owner_counts.sum(axis=1)
        ep_ranks = np.array(
            [strategy.ep_rank(r) for r in range(strategy.world_size)],
            dtype=np.int64,
        )
        return group_counts[ep_ranks].astype(np.int64, copy=False)

    @cached_property
    def _group_owner_counts(self) -> np.ndarray:
        """``(ep_size, W)``: per EP group, present-token count per owner rank.

        Row ``g`` bincounts the owners of tokens with at least one expert
        in group ``g`` — the shared input of every rank's
        :meth:`combine_row_split`, computed once.
        """
        workload = self.workload
        plan = workload.plan
        strategy = workload.strategy
        per_group = self.placement.experts_per_rank
        world = strategy.world_size
        ep = strategy.ep_size
        token_groups = plan.experts // per_group  # (M, topk)
        # Distinct (token, group) visits: sort each short row, keep first
        # occurrences, then one flat bincount over (group, owner) cells.
        sorted_groups = np.sort(token_groups, axis=1)
        first = np.ones(sorted_groups.shape, dtype=bool)
        if sorted_groups.shape[1] > 1:
            first[:, 1:] = sorted_groups[:, 1:] != sorted_groups[:, :-1]
        owners = np.broadcast_to(
            workload.owner[:, None], sorted_groups.shape
        )[first]
        flat = sorted_groups[first] * world + owners
        return np.bincount(flat, minlength=ep * world).reshape(ep, world).astype(
            np.int64, copy=False
        )

    @cached_property
    def combine_split(self) -> np.ndarray:
        """``(W, 3)`` (local, remote_bulk, remote_fine) reduced-row counts
        each rank's combine sends.

        * local — token owners on this very rank (plain HBM writes);
        * remote_bulk — owners inside this rank's TP group (contiguous,
          reduce-scatter-shaped messages);
        * remote_fine — owners in other EP groups (token-granular
          scattered all-to-all messages).
        """
        strategy = self.workload.strategy
        ranks = np.arange(strategy.world_size)
        ep_ranks = ranks // strategy.tp_size
        # Row r: owner counts of the tokens present in r's EP group.
        owner_counts = self._group_owner_counts[ep_ranks]
        local = owner_counts[ranks, ranks]
        # r's TP group is the EP group's block of tp_size ranks.
        group = owner_counts.reshape(
            strategy.world_size, strategy.ep_size, strategy.tp_size
        )[ranks, ep_ranks].sum(axis=1)
        bulk = group - local
        fine = owner_counts.sum(axis=1) - local - bulk
        return np.stack((local, bulk, fine), axis=1)

    def combine_row_split(self, rank: int) -> tuple[int, int, int]:
        """Row ``rank`` of :attr:`combine_split`."""
        self.workload.strategy._validate_rank(rank)
        local, bulk, fine = self.combine_split[rank].tolist()
        return local, bulk, fine


def make_workload(
    config: MoEConfig,
    cluster: ClusterSpec,
    strategy: ParallelStrategy,
    total_tokens: int,
    imbalance_std: float = 0.0,
    seed: int = 0,
) -> MoELayerWorkload:
    """Synthesise a workload with controlled expert-load imbalance.

    ``imbalance_std`` is the paper's Figure 14 knob: the standard
    deviation of per-expert token fractions (0 = uniform; their production
    average is 0.032).

    The routing plan depends only on ``(E, topk, total_tokens,
    imbalance_std, seed)``, so workloads that differ only in cluster or
    split share one read-only plan through :data:`repro.perf.ROUTING_CACHE`.
    A balanced plan is cut from its seed's expert stream
    (:func:`_balanced_plan`).  A seed that is not an integer synthesises
    a fresh plan on every call.
    """
    if total_tokens % cluster.world_size != 0:
        raise ValueError(
            f"total_tokens {total_tokens} must divide evenly over "
            f"{cluster.world_size} ranks"
        )
    key = (config.num_experts, config.topk, total_tokens, imbalance_std, seed)
    if not isinstance(seed, numbers.Integral):
        # e.g. None, which draws fresh entropy: nothing to share
        plan = _synthesise_routing(*key)
    elif imbalance_std == 0:
        plan = perf.ROUTING_CACHE.get_or_compute(
            key,
            lambda: _balanced_plan(
                config.num_experts, config.topk, total_tokens, seed
            ),
        )
    else:
        plan = perf.ROUTING_CACHE.get_or_compute(
            key, lambda: _synthesise_routing(*key)
        )
    owner = token_owner_ranks(total_tokens, cluster.world_size)
    return MoELayerWorkload(
        config=config,
        cluster=cluster,
        strategy=strategy,
        plan=plan,
        owner=owner,
    )


def _synthesise_routing(
    num_experts: int,
    topk: int,
    total_tokens: int,
    imbalance_std: float,
    seed: int | None,
) -> RoutingPlan:
    """Draw one routing plan on its own; its arrays are read-only,
    because a cached plan backs every workload with the same key."""
    rng = np.random.default_rng(seed)
    if imbalance_std != 0:  # a negative or NaN std raises there
        fractions = imbalanced_fractions(num_experts, imbalance_std, rng)
    else:
        fractions = balanced_fractions(num_experts)
    return _read_only(routing_from_fractions(total_tokens, topk, fractions, rng))


def _balanced_plan(
    num_experts: int, topk: int, total_tokens: int, seed: int
) -> RoutingPlan:
    """The balanced plan of an integer ``seed``, cut from the seed's
    :class:`~repro.moe.routing.ExpertStream`.

    The stream lives in :data:`repro.perf.ROUTING_CACHE` beside the
    plans, so every balanced plan of one ``(E, topk, seed)`` shares its
    expert rows and draws only the rows no earlier plan drew.  Equal to
    ``_synthesise_routing(num_experts, topk, total_tokens, 0.0, seed)``.
    """
    stream = perf.ROUTING_CACHE.get_or_compute(
        ("stream", num_experts, topk, seed),
        lambda: ExpertStream(num_experts, topk, seed),
    )
    return _read_only(stream.plan(total_tokens))


def _read_only(plan: RoutingPlan) -> RoutingPlan:
    plan.experts.setflags(write=False)
    plan.weights.setflags(write=False)
    return plan
