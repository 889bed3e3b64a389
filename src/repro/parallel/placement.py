"""Expert placement and communication-volume geometry.

Binds a :class:`~repro.parallel.strategy.ParallelStrategy` to a concrete
expert count and derives, for any routing plan, the quantities every
scheduler needs:

* GroupGEMM row counts per rank (the local M dimension of the paper's
  shared tensor);
* the (source rank, destination rank) matrix of routed token copies that
  determines dispatch/combine traffic;
* per-(source rank, expert) counts used by COMET's sort-by-source-rank
  rescheduling.

Granularity convention: communication and GEMM rows are both counted per
(token, expert) pair — the shared tensor's global size is ``(M * topk, N)``
(paper Figure 4), i.e. a token routed to two experts of the same remote
rank is carried twice.  This mirrors Megatron's permute-then-all2all
dispatcher and keeps every system's volume identical, so systems differ
only in *scheduling*, which is what the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.moe.routing import RoutingPlan
from repro.parallel.strategy import ParallelStrategy

__all__ = ["ExpertPlacement", "RankWorkload"]


@dataclass(frozen=True)
class RankWorkload:
    """Per-rank view of one MoE layer invocation.

    Attributes:
        rank: which rank this describes.
        expert_rows: ``(E_local,)`` GroupGEMM rows per *local* expert, in
            local expert order.
        local_experts: the global ids of this rank's experts.
        recv_pairs_by_src: ``(W,)`` routed pairs arriving from each source
            rank (``recv_pairs_by_src[rank]`` is the locally owned part).
        send_pairs_by_dst: ``(W,)`` routed pairs this rank's tokens
            contribute to each destination rank.
        pairs_by_src_expert: ``(W, E_local)`` pairs from each source rank
            to each local expert — the input to sort-by-source-rank
            rescheduling.
    """

    rank: int
    expert_rows: np.ndarray
    local_experts: tuple[int, ...]
    recv_pairs_by_src: np.ndarray
    send_pairs_by_dst: np.ndarray
    pairs_by_src_expert: np.ndarray

    @property
    def total_rows(self) -> int:
        """Total GroupGEMM rows on this rank (local M of the shared tensor)."""
        return int(self.expert_rows.sum())

    @property
    def remote_recv_pairs(self) -> int:
        """Pairs that must be fetched over the interconnect."""
        return int(self.recv_pairs_by_src.sum() - self.recv_pairs_by_src[self.rank])

    @property
    def local_recv_pairs(self) -> int:
        """Pairs already resident on this rank before dispatch."""
        return int(self.recv_pairs_by_src[self.rank])


@dataclass(frozen=True)
class ExpertPlacement:
    """Experts bound to EP groups under a fixed strategy."""

    strategy: ParallelStrategy
    num_experts: int

    def __post_init__(self) -> None:
        if self.num_experts % self.strategy.ep_size != 0:
            raise ValueError(
                f"{self.num_experts} experts not divisible by "
                f"ep_size {self.strategy.ep_size}"
            )

    @property
    def world_size(self) -> int:
        return self.strategy.world_size

    @property
    def experts_per_rank(self) -> int:
        """Local expert count (every rank of an EP group hosts the same set)."""
        return self.num_experts // self.strategy.ep_size

    def ranks_hosting_expert(self, expert: int) -> list[int]:
        """All ranks holding (a TP shard of) ``expert``."""
        group = self.strategy.ep_group_of_expert(expert, self.num_experts)
        return self.strategy.ranks_in_ep_group(group)

    @cached_property
    def hosting_ranks(self) -> np.ndarray:
        """``(E, tp)`` hosting ranks per expert, as one array.

        Built from :meth:`ranks_hosting_expert` so the vectorised
        geometry below (and :class:`~repro.runtime.workload.WorkloadGeometry`)
        has a single source of truth for the placement law.
        """
        return np.array(
            [self.ranks_hosting_expert(e) for e in range(self.num_experts)],
            dtype=np.int64,
        ).reshape(self.num_experts, self.strategy.tp_size)

    def experts_of_rank(self, rank: int) -> list[int]:
        return self.strategy.experts_of_rank(rank, self.num_experts)

    # -- plan-dependent geometry ---------------------------------------------
    def _src_expert(self, plan: RoutingPlan, owner: np.ndarray) -> np.ndarray:
        """``(W, E)`` pairs per (source rank, expert), padded to the world."""
        self._check_plan(plan, owner)
        src_expert = plan.counts_by_rank(owner)
        if src_expert.shape[0] < self.world_size:
            padded = np.zeros((self.world_size, plan.num_experts), dtype=np.int64)
            padded[: src_expert.shape[0]] = src_expert
            src_expert = padded
        return src_expert

    def pair_matrix(self, plan: RoutingPlan, owner: np.ndarray) -> np.ndarray:
        """``(W, W)`` routed-pair copies from source rank to destination rank.

        Entry ``[s, d]`` counts (token, expert) pairs whose token lives on
        rank ``s`` and whose expert has a shard on rank ``d``; under TP > 1
        each pair fans out to all TP ranks of the expert's group.
        """
        world = self.world_size
        src_expert = self._src_expert(plan, owner)  # (W, E)
        # Vectorised scatter over the hosting matrix: every (expert, tp
        # shard) cell receives that expert's per-source counts.
        hosting = self.hosting_ranks
        experts_rep = np.repeat(
            np.arange(self.num_experts, dtype=np.int64), self.strategy.tp_size
        )
        matrix = np.zeros((world, world), dtype=np.int64)
        np.add.at(
            matrix,
            (np.arange(world, dtype=np.int64)[:, None], hosting.reshape(-1)[None, :]),
            src_expert[:, experts_rep],
        )
        return matrix

    def rank_pairs(self, plan: RoutingPlan, owner: np.ndarray) -> np.ndarray:
        """``(W, W, E_local)``: every rank's ``pairs_by_src_expert`` at once.

        Entry ``[r, s, e]`` counts pairs from source rank ``s`` to rank
        ``r``'s ``e``-th local expert.  Each EP group hosts a contiguous
        block of experts, so row ``r`` is one column block of the
        (source, expert) count matrix.
        """
        world = self.world_size
        ep_ranks = np.arange(world, dtype=np.int64) // self.strategy.tp_size
        by_group = self._src_expert(plan, owner).reshape(
            world, self.strategy.ep_size, self.experts_per_rank
        )
        return by_group.transpose(1, 0, 2)[ep_ranks]

    def rank_workload(
        self, plan: RoutingPlan, owner: np.ndarray, rank: int
    ) -> RankWorkload:
        """Assemble the per-rank workload view (see :class:`RankWorkload`)."""
        self.strategy._validate_rank(rank)
        return self.all_rank_workloads(plan, owner)[rank]

    def all_rank_workloads(
        self, plan: RoutingPlan, owner: np.ndarray
    ) -> list[RankWorkload]:
        """Every rank's view, from one :meth:`rank_pairs` and one
        :meth:`pair_matrix` (whose row ``r`` is rank ``r``'s sends)."""
        return self.rank_views(self.rank_pairs(plan, owner), self.pair_matrix(plan, owner))

    def rank_views(
        self, rank_pairs: np.ndarray, pair_matrix: np.ndarray
    ) -> list[RankWorkload]:
        """:class:`RankWorkload` views over a :meth:`rank_pairs` array and
        the :meth:`pair_matrix` of the same plan."""
        expert_rows = rank_pairs.sum(axis=1)
        recv_by_src = rank_pairs.sum(axis=2)
        return [
            RankWorkload(
                rank=rank,
                expert_rows=expert_rows[rank],
                local_experts=tuple(self.experts_of_rank(rank)),
                recv_pairs_by_src=recv_by_src[rank],
                send_pairs_by_dst=pair_matrix[rank],
                pairs_by_src_expert=rank_pairs[rank],
            )
            for rank in range(self.world_size)
        ]

    def _check_plan(self, plan: RoutingPlan, owner: np.ndarray) -> None:
        if plan.num_experts != self.num_experts:
            raise ValueError(
                f"plan has {plan.num_experts} experts, placement expects "
                f"{self.num_experts}"
            )
        if owner.shape != (plan.num_tokens,):
            raise ValueError(
                f"owner must have shape ({plan.num_tokens},), got {owner.shape}"
            )
        if owner.size and int(owner.max()) >= self.world_size:
            raise ValueError("owner rank out of range for this placement")
