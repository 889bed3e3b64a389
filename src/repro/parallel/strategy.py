"""Hybrid tensor-parallel / expert-parallel rank geometry.

Rank layout convention: ranks are numbered so that TP is the fast axis —
rank ``r`` has ``tp_rank = r % tp_size`` and ``ep_rank = r // tp_size``.
All ranks of one EP group therefore form a contiguous block, matching
Megatron-LM's default process-group construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import knob, validate

__all__ = ["ParallelStrategy"]


@dataclass(frozen=True)
class ParallelStrategy:
    """A fixed TP x EP decomposition of the world.

    Attributes:
        tp_size: tensor-parallel group size (experts' FFN dim split TP ways).
        ep_size: expert-parallel group size (experts divided over EP groups).
    """

    tp_size: int = knob(gt=0, integral=True)
    ep_size: int = knob(gt=0, integral=True)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def world_size(self) -> int:
        """Total parallel world size W = TP x EP (paper Table 1)."""
        return self.tp_size * self.ep_size

    def __str__(self) -> str:
        return f"TP{self.tp_size}xEP{self.ep_size}"

    # -- rank geometry ------------------------------------------------------
    def tp_rank(self, rank: int) -> int:
        self._validate_rank(rank)
        return rank % self.tp_size

    def ep_rank(self, rank: int) -> int:
        self._validate_rank(rank)
        return rank // self.tp_size

    def rank_of(self, ep_rank: int, tp_rank: int) -> int:
        if not 0 <= ep_rank < self.ep_size:
            raise ValueError(f"ep_rank {ep_rank} out of range")
        if not 0 <= tp_rank < self.tp_size:
            raise ValueError(f"tp_rank {tp_rank} out of range")
        return ep_rank * self.tp_size + tp_rank

    def ranks_in_ep_group(self, ep_rank: int) -> list[int]:
        """All ranks (the TP group) hosting EP group ``ep_rank``'s experts."""
        return [self.rank_of(ep_rank, t) for t in range(self.tp_size)]

    def tp_group_of(self, rank: int) -> list[int]:
        """The TP group containing ``rank``."""
        return self.ranks_in_ep_group(self.ep_rank(rank))

    # -- expert geometry ------------------------------------------------------
    def validate_model(self, num_experts: int, ffn_size: int) -> None:
        """Check the model is divisible by this strategy."""
        if num_experts % self.ep_size != 0:
            raise ValueError(
                f"{num_experts} experts not divisible by ep_size {self.ep_size}"
            )
        if ffn_size % self.tp_size != 0:
            raise ValueError(
                f"ffn_size {ffn_size} not divisible by tp_size {self.tp_size}"
            )

    def experts_per_ep_group(self, num_experts: int) -> int:
        if num_experts % self.ep_size != 0:
            raise ValueError(
                f"{num_experts} experts not divisible by ep_size {self.ep_size}"
            )
        return num_experts // self.ep_size

    def ep_group_of_expert(self, expert: int, num_experts: int) -> int:
        """EP group hosting ``expert`` (contiguous block placement)."""
        if not 0 <= expert < num_experts:
            raise ValueError(f"expert {expert} out of range")
        return expert // self.experts_per_ep_group(num_experts)

    def experts_of_ep_group(self, ep_rank: int, num_experts: int) -> list[int]:
        """Expert ids resident in EP group ``ep_rank``."""
        per_group = self.experts_per_ep_group(num_experts)
        if not 0 <= ep_rank < self.ep_size:
            raise ValueError(f"ep_rank {ep_rank} out of range")
        return list(range(ep_rank * per_group, (ep_rank + 1) * per_group))

    def experts_of_rank(self, rank: int, num_experts: int) -> list[int]:
        """Expert ids whose (sharded) weights live on ``rank``."""
        return self.experts_of_ep_group(self.ep_rank(rank), num_experts)

    def _validate_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")

    @staticmethod
    def sweep(world_size: int) -> list["ParallelStrategy"]:
        """All TP x EP factorisations of ``world_size`` (Figure 12's x-axis)."""
        out = []
        tp = 1
        while tp <= world_size:
            if world_size % tp == 0:
                out.append(ParallelStrategy(tp_size=tp, ep_size=world_size // tp))
            tp *= 2
        return out
