"""MoE model configurations (paper Table 1 symbols, Table 2 models)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.domains import knob, validate

__all__ = [
    "MIXTRAL_8X7B",
    "MoEConfig",
    "PAPER_MODELS",
    "PHI35_MOE",
    "QWEN2_MOE",
]


@dataclass(frozen=True)
class MoEConfig:
    """Static description of an MoE transformer's expert layers.

    Symbol mapping to the paper's Table 1:

    * ``num_layers`` = L, ``num_experts`` = E, ``topk`` = topk
    * ``hidden_size`` = N (token embedding size)
    * ``ffn_size`` = K (expert feed-forward hidden size)

    so each expert is two GEMMs: layer0 with an ``N x K`` weight and layer1
    with a ``K x N`` weight, with an elementwise activation in between
    (paper Figure 2).
    """

    name: str
    num_layers: int = knob(gt=0, integral=True)
    num_experts: int = knob(gt=0, integral=True)
    topk: int = knob(gt=0, integral=True)
    hidden_size: int = knob(gt=0, integral=True)
    ffn_size: int = knob(gt=0, integral=True)
    dtype_bytes: int = knob(2, gt=0, integral=True)  # BF16/FP16 as used throughout the paper
    num_attention_heads: int = knob(32, gt=0, integral=True)

    def __post_init__(self) -> None:
        validate(self)
        if self.topk > self.num_experts:
            raise ValueError(
                f"topk must lie in [1, num_experts={self.num_experts}], got {self.topk}"
            )
        if self.dtype_bytes not in (1, 2, 4, 8):
            raise ValueError(f"unsupported dtype_bytes {self.dtype_bytes}")

    @property
    def expert_flops_per_token(self) -> float:
        """Dense FLOPs one token costs in one expert (both GEMM layers)."""
        return 2.0 * self.hidden_size * self.ffn_size * 2

    @property
    def token_bytes(self) -> int:
        """Wire size of one token's activation vector."""
        return self.hidden_size * self.dtype_bytes

    def with_experts(self, num_experts: int, topk: int | None = None) -> "MoEConfig":
        """Variant with a different expert count (used by Figure 10/13 sweeps)."""
        new_topk = self.topk if topk is None else topk
        return replace(
            self,
            name=f"{self.name}-E{num_experts}k{new_topk}",
            num_experts=num_experts,
            topk=new_topk,
        )

    def nvshmem_buffer_bytes(self, tokens: int) -> int:
        """COMET's symmetric communication buffer size (paper §5.5).

        The buffer holds ``M`` tokens of ``N`` elements at ``dtype_bytes``
        each and is shared across layers and experts, i.e. 2*M*N bytes for
        BF16 — exactly Table 3's accounting.
        """
        if tokens < 0:
            raise ValueError(f"tokens must be non-negative, got {tokens}")
        return tokens * self.hidden_size * self.dtype_bytes


# Paper Table 2 — models used in the end-to-end evaluation.
MIXTRAL_8X7B = MoEConfig(
    name="Mixtral-8x7B",
    num_layers=32,
    num_experts=8,
    topk=2,
    hidden_size=4096,
    ffn_size=14336,
)

QWEN2_MOE = MoEConfig(
    name="Qwen2-MoE-2.7B",
    num_layers=24,
    num_experts=64,
    topk=4,
    hidden_size=2048,
    ffn_size=1408,
)

PHI35_MOE = MoEConfig(
    name="Phi-3.5-MoE",
    num_layers=32,
    num_experts=16,
    topk=2,
    hidden_size=4096,
    ffn_size=6400,
)

PAPER_MODELS: tuple[MoEConfig, ...] = (MIXTRAL_8X7B, QWEN2_MOE, PHI35_MOE)
