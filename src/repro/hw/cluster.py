"""Cluster model: a set of identical GPUs joined by a uniform link.

The COMET evaluation runs on single nodes (8xH800 over NVLink, 8xL20 over
PCIe), so the topology is fully connected and homogeneous.  The class still
keeps per-pair accounting hooks so heterogeneous topologies (e.g. 2D
hierarchies across nodes) can be layered on later.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import knob, validate
from repro.hw.gpu import GpuSpec
from repro.hw.link import LinkSpec

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous single-tier GPU cluster.

    Attributes:
        name: label used in benchmark output, e.g. ``"8xH800-NVLink"``.
        gpu: per-device model.
        link: GPU-to-GPU transport model (uniform across pairs).
        world_size: number of GPUs.
    """

    name: str
    gpu: GpuSpec
    link: LinkSpec
    world_size: int = knob(gt=0, integral=True)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def total_sms(self) -> int:
        return self.world_size * self.gpu.num_sms

    def validate_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")

    def p2p_time_us(self, src: int, dst: int, nbytes: float, messages: int = 1) -> float:
        """Point-to-point transfer time; local copies cost HBM time only."""
        self.validate_rank(src)
        self.validate_rank(dst)
        if src == dst:
            # Local move: read + write through HBM.
            return 2.0 * nbytes / self.gpu.hbm_bytes_per_us
        return self.link.transfer_us(nbytes, messages)

    def with_world_size(self, world_size: int) -> "ClusterSpec":
        """Same hardware, different GPU count (for scaling sweeps)."""
        return ClusterSpec(
            name=f"{world_size}x{self.gpu.name}-{self.link.name}",
            gpu=self.gpu,
            link=self.link,
            world_size=world_size,
        )
