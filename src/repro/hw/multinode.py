"""Two-tier (multi-node) cluster topologies.

The paper evaluates on single nodes but deploys COMET on production
clusters of ten-thousand-plus GPUs, where expert parallelism spans nodes
and the all-to-all crosses both NVLink (intra-node) and the scale-out
fabric (RDMA/InfiniBand, inter-node).  This module models that setting:

* :class:`TwoTierCluster` — ``nodes x gpus_per_node`` with distinct
  intra- and inter-node links;
* :meth:`TwoTierCluster.effective_cluster` — a locality-weighted
  reduction to a flat :class:`~repro.hw.cluster.ClusterSpec`, so every
  scheduler and cost model in the repository runs unchanged on the
  hierarchical topology.  The reduction uses the harmonic blend of the
  two tiers under the workload's traffic-locality fraction, which is
  exact for bandwidth-dominated transfers where both tiers serialise
  through the same per-rank communication engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import knob, validate
from repro.hw.cluster import ClusterSpec
from repro.hw.gpu import GpuSpec
from repro.hw.link import LinkSpec
from repro.hw.presets import H800, NVLINK_H800

__all__ = ["IB_400G", "TwoTierCluster", "h800_pod"]

# 400 Gb/s NDR InfiniBand per GPU: ~50 GB/s peak, calibrated like the
# NVLink preset (fine-grained achievable cap, lower collective efficiency,
# higher per-message cost than NVLink).
IB_400G = LinkSpec(
    name="IB-400G",
    gbps=42.0,
    latency_us=6.0,
    per_message_us=0.6,
    per_block_gbps=2.5,
    a2a_efficiency=0.5,
    ring_efficiency=0.8,
)


@dataclass(frozen=True)
class TwoTierCluster:
    """``nodes`` x ``gpus_per_node`` GPUs, NVLink inside, fabric between.

    Attributes:
        name: label for benchmark output.
        gpu: per-device model (uniform).
        intra_link: link between GPUs of one node.
        inter_link: link between GPUs of different nodes.
        nodes: node count.
        gpus_per_node: GPUs per node.
    """

    name: str
    gpu: GpuSpec
    intra_link: LinkSpec
    inter_link: LinkSpec
    nodes: int = knob(gt=0, integral=True)
    gpus_per_node: int = knob(gt=0, integral=True)

    def __post_init__(self) -> None:
        validate(self)
        if self.inter_link.gbps > self.intra_link.gbps:
            raise ValueError(
                "inter-node fabric faster than intra-node link — check presets"
            )

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range")
        return rank // self.gpus_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def uniform_locality(self) -> float:
        """Fraction of a uniform all-to-all's remote traffic staying intra-node."""
        if self.world_size == 1:
            return 1.0
        return (self.gpus_per_node - 1) / (self.world_size - 1)

    def effective_cluster(self, locality: float | None = None) -> ClusterSpec:
        """Flatten to a single-tier cluster for a given traffic locality.

        ``locality`` is the fraction of each rank's *remote* bytes that
        stay inside its node (defaults to the uniform-routing value).
        Bandwidths blend harmonically (time adds per byte across tiers
        sharing one engine); latency and per-message cost blend
        arithmetically (each message takes one tier or the other).
        """
        if locality is None:
            locality = self.uniform_locality()
        if not 0.0 <= locality <= 1.0:
            raise ValueError(f"locality must lie in [0, 1], got {locality}")
        intra, inter = self.intra_link, self.inter_link

        def harmonic(a: float, b: float) -> float:
            return 1.0 / (locality / a + (1.0 - locality) / b)

        def arithmetic(a: float, b: float) -> float:
            return locality * a + (1.0 - locality) * b

        blended = LinkSpec(
            name=f"{intra.name}+{inter.name}",
            gbps=harmonic(intra.gbps, inter.gbps),
            latency_us=arithmetic(intra.latency_us, inter.latency_us),
            per_message_us=arithmetic(intra.per_message_us, inter.per_message_us),
            per_block_gbps=harmonic(intra.per_block_gbps, inter.per_block_gbps),
            a2a_efficiency=arithmetic(intra.a2a_efficiency, inter.a2a_efficiency),
            ring_efficiency=arithmetic(intra.ring_efficiency, inter.ring_efficiency),
        )
        return ClusterSpec(
            name=f"{self.name}(loc={locality:.2f})",
            gpu=self.gpu,
            link=blended,
            world_size=self.world_size,
        )

    def single_node(self) -> ClusterSpec:
        """The intra-node slice (for per-node comparisons)."""
        return ClusterSpec(
            name=f"{self.name}/node",
            gpu=self.gpu,
            link=self.intra_link,
            world_size=self.gpus_per_node,
        )


def h800_pod(nodes: int, gpus_per_node: int = 8) -> TwoTierCluster:
    """H800 nodes joined by 400G InfiniBand — the production-style pod."""
    return TwoTierCluster(
        name=f"{nodes}x{gpus_per_node}xH800",
        gpu=H800,
        intra_link=NVLINK_H800,
        inter_link=IB_400G,
        nodes=nodes,
        gpus_per_node=gpus_per_node,
    )
