"""Interconnect link model.

A :class:`LinkSpec` describes GPU-to-GPU transport with a linear
latency/bandwidth (alpha-beta) cost model plus the two knobs specific to
*fine-grained*, kernel-initiated communication:

* ``per_message_us`` — fixed cost per message (doorbell/descriptor), which
  is what makes token-granular transfers expensive unless amortised;
* ``per_block_gbps`` — copy throughput one communication *thread block*
  can sustain; COMET's adaptive assignment exists precisely because
  ``ceil(link_gbps / per_block_gbps)`` blocks are needed to saturate a
  link, and that number moves with topology and message size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import knob, validate

__all__ = ["LinkSpec"]


@dataclass(frozen=True)
class LinkSpec:
    """Point-to-point transport characteristics between two GPUs.

    Attributes:
        name: e.g. ``"NVLink"`` or ``"PCIe"``.
        gbps: sustained unidirectional bandwidth per GPU achievable by
            well-pipelined GPU-initiated transfers (the ceiling COMET's
            fine-grained communication can reach).
        latency_us: base one-way latency per message.
        per_message_us: fixed per-message initiation cost on top of latency.
        per_block_gbps: bandwidth one communication thread block sustains
            when issuing large (well-amortised) remote reads/writes.
        a2a_efficiency: fraction of ``gbps`` a kernel-level NCCL-style
            all-to-all sustains.  All-to-all is the pathological NCCL
            pattern (many small peer messages, no ring pipelining) — on
            H800's clipped NVLink this inefficiency is the headline
            motivation for COMET/Flux.
        ring_efficiency: fraction of ``gbps`` ring all-gather /
            reduce-scatter collectives sustain (large contiguous chunks,
            near peak).
    """

    name: str
    gbps: float = knob(gt=0)
    latency_us: float = knob(1.5, ge=0)
    per_message_us: float = knob(0.05, ge=0)
    per_block_gbps: float = knob(8.0, gt=0)
    a2a_efficiency: float = knob(0.45, gt=0, le=1)
    ring_efficiency: float = knob(0.85, gt=0, le=1)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def bytes_per_us(self) -> float:
        """Link bandwidth in bytes per microsecond."""
        return self.gbps * 1e9 / 1e6

    @property
    def a2a_bytes_per_us(self) -> float:
        """Effective all-to-all collective bandwidth (bytes/µs)."""
        return self.bytes_per_us * self.a2a_efficiency

    @property
    def ring_bytes_per_us(self) -> float:
        """Effective ring-collective bandwidth (bytes/µs)."""
        return self.bytes_per_us * self.ring_efficiency

    @property
    def block_bytes_per_us(self) -> float:
        """Per-thread-block copy throughput in bytes per microsecond."""
        return self.per_block_gbps * 1e9 / 1e6

    def block_message_bytes_per_us(self, message_bytes: float) -> float:
        """Per-block throughput when issuing ``message_bytes``-sized messages.

        Small messages are initiation-bound: each pays ``per_message_us``
        before streaming at the block copy rate.  This is the mechanism
        that makes token- or column-granular traffic need more
        communication blocks than bulk traffic (paper Figure 8's shift of
        the optimal division point with parallelism).
        """
        if message_bytes <= 0:
            raise ValueError(f"message_bytes must be positive, got {message_bytes}")
        per_message_time = self.per_message_us + message_bytes / self.block_bytes_per_us
        return message_bytes / per_message_time

    def transfer_us(self, nbytes: float, messages: int = 1) -> float:
        """Alpha-beta time to move ``nbytes`` split into ``messages`` sends."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if messages < 1:
            raise ValueError(f"messages must be >= 1, got {messages}")
        return self.latency_us + messages * self.per_message_us + nbytes / self.bytes_per_us

    def effective_bandwidth(self, num_blocks: int) -> float:
        """Bytes/µs achieved by ``num_blocks`` comm thread blocks.

        Aggregate per-block throughput, capped by the link itself.  This is
        the saturation curve the adaptive workload assignment (paper §3.2.2)
        walks along when choosing ``nc``.
        """
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be non-negative, got {num_blocks}")
        if num_blocks == 0:
            return 0.0
        return min(self.bytes_per_us, num_blocks * self.block_bytes_per_us)

    def blocks_to_saturate(self) -> int:
        """Minimum comm thread blocks needed to reach full link bandwidth."""
        full, rem = divmod(self.gbps, self.per_block_gbps)
        return int(full) + (1 if rem > 1e-12 else 0)
