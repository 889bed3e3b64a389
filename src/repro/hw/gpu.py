"""GPU device model.

Exposes the handful of rates that determine simulated kernel time:
streaming-multiprocessor (SM) count, per-SM tensor-core throughput, HBM
bandwidth, and the host-side launch overhead per kernel.  Times everywhere
in this repository are microseconds; sizes are bytes; rates are per-second.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.domains import knob, validate

__all__ = ["GpuSpec"]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU.

    Attributes:
        name: marketing name, e.g. ``"H800"``.
        num_sms: number of streaming multiprocessors.  In COMET's fused
            kernels each SM hosts exactly one persistent thread block, so
            this is also the total thread-block budget ``n = np + nc``.
        tensor_tflops: dense tensor-core peak throughput in TFLOPS for the
            matmul dtype (BF16 in the paper).
        mma_efficiency: fraction of peak a well-tuned CUTLASS GEMM
            sustains on large shapes (captures instruction mix, epilogues).
        hbm_gbps: device-memory bandwidth in GB/s, used by the
            memory-bound branch of the tile cost model.
        kernel_launch_us: host-side cost of launching one kernel
            (driver + enqueue), charged per kernel by the scheduling models.
        smem_per_block_kb: shared memory per thread block; bounds the
            tile footprint (sanity checks only).
    """

    name: str
    num_sms: int = knob(gt=0, integral=True)
    tensor_tflops: float = knob(gt=0)
    mma_efficiency: float = knob(0.80, gt=0, le=1)
    hbm_gbps: float = knob(3000.0, gt=0)
    kernel_launch_us: float = knob(6.0, ge=0)
    smem_per_block_kb: int = knob(228, gt=0, integral=True)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def flops_per_us(self) -> float:
        """Effective whole-device matmul throughput in FLOPs per microsecond."""
        return self.tensor_tflops * 1e12 * self.mma_efficiency / 1e6

    @property
    def flops_per_sm_us(self) -> float:
        """Effective per-SM matmul throughput in FLOPs per microsecond."""
        return self.flops_per_us / self.num_sms

    @property
    def hbm_bytes_per_us(self) -> float:
        """Device-memory bandwidth in bytes per microsecond."""
        return self.hbm_gbps * 1e9 / 1e6

    def gemm_flop_time_us(self, flops: float, num_sms: int | None = None) -> float:
        """Compute-bound time for ``flops`` FLOPs on ``num_sms`` SMs."""
        sms = self.num_sms if num_sms is None else num_sms
        if sms <= 0:
            raise ValueError(f"num_sms must be positive, got {sms}")
        return flops / (self.flops_per_sm_us * sms)
