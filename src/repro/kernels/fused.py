"""Thread-block-specialised fused kernels (paper §3.2), simulated.

One fused kernel occupies every SM of the GPU with a persistent thread
block: ``np`` blocks run the unmodified CUTLASS-style GEMM pipeline and
``nc`` blocks perform fine-grained communication (and, in layer1, the
top-k reduction).  The simulation is tile-granular:

* **layer0** (dispatch + GroupGEMM): remote tokens stream in through the
  comm blocks in the rescheduled fetch order; a GEMM row-block becomes
  schedulable when its last token has arrived; compute blocks drain ready
  tiles list-schedule style.
* **layer1** (GroupGEMM + top-k reduce + combine): compute blocks emit
  tiles in the rescheduled (column-major) order; once a whole column of
  the shared tensor is complete the comm blocks reduce it and write/send
  the results.

Both directions report the standalone (unoverlapped) communication and
computation durations next to the overlapped makespan so callers can
compute hidden-latency fractions exactly the way the paper's Figure 11
does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.hw.gpu import GpuSpec
from repro.hw.link import LinkSpec
from repro.kernels.gemm import KERNEL_RAMP_US, tile_time_us
from repro.kernels.tiling import DEFAULT_TILE, TileShape, num_tiles_1d
from repro.perf import CONFIG as PERF_CONFIG
from repro.sim.trace import Tracer
from repro.tensor.reschedule import Layer0Schedule, Layer1Schedule

__all__ = [
    "FusedKernelResult",
    "layer0_makespan_analytic",
    "layer0_makespan_reference",
    "simulate_layer0_fused",
    "simulate_layer1_fused",
    "simulate_layer0_vertical",
    "simulate_layer1_vertical",
]


@dataclass(frozen=True)
class FusedKernelResult:
    """Timing of one fused-kernel invocation on one rank.

    Attributes:
        duration_us: makespan of the fused kernel.
        nc: communication thread blocks.
        np_blocks: computation thread blocks.
        comm_standalone_us: what the communication would take by itself
            (all dependencies met) with this ``nc``.
        comp_standalone_us: what the computation would take by itself
            (all data resident) with this ``np``.
        comm_busy_us: time the comm engine spent actively moving/reducing.
        tiles: GEMM tiles processed.
    """

    duration_us: float
    nc: int
    np_blocks: int
    comm_standalone_us: float
    comp_standalone_us: float
    comm_busy_us: float
    tiles: int

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError("duration must be non-negative")

    @property
    def bubble_us(self) -> float:
        """Extra makespan versus pure compute: un-hidden communication."""
        return max(0.0, self.duration_us - self.comp_standalone_us)

    @property
    def hidden_comm_fraction(self) -> float:
        """Fraction of standalone communication hidden under compute."""
        if self.comm_standalone_us <= 0:
            return 1.0
        return max(0.0, 1.0 - self.bubble_us / self.comm_standalone_us)


def _split_blocks(gpu: GpuSpec, nc: int, needs_comm: bool) -> int:
    """Validate the nc/np division and return np."""
    if not 0 <= nc < gpu.num_sms:
        raise ValueError(
            f"nc must lie in [0, {gpu.num_sms - 1}] (at least one compute block), got {nc}"
        )
    if needs_comm and nc == 0:
        raise ValueError("nc must be positive when remote communication exists")
    return gpu.num_sms - nc


# Streaming-memory advantage of a dedicated comm block over the fair
# 1/num_sms HBM share (tensor-core-bound compute blocks underuse HBM).
_COMM_BLOCK_HBM_SHARE = 2.0


def _comm_rate(link: LinkSpec, nc: int, message_bytes: float) -> float:
    """Aggregate comm-block throughput (bytes/µs), link-capped."""
    if nc <= 0:
        return 0.0
    per_block = link.block_message_bytes_per_us(message_bytes)
    return min(link.bytes_per_us, nc * per_block)


def layer0_makespan_reference(
    ready: np.ndarray,
    order: np.ndarray,
    col_tiles: int,
    np_blocks: int,
    per_tile: float,
    schedule: Layer0Schedule | None = None,
    tracer: Tracer | None = None,
    lane: str = "rank",
) -> float:
    """Per-tile heapq list scheduler — the retained reference path.

    ``np_blocks`` identical servers start free at :data:`KERNEL_RAMP_US`;
    row blocks are visited in ``order`` (ready-time sorted) and each of
    their ``col_tiles`` tiles grabs the earliest-free server.  The
    analytic wave scheduler must reproduce this exactly (bit-identical),
    and this path must match :mod:`repro.oracles.layer0_des` to within
    one tile; the oracle table in ``tests/test_oracles.py`` checks both.
    """
    servers = [KERNEL_RAMP_US] * np_blocks
    heapq.heapify(servers)
    makespan = KERNEL_RAMP_US
    for b in order:
        block_ready = ready[b]
        for _ in range(col_tiles):
            free = heapq.heappop(servers)
            start = max(free, block_ready)
            end = start + per_tile
            heapq.heappush(servers, end)
            if end > makespan:
                makespan = end
        if tracer is not None and schedule is not None:
            tracer.record(
                f"rowblock e{int(schedule.rowblock_expert[b])}",
                "comp",
                f"{lane}/comp",
                float(block_ready),
                float(makespan),
                rows=int(schedule.rowblock_rows[b]),
            )
    return makespan


def layer0_makespan_analytic(
    ready_sorted: np.ndarray,
    col_tiles: int,
    np_blocks: int,
    per_tile: float,
) -> float:
    """Vectorised wave scheduler, bit-identical to the heapq reference.

    With identical servers, a uniform tile time, and tiles visited in
    ready order, the heapq pool degenerates to a FIFO: tile ``i`` always
    reuses the server that ran tile ``i - np_blocks`` (finish times are
    non-decreasing, so servers free up in scheduling order).  The whole
    schedule therefore satisfies the chain recurrence::

        finish[i] = max(ready[i], finish[i - np_blocks]) + per_tile

    with ``finish[j] = KERNEL_RAMP_US`` for ``j < 0``.  Evaluating it
    wave by wave (one numpy ``maximum`` + add per wave of ``np_blocks``
    tiles) performs the *same* IEEE operations per element as the heapq
    loop's ``max(free, ready) + per_tile``, which is what makes the two
    paths bit-identical rather than merely close.
    """
    if col_tiles <= 0 or ready_sorted.size == 0:
        return KERNEL_RAMP_US
    tile_ready = np.repeat(ready_sorted, col_tiles)
    finish = np.full(np_blocks, KERNEL_RAMP_US, dtype=np.float64)
    total = tile_ready.size
    for start in range(0, total, np_blocks):
        wave = tile_ready[start : start + np_blocks]
        m = wave.size
        finish[:m] = np.maximum(finish[:m], wave) + per_tile
    return float(finish.max())


def simulate_layer0_fused(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer0Schedule,
    token_bytes: int,
    k: int,
    cols: int,
    nc: int,
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
    tracer: Tracer | None = None,
    lane: str = "rank",
    compute_scale: float = 1.0,
    arrival_fn=None,
) -> FusedKernelResult:
    """Simulate the layer0 fused kernel (dispatch + GroupGEMM) on one rank.

    Args:
        schedule: row-block readiness from
            :func:`repro.tensor.reschedule.build_layer0_schedule`.
        token_bytes: wire size of one token (N * dtype).
        k: GEMM reduction extent (N, the embedding size).
        cols: GEMM output width on this rank (K / tp).
        nc: communication thread blocks; ``gpu.num_sms - nc`` compute.
        arrival_fn: optional override mapping a fetch index to its arrival
            time — used by the fabric-contention mode
            (:mod:`repro.kernels.fabric`) to account for shared source
            egress; the default models this rank's ingress independently.
    """
    needs_comm = schedule.num_remote > 0
    np_blocks = _split_blocks(gpu, nc, needs_comm)
    per_tile = compute_scale * tile_time_us(gpu, k, tile, dtype_bytes)
    col_tiles = num_tiles_1d(cols, tile.tn)
    total_tiles = schedule.num_rowblocks * col_tiles

    # Remote tokens arrive in fetch order at the aggregate comm rate.
    if needs_comm:
        rate = _comm_rate(link, nc, token_bytes)
        arrival_step = 1.0 / (rate / token_bytes)  # µs per token
        if arrival_fn is None:
            comm_standalone = link.latency_us + schedule.num_remote * arrival_step
        else:
            comm_standalone = float(arrival_fn(schedule.num_remote - 1))
    else:
        arrival_step = 0.0
        comm_standalone = 0.0

    if arrival_fn is None:
        last = schedule.rowblock_last_fetch
        ready = np.where(
            last < 0, 0.0, link.latency_us + (last + 1) * arrival_step
        ).astype(np.float64, copy=False)
    else:

        def ready_time(last_fetch: int) -> float:
            if last_fetch < 0:
                return 0.0
            return float(arrival_fn(last_fetch))

        ready = np.array(
            [ready_time(int(f)) for f in schedule.rowblock_last_fetch],
            dtype=np.float64,
        )
    order = np.argsort(ready, kind="stable")

    # List scheduling: np identical servers, uniform tile time, tiles of a
    # row-block all ready at the block's ready time.  The vectorised wave
    # scheduler is the default; the heapq loop is kept as the reference
    # (and carries the tracer, which needs per-block completion times).
    if tracer is None and PERF_CONFIG.analytic_layer0:
        makespan = layer0_makespan_analytic(
            ready[order], col_tiles, np_blocks, per_tile
        )
    else:
        makespan = layer0_makespan_reference(
            ready, order, col_tiles, np_blocks, per_tile,
            schedule=schedule, tracer=tracer, lane=lane,
        )

    comp_standalone = KERNEL_RAMP_US + (-(-total_tiles // np_blocks)) * per_tile
    duration = max(makespan, comm_standalone)
    if tracer is not None and needs_comm:
        tracer.record(
            "token fetch",
            "comm",
            f"{lane}/comm",
            0.0,
            comm_standalone,
            tokens=schedule.num_remote,
        )
    return FusedKernelResult(
        duration_us=float(duration),
        nc=nc,
        np_blocks=np_blocks,
        comm_standalone_us=float(comm_standalone),
        comp_standalone_us=float(comp_standalone),
        comm_busy_us=float(comm_standalone),
        tiles=total_tiles,
    )


@dataclass(frozen=True)
class Layer1CommWork:
    """Per-rank communication workload of the layer1 consumer.

    Attributes:
        reduce_rows: GroupGEMM output rows read by the top-k reducer
            (all routed pairs resident on this rank).
        local_rows: reduced rows written back to local memory (token
            owners on this rank).
        remote_bulk_rows: reduced rows sent to TP-group peers
            (reduce-scatter-shaped: large contiguous messages).
        remote_fine_rows: reduced rows sent across EP groups
            (token-granular scattered messages).
        row_bytes: full-width wire size of one reduced row (N * dtype).
    """

    reduce_rows: int
    local_rows: int
    remote_bulk_rows: int
    remote_fine_rows: int
    row_bytes: int

    def __post_init__(self) -> None:
        for field_name in (
            "reduce_rows",
            "local_rows",
            "remote_bulk_rows",
            "remote_fine_rows",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.row_bytes <= 0:
            raise ValueError("row_bytes must be positive")


def simulate_layer1_fused(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer1Schedule,
    comm: Layer1CommWork,
    k: int,
    cols: int,
    nc: int,
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
    tracer: Tracer | None = None,
    lane: str = "rank",
    compute_scale: float = 1.0,
) -> FusedKernelResult:
    """Simulate the layer1 fused kernel (GroupGEMM + top-k reduce + combine).

    Args:
        schedule: tile iteration order from
            :func:`repro.tensor.reschedule.build_layer1_schedule`.
        comm: the reduce/write/send workload (see :class:`Layer1CommWork`).
        k: GEMM reduction extent (K / tp).
        cols: GEMM output width (N).
        nc: communication thread blocks.
    """
    needs_comm = comm.remote_bulk_rows + comm.remote_fine_rows > 0
    np_blocks = _split_blocks(gpu, nc, needs_comm)
    per_tile = compute_scale * tile_time_us(gpu, k, tile, dtype_bytes)
    total_tiles = schedule.total_tiles
    if total_tiles == 0:
        return FusedKernelResult(0.0, nc, np_blocks, 0.0, 0.0, 0.0, 0)

    ordinals = schedule.column_completion_ordinals()
    col_ready = KERNEL_RAMP_US + np.ceil(ordinals / np_blocks) * per_tile

    # Per-column communication work.  Column width varies only at the tail.
    # A comm block doing pure streaming reads/writes pulls more than the
    # fair 1/num_sms HBM share (compute blocks leave bandwidth on the
    # table while tensor cores run).
    hbm_per_block = _COMM_BLOCK_HBM_SHARE * gpu.hbm_bytes_per_us / gpu.num_sms
    hbm_rate = nc * hbm_per_block if nc else 0.0

    col_widths = np.full(schedule.col_tiles, tile.tn, dtype=np.float64)
    rem = cols - (schedule.col_tiles - 1) * tile.tn
    if rem > 0:
        col_widths[-1] = rem
    frac = col_widths / float(cols)

    col_time = np.zeros(schedule.col_tiles, dtype=np.float64)
    if nc > 0:
        # Read every resident pair row + write reduced rows: HBM traffic.
        reduce_bytes = (comm.reduce_rows + comm.local_rows) * comm.row_bytes * frac
        col_time += reduce_bytes / hbm_rate
        # TP-direction traffic: large contiguous reduce-scatter chunks.
        if comm.remote_bulk_rows:
            chunk = comm.remote_bulk_rows * comm.row_bytes * frac
            bulk_rate = _comm_rate(link, nc, message_bytes=float(np.mean(chunk)))
            col_time += chunk / bulk_rate
        # EP-direction traffic: token-granular column-block messages.
        if comm.remote_fine_rows:
            message = float(tile.tn * dtype_bytes)
            fine_rate = _comm_rate(link, nc, message_bytes=message)
            col_time += comm.remote_fine_rows * comm.row_bytes * frac / fine_rate
    elif comm.reduce_rows or comm.local_rows:
        # No comm blocks: reduction falls back onto the compute epilogue
        # (callers should avoid this; modelled as HBM time on all SMs).
        col_time += (
            (comm.reduce_rows + comm.local_rows)
            * comm.row_bytes
            * frac
            / gpu.hbm_bytes_per_us
        )

    # The comm engine drains columns in production order.
    busy_until = link.latency_us if needs_comm else 0.0
    comm_busy = 0.0
    for j in range(schedule.col_tiles):
        start = max(busy_until, float(col_ready[j]))
        busy_until = start + float(col_time[j])
        comm_busy += float(col_time[j])
        if tracer is not None:
            tracer.record(
                f"reduce+send col{j}",
                "comm",
                f"{lane}/comm",
                start,
                busy_until,
            )

    comp_end = float(col_ready[-1]) if schedule.policy else float(col_ready.max())
    comp_standalone = KERNEL_RAMP_US + (-(-total_tiles // np_blocks)) * per_tile
    comm_standalone = (
        (link.latency_us if needs_comm else 0.0) + float(col_time.sum())
    )
    duration = max(comp_end, busy_until)
    if tracer is not None:
        tracer.record(
            "group-gemm (column-wise)",
            "comp",
            f"{lane}/comp",
            KERNEL_RAMP_US,
            comp_end,
            tiles=total_tiles,
        )
    return FusedKernelResult(
        duration_us=float(duration),
        nc=nc,
        np_blocks=np_blocks,
        comm_standalone_us=float(comm_standalone),
        comp_standalone_us=float(comp_standalone),
        comm_busy_us=float(comm_busy),
        tiles=total_tiles,
    )


# ---------------------------------------------------------------------------
# Vertical-fusion ablation (paper §3.2.1's rejected design)
# ---------------------------------------------------------------------------


# Fraction by which inline remote I/O degrades the tensor-core pipeline:
# long-latency UVA loads sit inside the asynchronous TMA/MMA pipeline and
# stall it (paper §2.2.1's Hopper observation).
_VERTICAL_STALL = 1.15


def simulate_layer0_vertical(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer0Schedule,
    token_bytes: int,
    k: int,
    cols: int,
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
    compute_scale: float = 1.0,
) -> FusedKernelResult:
    """Layer0 with communication folded into the GEMM prologue.

    Every thread block fetches its own tile's remote tokens before
    computing.  Two structural penalties follow (the paper's argument for
    thread-block specialisation):

    * the fetches execute *inside* the compute pipeline, so communication
      serialises with computation instead of overlapping — the kernel
      pays compute plus link-capped transfer time back to back;
    * interleaving long-latency remote loads with the TMA/MMA pipeline
      degrades its throughput (modelled as a constant stall factor).
    """
    n_blocks = gpu.num_sms
    per_tile = compute_scale * tile_time_us(gpu, k, tile, dtype_bytes)
    col_tiles = num_tiles_1d(cols, tile.tn)
    total_tiles = schedule.num_rowblocks * col_tiles

    comm_time = 0.0
    if schedule.num_remote:
        rate = _comm_rate(link, n_blocks, token_bytes)
        comm_time = link.latency_us + schedule.num_remote * token_bytes / rate

    waves = -(-total_tiles // n_blocks)
    comp_standalone = KERNEL_RAMP_US + waves * per_tile
    duration = KERNEL_RAMP_US + waves * per_tile * _VERTICAL_STALL + comm_time
    return FusedKernelResult(
        duration_us=float(duration),
        nc=0,
        np_blocks=n_blocks,
        comm_standalone_us=float(comm_time),
        comp_standalone_us=float(comp_standalone),
        comm_busy_us=float(comm_time),
        tiles=total_tiles,
    )


def simulate_layer1_vertical(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer1Schedule,
    comm: Layer1CommWork,
    k: int,
    cols: int,
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
    compute_scale: float = 1.0,
) -> FusedKernelResult:
    """Layer1 with reduce+send folded into the GEMM epilogue.

    Same structure as :func:`simulate_layer0_vertical`: the top-k reduce
    and remote writes execute inline after each tile, serialising with the
    GEMM and stalling its pipeline.
    """
    n_blocks = gpu.num_sms
    per_tile = compute_scale * tile_time_us(gpu, k, tile, dtype_bytes)
    total_tiles = schedule.total_tiles
    if total_tiles == 0:
        return FusedKernelResult(0.0, 0, n_blocks, 0.0, 0.0, 0.0, 0)

    reduce_bytes = (comm.reduce_rows + comm.local_rows) * comm.row_bytes
    reduce_time = reduce_bytes / gpu.hbm_bytes_per_us
    comm_time = reduce_time
    remote_rows = comm.remote_bulk_rows + comm.remote_fine_rows
    if remote_rows:
        message = float(tile.tn * dtype_bytes)
        rate = _comm_rate(link, n_blocks, message)
        comm_time += link.latency_us + remote_rows * comm.row_bytes / rate

    waves = -(-total_tiles // n_blocks)
    comp_standalone = KERNEL_RAMP_US + waves * per_tile
    duration = KERNEL_RAMP_US + waves * per_tile * _VERTICAL_STALL + comm_time
    return FusedKernelResult(
        duration_us=float(duration),
        nc=0,
        np_blocks=n_blocks,
        comm_standalone_us=float(comm_time),
        comp_standalone_us=float(comp_standalone),
        comm_busy_us=float(comm_time),
        tiles=total_tiles,
    )
