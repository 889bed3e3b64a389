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
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hw.gpu import GpuSpec
from repro.hw.link import LinkSpec
from repro.kernels.gemm import KERNEL_RAMP_US, tile_time_us
from repro.kernels.tiling import DEFAULT_TILE, TileShape, num_tiles_1d
from repro.tensor.reschedule import Layer0Schedule, Layer1Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only; traced runs pass one in
    from repro.sim.trace import Tracer

__all__ = [
    "FusedKernelResult",
    "layer0_makespan_analytic",
    "layer0_makespan_reference",
    "simulate_layer0_fused",
    "simulate_layer1_fused",
    "simulate_layer1_fused_variants",
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


def _division_error(gpu: GpuSpec, nc: int, needs_comm: bool) -> str | None:
    """Why the fused kernel cannot launch with ``nc`` comm blocks, if it cannot."""
    if not 0 <= nc < gpu.num_sms:
        return f"nc must lie in [0, {gpu.num_sms - 1}] (at least one compute block), got {nc}"
    if needs_comm and nc == 0:
        return "nc must be positive when remote communication exists"
    return None


def _split_blocks(gpu: GpuSpec, nc: int, needs_comm: bool) -> int:
    """Validate the nc/np division and return np."""
    error = _division_error(gpu, nc, needs_comm)
    if error is not None:
        raise ValueError(error)
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
    """Per-tile heapq list scheduler — the path traced runs take, since
    it records each row block's completion.

    ``np_blocks`` identical servers start free at :data:`KERNEL_RAMP_US`;
    row blocks are visited in ``order`` (ready-time sorted) and each of
    their ``col_tiles`` tiles grabs the earliest-free server.  The
    analytic scan must reproduce this exactly (bit-identical),
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
    """Scan of the server that finishes last, bit-identical to the heapq reference.

    With identical servers, a uniform tile time, and tiles visited in
    ready order, the heapq pool degenerates to a FIFO: tile ``i`` always
    reuses the server that ran tile ``i - np_blocks`` (finish times are
    non-decreasing, so servers free up in scheduling order).  The whole
    schedule therefore satisfies the chain recurrence::

        finish[i] = max(ready[i], finish[i - np_blocks]) + per_tile

    with ``finish[j] = KERNEL_RAMP_US`` for ``j < 0``: the same IEEE
    operations per tile as the heapq loop's ``max(free, ready) +
    per_tile``, which is what makes the two paths bit-identical rather
    than merely close.

    ``finish`` is non-decreasing in ``i``, bit for bit: by induction on
    ``i``, because ``ready`` is sorted, ``max`` is exact and IEEE
    ``x + per_tile`` is monotone in ``x``.  So no server finishes after
    the one that runs the last tile, and the makespan is the end of that
    server's chain, tiles ``(tiles - 1) % np_blocks``, ``+ np_blocks``,
    ..., ``tiles - 1``.  Scanning that one chain with scalar floats takes
    ``ceil(tiles / np_blocks)`` steps instead of work on every tile.  In
    particular the last server, ``np_blocks - 1``, which can lead after
    every full wave, never outlasts it.

    Preconditions: ``ready_sorted`` is sorted ascending and finite, and
    ``per_tile > 0``.
    """
    if col_tiles <= 0 or ready_sorted.size == 0:
        return KERNEL_RAMP_US
    ready = ready_sorted.tolist()
    total = len(ready) * col_tiles
    finish = KERNEL_RAMP_US
    for tile in range((total - 1) % np_blocks, total, np_blocks):
        block_ready = ready[tile // col_tiles]
        finish = (block_ready if block_ready > finish else finish) + per_tile
    return float(finish)


def simulate_layer0_fused(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer0Schedule | Sequence[Layer0Schedule],
    token_bytes: int,
    k: int,
    cols: int,
    nc: int | Iterable[int],
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
    tracer: Tracer | None = None,
    lane: str = "rank",
    compute_scale: float = 1.0,
    arrival_fn=None,
) -> FusedKernelResult | dict[int, FusedKernelResult] | list[FusedKernelResult]:
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

    Returns one :class:`FusedKernelResult`, for one schedule and one
    ``nc``.  Two batched forms price many kernels in one call:

    * one schedule and an iterable of ``nc`` — the division-point
      sweep — returns ``{nc: result}`` for each ``nc`` the kernel can
      launch with, like :func:`simulate_layer1_fused_variants`;
    * a sequence of schedules (a row axis: one rank per row) returns one
      result per row.  ``nc`` and ``arrival_fn`` are then either one
      value for every row or a sequence with one per row, and a row the
      kernel cannot launch raises ``ValueError``.

    Every row goes through the IEEE operations, in the order, of a kernel
    priced alone; ``tracer`` records every priced kernel.
    """
    if isinstance(schedule, Layer0Schedule):
        if isinstance(nc, numbers.Integral):
            return _layer0_rows(
                gpu, link, [(schedule, nc, arrival_fn)], token_bytes, k, cols,
                tile, dtype_bytes, compute_scale, tracer, lane,
            )[0]
        needs_comm = schedule.num_remote > 0
        ncs = [n for n in dict.fromkeys(nc) if _division_error(gpu, n, needs_comm) is None]
        results = _layer0_rows(
            gpu, link, [(schedule, n, arrival_fn) for n in ncs], token_bytes, k,
            cols, tile, dtype_bytes, compute_scale, tracer, lane,
        )
        return dict(zip(ncs, results))
    schedules = list(schedule)
    ncs = [nc] * len(schedules) if isinstance(nc, numbers.Integral) else list(nc)
    fns = [arrival_fn] * len(schedules) if arrival_fn is None or callable(arrival_fn) else list(arrival_fn)
    if not len(ncs) == len(fns) == len(schedules):
        raise ValueError("nc and arrival_fn need one value per schedule")
    return _layer0_rows(
        gpu, link, list(zip(schedules, ncs, fns)), token_bytes, k, cols, tile,
        dtype_bytes, compute_scale, tracer, lane,
    )


def _layer0_rows(
    gpu, link, rows, token_bytes, k, cols, tile, dtype_bytes, compute_scale, tracer, lane
) -> list[FusedKernelResult]:
    """One layer0 fused kernel per ``(schedule, nc, arrival_fn)`` row.

    The scalars of each row are computed as for one kernel; the ready
    times of every row's blocks are one array, sorted row by row with
    one ``lexsort``, and each row's makespan scans its own slice.
    """
    if not rows:
        return []
    per_tile = compute_scale * tile_time_us(gpu, k, tile, dtype_bytes)
    col_tiles = num_tiles_1d(cols, tile.tn)
    np_blocks, steps, comm_standalone = [], [], []
    for schedule, nc, arrival_fn in rows:
        needs_comm = schedule.num_remote > 0
        np_blocks.append(_split_blocks(gpu, nc, needs_comm))
        # Remote tokens arrive in fetch order at the aggregate comm rate.
        if needs_comm:
            rate = _comm_rate(link, nc, token_bytes)
            arrival_step = 1.0 / (rate / token_bytes)  # µs per token
            if arrival_fn is None:
                comm = link.latency_us + schedule.num_remote * arrival_step
            else:
                comm = float(arrival_fn(schedule.num_remote - 1))
        else:
            arrival_step = 0.0
            comm = 0.0
        steps.append(arrival_step)
        comm_standalone.append(comm)

    blocks = [schedule.num_rowblocks for schedule, _, _ in rows]
    bounds = np.cumsum([0] + blocks).tolist()
    last = np.concatenate([schedule.rowblock_last_fetch for schedule, _, _ in rows])
    ready = np.where(
        last < 0, 0.0, link.latency_us + (last + 1) * np.repeat(steps, blocks)
    ).astype(np.float64, copy=False)
    for (schedule, _, arrival_fn), start in zip(rows, bounds):
        if arrival_fn is not None:
            ready[start : start + schedule.num_rowblocks] = [
                0.0 if fetch < 0 else float(arrival_fn(fetch))
                for fetch in schedule.rowblock_last_fetch.tolist()
            ]

    # List scheduling: np identical servers, uniform tile time, tiles of a
    # row-block all ready at the block's ready time.  The analytic scan
    # prices untraced runs; a tracer needs per-block completion times,
    # which only the heapq loop has.
    analytic = tracer is None
    if analytic:
        ready_sorted = ready[np.lexsort((ready, np.repeat(np.arange(len(rows)), blocks)))]
    results = []
    for i, (schedule, nc, _) in enumerate(rows):
        start, end = bounds[i], bounds[i + 1]
        if analytic:
            makespan = layer0_makespan_analytic(
                ready_sorted[start:end], col_tiles, np_blocks[i], per_tile
            )
        else:
            row_ready = ready[start:end]
            makespan = layer0_makespan_reference(
                row_ready, np.argsort(row_ready, kind="stable"), col_tiles,
                np_blocks[i], per_tile, schedule=schedule, tracer=tracer, lane=lane,
            )
        total_tiles = schedule.num_rowblocks * col_tiles
        comp_standalone = KERNEL_RAMP_US + (-(-total_tiles // np_blocks[i])) * per_tile
        duration = max(makespan, comm_standalone[i])
        if tracer is not None and schedule.num_remote > 0:
            tracer.record(
                "token fetch",
                "comm",
                f"{lane}/comm",
                0.0,
                comm_standalone[i],
                tokens=schedule.num_remote,
            )
        results.append(
            FusedKernelResult(
                duration_us=float(duration),
                nc=nc,
                np_blocks=np_blocks[i],
                comm_standalone_us=float(comm_standalone[i]),
                comp_standalone_us=float(comp_standalone),
                comm_busy_us=float(comm_standalone[i]),
                tiles=total_tiles,
            )
        )
    return results


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

    The one-row case of :func:`simulate_layer1_fused_variants`: an ``nc``
    the kernel cannot launch with raises ``ValueError``.

    Args:
        schedule: tile iteration order from
            :func:`repro.tensor.reschedule.build_layer1_schedule`.
        comm: the reduce/write/send workload (see :class:`Layer1CommWork`).
        k: GEMM reduction extent (K / tp).
        cols: GEMM output width (N).
        nc: communication thread blocks.
    """
    return simulate_layer1_fused_variants(
        gpu, link, [schedule], [comm], k, cols, [nc], tile=tile,
        dtype_bytes=dtype_bytes, compute_scale=compute_scale,
        tracer=tracer, lane=lane,
    )[0]


def simulate_layer1_fused_variants(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer1Schedule | Sequence[Layer1Schedule],
    comm: Layer1CommWork | Sequence[Layer1CommWork],
    k: int,
    cols: int,
    ncs: Iterable[int],
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
    compute_scale: float = 1.0,
    tracer: Tracer | None = None,
    lane: str = "rank",
) -> dict[int, FusedKernelResult] | list[FusedKernelResult]:
    """The layer1 fused kernel at every division point of ``ncs`` at once.

    Returns ``{nc: result}`` for each ``nc`` the kernel can launch with;
    the others are left out, like a variant that fails to launch.  With a
    sequence of schedules and one of comms (a row axis: one rank per row),
    ``ncs`` holds each row's division point instead, and the result is
    one kernel per row; a row the kernel cannot launch raises
    ``ValueError``.

    The per-column ready and work times of all rows are computed as one
    ``(rows, col_tiles)`` array; then each row drains its columns in
    production order.  Every element goes through the same IEEE
    operations, in the same order, as a kernel priced alone.  ``tracer``
    records every priced kernel: pass one ``nc`` to trace one.
    """
    if isinstance(schedule, Layer1Schedule):
        needs_comm = comm.remote_bulk_rows + comm.remote_fine_rows > 0
        ncs = [nc for nc in ncs if _division_error(gpu, nc, needs_comm) is None]
        results = _layer1_rows(
            gpu, link, [schedule], [comm], ncs, k, cols, tile, dtype_bytes,
            compute_scale, tracer, lane,
        )
        return dict(zip(ncs, results))
    schedules, comms, ncs = list(schedule), list(comm), list(ncs)
    if not len(schedules) == len(comms) == len(ncs):
        raise ValueError("one comm and one nc per schedule")
    for row_comm, nc in zip(comms, ncs):
        _split_blocks(gpu, nc, row_comm.remote_bulk_rows + row_comm.remote_fine_rows > 0)
    return _layer1_rows(
        gpu, link, schedules, comms, ncs, k, cols, tile, dtype_bytes,
        compute_scale, tracer, lane,
    )


def _layer1_rows(
    gpu, link, schedules, comms, ncs, k, cols, tile, dtype_bytes, compute_scale,
    tracer, lane,
) -> list[FusedKernelResult]:
    """One layer1 fused kernel per launchable ``nc``: row ``i`` prices
    ``schedules[i]`` and ``comms[i]``, or the only schedule and comm
    when one is given for every row."""
    if not ncs:
        return []
    rows = len(ncs)
    per_tile = compute_scale * tile_time_us(gpu, k, tile, dtype_bytes)
    col_tiles = schedules[0].col_tiles

    def per_row(values) -> np.ndarray:
        return np.array(values)[:, None]

    def priced(values: list, i: int):
        return values[i if len(values) > 1 else 0]

    # Column j is complete once its last tile in the stream is; column
    # ordinals strictly increase, so the last column ends the GEMM.
    ordinals = np.array([schedule.column_completion_ordinals() for schedule in schedules])
    compute_blocks = per_row([gpu.num_sms - nc for nc in ncs]).astype(np.int64)
    col_ready = KERNEL_RAMP_US + np.ceil(ordinals / compute_blocks) * per_tile

    # Per-column communication work.  Column width varies only at the tail.
    col_widths = np.full(col_tiles, tile.tn, dtype=np.float64)
    rem = cols - (col_tiles - 1) * tile.tn
    if rem > 0:
        col_widths[-1] = rem
    frac = col_widths / float(cols)

    # A comm block doing pure streaming reads/writes pulls more than the
    # fair 1/num_sms HBM share (compute blocks leave bandwidth on the
    # table while tensor cores run).  With no comm blocks (no remote
    # traffic) the reduction falls back onto the compute epilogue
    # (callers should avoid this; modelled as HBM time on all SMs).
    hbm_per_block = _COMM_BLOCK_HBM_SHARE * gpu.hbm_bytes_per_us / gpu.num_sms
    hbm_rate = per_row(
        [nc * hbm_per_block if nc else gpu.hbm_bytes_per_us for nc in ncs]
    ).astype(np.float64)
    col_time = np.zeros((rows, col_tiles), dtype=np.float64)
    # Read every resident pair row + write reduced rows: HBM traffic.
    col_time += (
        per_row([(c.reduce_rows + c.local_rows) * c.row_bytes for c in comms]) * frac
        / hbm_rate
    )
    # TP-direction traffic: large contiguous reduce-scatter chunks.
    for i, c in enumerate(comms):
        if c.remote_bulk_rows:
            chunk = c.remote_bulk_rows * c.row_bytes * frac
            message = float(np.mean(chunk))
            priced_rows = [i] if len(comms) > 1 else list(range(rows))
            col_time[priced_rows] += chunk / per_row(
                [_comm_rate(link, ncs[r], message) for r in priced_rows]
            )
    # EP-direction traffic: token-granular column-block messages.
    fine = [r for r in range(rows) if priced(comms, r).remote_fine_rows]
    if fine:
        message = float(tile.tn * dtype_bytes)
        col_time[fine] += (
            per_row([priced(comms, r).remote_fine_rows * priced(comms, r).row_bytes for r in fine])
            * frac
            / per_row([_comm_rate(link, ncs[r], message) for r in fine])
        )

    tiles = [schedule.total_tiles for schedule in schedules]
    results = []
    for i, (nc, ready, work, row) in enumerate(
        zip(ncs, col_ready.tolist(), col_time.tolist(), col_time)
    ):
        total_tiles = priced(tiles, i)
        np_blocks = gpu.num_sms - nc
        if total_tiles == 0:
            results.append(FusedKernelResult(0.0, nc, np_blocks, 0.0, 0.0, 0.0, 0))
            continue
        c = priced(comms, i)
        latency = link.latency_us if c.remote_bulk_rows + c.remote_fine_rows > 0 else 0.0
        # The comm engine drains columns in production order.
        busy_until = latency
        comm_busy = 0.0
        for j, (column_ready, column_work) in enumerate(zip(ready, work)):
            start = column_ready if column_ready > busy_until else busy_until
            busy_until = start + column_work
            comm_busy += column_work
            if tracer is not None:
                tracer.record(
                    f"reduce+send col{j}", "comm", f"{lane}/comm", start, busy_until
                )
        comp_end = ready[-1]
        if tracer is not None:
            tracer.record(
                "group-gemm (column-wise)",
                "comp",
                f"{lane}/comp",
                KERNEL_RAMP_US,
                comp_end,
                tiles=total_tiles,
            )
        results.append(
            FusedKernelResult(
                duration_us=max(comp_end, busy_until),
                nc=nc,
                np_blocks=np_blocks,
                comm_standalone_us=latency + float(row.sum()),
                comp_standalone_us=KERNEL_RAMP_US + (-(-total_tiles // np_blocks)) * per_tile,
                comm_busy_us=comm_busy,
                tiles=total_tiles,
            )
        )
    return results


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
