"""Discrete-event reference implementation of the layer0 fused kernel.

:func:`repro.kernels.fused.layer0_makespan_reference` computes the fused
kernel's makespan with a heap-based list scheduler.  This module
re-derives the same quantity with explicit simulation processes on the
:mod:`repro.sim` engine — one producer process streaming remote tokens,
``np`` compute-block processes pulling ready tiles from a
:class:`Store`, a FIFO channel between them.  The two
implementations are developed independently and the test suite asserts
they agree, which guards the scheduler against silent modelling drift
(the gold-standard-vs-optimised pattern of the project's coding guide).
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from repro.hw.gpu import GpuSpec
from repro.hw.link import LinkSpec
from repro.kernels.gemm import KERNEL_RAMP_US, tile_time_us
from repro.kernels.tiling import DEFAULT_TILE, TileShape, num_tiles_1d
from repro.sim import Environment, Event, SimulationError
from repro.tensor.reschedule import Layer0Schedule

__all__ = ["Store", "des_layer0_makespan"]


class Store:
    """FIFO channel of Python objects with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; fires once accepted (immediately if not full)."""
        event = Event(self.env)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Take the oldest item; fires with the item once one is available."""
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            self._serve_putters()
        else:
            self._getters.append(event)
        return event

    def _serve_getters(self) -> None:
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())

    def _serve_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            event, item = self._putters.popleft()
            self.items.append(item)
            event.succeed()
            self._serve_getters()


def des_layer0_makespan(
    gpu: GpuSpec,
    link: LinkSpec,
    schedule: Layer0Schedule,
    token_bytes: int,
    k: int,
    cols: int,
    nc: int,
    tile: TileShape = DEFAULT_TILE,
    dtype_bytes: int = 2,
) -> float:
    """Makespan of the layer0 fused kernel, by explicit simulation."""
    np_blocks = gpu.num_sms - nc
    if np_blocks <= 0:
        raise ValueError("at least one compute block is required")
    if schedule.num_remote > 0 and nc <= 0:
        raise ValueError("nc must be positive when remote communication exists")

    per_tile = tile_time_us(gpu, k, tile, dtype_bytes)
    col_tiles = num_tiles_1d(cols, tile.tn)

    # Token arrival times, identical to the analytic model: the comm
    # engine streams tokens in fetch order at its aggregate rate.
    if schedule.num_remote:
        per_block = link.block_message_bytes_per_us(token_bytes)
        rate = min(link.bytes_per_us, nc * per_block) / token_bytes
        arrival_step = 1.0 / rate
    else:
        arrival_step = 0.0

    def block_ready(last_fetch: int) -> float:
        if last_fetch < 0:
            return 0.0
        return link.latency_us + (last_fetch + 1) * arrival_step

    env = Environment()
    ready_tiles: Store = Store(env)
    finish_times: list[float] = []

    order = np.argsort(schedule.rowblock_last_fetch, kind="stable")

    def producer():
        """Release each row-block's tiles once its tokens have arrived."""
        for b in order:
            ready_at = block_ready(int(schedule.rowblock_last_fetch[b]))
            if ready_at > env.now:
                yield env.timeout(ready_at - env.now)
            for _ in range(col_tiles):
                yield ready_tiles.put(b)

    total_tiles = schedule.num_rowblocks * col_tiles

    def compute_block():
        """One persistent compute thread block draining ready tiles."""
        yield env.timeout(KERNEL_RAMP_US)
        while True:
            if not consumed[0] < total_tiles:
                return
            consumed[0] += 1
            yield ready_tiles.get()
            yield env.timeout(per_tile)
            finish_times.append(env.now)

    consumed = [0]
    env.process(producer())
    for _ in range(np_blocks):
        env.process(compute_block())
    env.run()

    compute_end = max(finish_times) if finish_times else KERNEL_RAMP_US
    comm_end = (
        link.latency_us + schedule.num_remote * arrival_step
        if schedule.num_remote
        else 0.0
    )
    return max(compute_end, comm_end)
