"""Token-by-token reference for the sorted layer0 row-block schedule.

:func:`repro.tensor.reschedule.build_layer0_schedule` derives each row
block's last fetch index in closed form under the ``sorted_by_source``
policy.  This module re-derives the schedule from its definition instead:
it walks the remote-fetch sequence one token at a time, lays out each
expert's rows (local tokens first, then the remote tokens in arrival
order), cuts them into blocks of ``tile_tm`` rows and takes each block's
largest fetch index.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.reschedule import POLICY_SORTED, Layer0Schedule

__all__ = ["sorted_layer0_schedule"]


def sorted_layer0_schedule(
    pairs_by_src_expert: np.ndarray, rank: int, tile_tm: int = 128
) -> Layer0Schedule:
    """The ``sorted_by_source`` schedule of ``rank``, one token at a time."""
    pairs = np.asarray(pairs_by_src_expert, dtype=np.int64)
    world, num_experts = pairs.shape

    # The fetch sequence: remote sources in ring order after ``rank``,
    # each source's tokens expert by expert.  Record every token's fetch
    # index under the expert it is routed to.
    fetched: list[list[int]] = [[] for _ in range(num_experts)]
    fetch_index = 0
    for distance in range(1, world):
        source = (rank + distance) % world
        for expert in range(num_experts):
            for _ in range(int(pairs[source, expert])):
                fetched[expert].append(fetch_index)
                fetch_index += 1

    experts: list[int] = []
    rows: list[int] = []
    last_fetch: list[int] = []
    for expert in range(num_experts):
        # Resident tokens need no fetch (-1); remote ones follow in the
        # order they arrive.
        positions = [-1] * int(pairs[rank, expert]) + fetched[expert]
        for start in range(0, len(positions), tile_tm):
            block = positions[start : start + tile_tm]
            experts.append(expert)
            rows.append(len(block))
            last_fetch.append(max(block))

    return Layer0Schedule(
        rowblock_expert=np.array(experts, dtype=np.int64),
        rowblock_rows=np.array(rows, dtype=np.int64),
        rowblock_last_fetch=np.array(last_fetch, dtype=np.int64),
        num_remote=fetch_index,
        num_local=int(pairs[rank].sum()),
        tile_tm=tile_tm,
        policy=POLICY_SORTED,
    )
