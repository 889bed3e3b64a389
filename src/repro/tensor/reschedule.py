"""Rescheduling of decomposed shared tensors (paper §3.1.2).

Two products live here:

1. **Schedule objects** consumed by the fused-kernel timing simulator:
   :class:`Layer0Schedule` captures, per GEMM row-block, the position in
   the remote-fetch sequence of the last token that block depends on
   (sort-by-source-rank makes these positions early or absent);
   :class:`Layer1Schedule` captures the tile iteration order of the
   layer1 GroupGEMM (column-major lets the top-k reducer start after the
   first ``TN`` columns).

2. **Numeric executors** that run the real math in the rescheduled order.
   Rescheduling must be a pure reordering — these functions exist so the
   test suite can assert bit-level (up to float addition order)
   equivalence with :func:`repro.moe.reference.reference_moe_forward`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.moe.experts import ExpertWeights, silu
from repro.moe.routing import RoutingPlan

__all__ = [
    "Layer0Schedule",
    "Layer1Schedule",
    "build_layer0_schedule",
    "build_layer1_schedule",
    "layer0_rescheduled_forward",
    "layer1_columnwise_forward",
]

POLICY_SORTED = "sorted_by_source"
POLICY_TOKEN_ORDER = "token_order"  # ablation: no rescheduling
POLICY_COLUMN_MAJOR = "column_major"
POLICY_EXPERT_MAJOR = "expert_major"  # ablation: no rescheduling


# ---------------------------------------------------------------------------
# Timing-side schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Layer0Schedule:
    """Row-block readiness structure of the rescheduled layer0 tensor.

    Attributes:
        rowblock_expert: ``(B,)`` local-expert index owning each row block.
        rowblock_rows: ``(B,)`` rows actually present in each block
            (the last block of an expert may be partial).
        rowblock_last_fetch: ``(B,)`` index into the remote-token fetch
            sequence of the latest-arriving token the block needs;
            ``-1`` marks blocks made entirely of local tokens.
        num_remote: total remote tokens to fetch.
        num_local: tokens already resident before the kernel starts.
        tile_tm: row-tile extent used to form the blocks.
        policy: which rescheduling policy produced this schedule.
    """

    rowblock_expert: np.ndarray
    rowblock_rows: np.ndarray
    rowblock_last_fetch: np.ndarray
    num_remote: int
    num_local: int
    tile_tm: int
    policy: str

    @property
    def num_rowblocks(self) -> int:
        return len(self.rowblock_expert)

    @property
    def total_rows(self) -> int:
        return int(self.rowblock_rows.sum())


def build_layer0_schedule(
    pairs_by_src_expert: np.ndarray,
    rank: int | Sequence[int],
    tile_tm: int = 128,
    policy: str = POLICY_SORTED,
    rng: np.random.Generator | None = None,
) -> Layer0Schedule | tuple[Layer0Schedule, ...]:
    """Build the layer0 row-block schedule for one rank, or for a row of ranks.

    Args:
        pairs_by_src_expert: ``(W, E_local)`` routed pairs from each source
            rank to each local expert (from
            :meth:`repro.parallel.placement.ExpertPlacement.rank_workload`),
            or ``(R, W, E_local)``: one such matrix per row.
        rank: this rank's id (identifies the local row of the matrix), or
            one id per row.
        tile_tm: GEMM row-tile extent.
        policy: ``"sorted_by_source"`` (COMET §3.1.2) or ``"token_order"``
            (the unsorted ablation, where each expert's rows interleave
            source ranks in arrival-agnostic token order).
        rng: used only by the ``token_order`` policy to realise one
            representative interleaving.

    Returns one schedule, or a tuple with one schedule per row.  The
    ``sorted_by_source`` rows are built together, each with the integer
    operations of a row built alone.

    The remote-fetch sequence is source-major in ring order starting after
    ``rank`` (nearest sources first), expert-minor within a source — the
    order COMET's communication blocks pull tokens so that the earliest
    compute tiles unblock soonest.
    """
    pairs = np.asarray(pairs_by_src_expert, dtype=np.int64)
    one = pairs.ndim == 2
    if one:
        pairs, ranks = pairs[None], [rank]
    elif pairs.ndim == 3:
        ranks = list(rank)
    else:
        raise ValueError(f"pairs_by_src_expert must be (W, E_local), got {pairs.shape}")
    rows, world, num_local_experts = pairs.shape
    if len(ranks) != rows:
        raise ValueError(f"{len(ranks)} ranks for {rows} rows of pairs")
    for r in ranks:
        if not 0 <= r < world:
            raise ValueError(f"rank {r} out of range for world {world}")
    if policy not in (POLICY_SORTED, POLICY_TOKEN_ORDER):
        raise ValueError(f"unknown layer0 policy {policy!r}")
    if tile_tm <= 0:
        raise ValueError(f"tile_tm must be positive, got {tile_tm}")

    row_ids = np.arange(rows)
    ranks = np.asarray(ranks, dtype=np.int64)
    # Ring order of remote sources: rank+1, rank+2, ..., rank-1 (mod W).
    remote_srcs = (ranks[:, None] + np.arange(1, world)) % world
    local_rows = pairs[row_ids, ranks]  # (R, E_local)
    num_local = local_rows.sum(axis=1)
    num_remote = pairs.sum(axis=(1, 2)) - num_local

    # fetch_start[r, e] = fetch index of the *first* token of run
    # (remote_srcs[r], e): the fetch sequence is source-major (ring
    # order), expert-minor, so starts are the exclusive prefix sum of
    # the remote count matrix in that order.
    remote_pairs = pairs[row_ids[:, None], remote_srcs]  # (R, W - 1, E_local)
    flat = remote_pairs.reshape(rows, -1)
    fetch_start = (np.cumsum(flat, axis=1) - flat).reshape(remote_pairs.shape)
    # Number each expert's remote tokens 0, 1, ... in ring order (their
    # remote ordinal q).  Run (r, e) holds the ordinals below through[r, e]
    # not held by earlier runs, and its fetch indices advance one per
    # ordinal, so a token's fetch index is q + shift[r, e].
    through = np.cumsum(remote_pairs, axis=1)
    shift = fetch_start - (through - remote_pairs)

    # Each expert's rows are its local tokens (fetch position -1) followed
    # by each remote source's run in ring order, cut into blocks of
    # tile_tm rows; only the last block of an expert may be partial.
    # ``cell`` numbers each block's (row, expert) as row * E_local + expert.
    expert_rows = pairs.sum(axis=1).reshape(-1)
    blocks = -(-expert_rows // tile_tm)
    cell = np.repeat(np.arange(expert_rows.size), blocks)
    rb_expert = cell % num_local_experts
    first_block = np.cumsum(blocks) - blocks
    rb_start = (np.arange(cell.size) - first_block[cell]) * tile_tm
    rb_end = np.minimum(rb_start + tile_tm, expert_rows[cell])
    rb_rows = rb_end - rb_start
    cuts = np.cumsum(blocks.reshape(rows, -1).sum(axis=1))[:-1]

    if policy == POLICY_SORTED:
        # Fetch indices are non-decreasing down an expert's rows, so a
        # block's latest token is its last row: local (-1) below the
        # expert's local count, else remote ordinal q in the first run
        # whose ``through`` exceeds q.
        rb_last = np.full(cell.size, -1, dtype=np.int64)
        ordinal = rb_end - 1 - local_rows.reshape(-1)[cell]
        remote = ordinal >= 0
        if remote.any():
            row, e = np.divmod(cell[remote], num_local_experts)
            q = ordinal[remote]
            run = (through[row, :, e] <= q[:, None]).sum(axis=1)
            rb_last[remote] = q + shift[row, run, e]
        last_parts = np.split(rb_last, cuts)
    else:
        last_parts = [
            _token_order_last_fetch(
                local_rows[i], remote_pairs[i], shift[i], rb_start[cell_rows],
                rb_expert[cell_rows], rng,
            )
            for i, cell_rows in enumerate(np.split(np.arange(cell.size), cuts))
        ]

    schedules = tuple(
        Layer0Schedule(
            rowblock_expert=expert_part,
            rowblock_rows=rows_part,
            rowblock_last_fetch=last_part,
            num_remote=remote_count,
            num_local=local_count,
            tile_tm=tile_tm,
            policy=policy,
        )
        for expert_part, rows_part, last_part, remote_count, local_count in zip(
            np.split(rb_expert, cuts), np.split(rb_rows, cuts), last_parts,
            num_remote.tolist(), num_local.tolist(),
        )
    )
    return schedules[0] if one else schedules


def _token_order_last_fetch(
    local_rows: np.ndarray,
    remote_pairs: np.ndarray,
    shift: np.ndarray,
    rb_start: np.ndarray,
    rb_expert: np.ndarray,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """The ``token_order`` ablation's last fetch per block of one row: each
    expert's rows randomly interleaved, so nearly every block touches a
    late-arriving token."""
    if rng is None:
        rng = np.random.default_rng(1234)
    rb_last_parts: list[np.ndarray] = []
    for e in range(local_rows.size):
        counts = remote_pairs[:, e]
        if local_rows[e] + counts.sum() == 0:
            continue
        positions = np.concatenate(
            (
                np.full(int(local_rows[e]), -1, dtype=np.int64),
                np.arange(int(counts.sum())) + np.repeat(shift[:, e], counts),
            )
        )
        rb_last_parts.append(
            np.maximum.reduceat(rng.permutation(positions), rb_start[rb_expert == e])
        )
    return (
        np.concatenate(rb_last_parts)
        if rb_last_parts
        else np.empty(0, dtype=np.int64)
    )


@dataclass(frozen=True)
class Layer1Schedule:
    """Tile iteration order of the layer1 GroupGEMM.

    The tile stream is what the ``np`` compute blocks drain; the top-k
    reducer can handle column ``j`` only after *every* expert's tiles of
    column ``j`` are done (paper Figure 6).
    """

    row_tiles_per_expert: np.ndarray
    col_tiles: int
    policy: str

    def __post_init__(self) -> None:
        if self.col_tiles <= 0:
            raise ValueError(f"col_tiles must be positive, got {self.col_tiles}")
        if self.policy not in (POLICY_COLUMN_MAJOR, POLICY_EXPERT_MAJOR):
            raise ValueError(f"unknown layer1 policy {self.policy!r}")

    @property
    def total_row_tiles(self) -> int:
        return int(np.asarray(self.row_tiles_per_expert).sum())

    @property
    def total_tiles(self) -> int:
        return self.total_row_tiles * self.col_tiles

    def column_completion_ordinals(self) -> np.ndarray:
        """For each column, the 1-based ordinal of its last tile in the stream.

        * column-major (COMET): column ``j``'s tiles are the ``j``-th
          contiguous group, finishing at ordinal ``(j + 1) * R``;
        * expert-major (ablation): column ``j``'s last tile belongs to the
          final row tile, at ordinal ``(R - 1) * C + j + 1``.
        """
        rows = self.total_row_tiles
        cols = self.col_tiles
        j = np.arange(cols, dtype=np.int64)
        if self.policy == POLICY_COLUMN_MAJOR:
            return (j + 1) * rows
        return (rows - 1) * cols + j + 1


def build_layer1_schedule(
    expert_rows: np.ndarray,
    cols: int,
    tile_tm: int = 128,
    tile_tn: int = 128,
    policy: str = POLICY_COLUMN_MAJOR,
) -> Layer1Schedule | tuple[Layer1Schedule, ...]:
    """Tile schedule for a layer1 GroupGEMM of ``expert_rows`` x ``cols``;
    ``(R, E_local)`` row counts give a tuple with one schedule per row."""
    expert_rows = np.asarray(expert_rows, dtype=np.int64)
    if np.any(expert_rows < 0):
        raise ValueError("expert row counts must be non-negative")
    if cols <= 0:
        raise ValueError(f"cols must be positive, got {cols}")
    row_tiles = -(-expert_rows // tile_tm)
    col_tiles = int(-(-cols // tile_tn))
    if row_tiles.ndim == 2:
        return tuple(Layer1Schedule(tiles, col_tiles, policy) for tiles in row_tiles)
    return Layer1Schedule(
        row_tiles_per_expert=row_tiles,
        col_tiles=col_tiles,
        policy=policy,
    )


# ---------------------------------------------------------------------------
# Numeric executors (schedule-equivalence checks)
# ---------------------------------------------------------------------------


def layer0_rescheduled_forward(
    x: np.ndarray,
    plan: RoutingPlan,
    weights: ExpertWeights,
    owner: np.ndarray,
    local_rank: int = 0,
    activation: Callable[[np.ndarray], np.ndarray] = silu,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run layer0 (GEMM + activation) with rows sorted by source rank.

    Returns, per expert, ``(token_ids, slots, activated_hidden)`` with rows
    ordered local-rank-first then by ring distance — the COMET shared
    tensor layout of Figure 5.  The math per row is identical to the
    reference; only row order differs.
    """
    results = []
    world = int(owner.max()) + 1 if owner.size else 1
    ring_distance = (owner - local_rank) % world
    for expert in range(plan.num_experts):
        token_ids, slots = plan.tokens_for_expert(expert)
        if token_ids.size == 0:
            results.append(
                (token_ids, slots, np.zeros((0, weights.ffn_size), dtype=np.float32))
            )
            continue
        order = np.lexsort((token_ids, ring_distance[token_ids]))
        token_ids = token_ids[order]
        slots = slots[order]
        hidden = x[token_ids].astype(np.float32) @ weights.w0[expert]
        results.append((token_ids, slots, activation(hidden)))
    return results


def layer1_columnwise_forward(
    expert_acts: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    plan: RoutingPlan,
    weights: ExpertWeights,
    col_block: int = 128,
) -> np.ndarray:
    """Run layer1 GEMM + top-k combine column-block by column-block.

    Iterates output columns in blocks of ``col_block`` (the ``TN`` of
    Figure 6): for each block, every expert's GEMM slice is computed and
    immediately reduced into the output — the consumer starts long before
    any single expert has produced its full output.  Must equal the
    reference combine up to float addition order.
    """
    hidden_size = weights.hidden_size
    out = np.zeros((plan.num_tokens, hidden_size), dtype=np.float32)
    if col_block <= 0:
        raise ValueError(f"col_block must be positive, got {col_block}")
    for col_start in range(0, hidden_size, col_block):
        cols = slice(col_start, min(col_start + col_block, hidden_size))
        for expert, (token_ids, slots, acts) in enumerate(expert_acts):
            if token_ids.size == 0:
                continue
            partial = acts @ weights.w1[expert][:, cols]
            combine = plan.weights[token_ids, slots].astype(np.float32)[:, None]
            np.add.at(out[:, cols], token_ids, combine * partial)
    return out
