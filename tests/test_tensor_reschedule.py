"""Unit tests for rescheduling: schedules and numeric equivalence."""

import numpy as np
import pytest

from repro.moe import (
    ExpertWeights,
    balanced_fractions,
    reference_moe_forward,
    routing_from_fractions,
    token_owner_ranks,
)
from repro.parallel import ExpertPlacement, ParallelStrategy
from repro.tensor import (
    build_layer0_schedule,
    build_layer1_schedule,
    layer0_rescheduled_forward,
    layer1_columnwise_forward,
)
from repro.tensor.reschedule import (
    POLICY_COLUMN_MAJOR,
    POLICY_EXPERT_MAJOR,
    POLICY_SORTED,
    POLICY_TOKEN_ORDER,
)


def rank_pairs(world=4, experts=8, tokens=512, topk=2, seed=0, rank=0):
    rng = np.random.default_rng(seed)
    plan = routing_from_fractions(tokens, topk, balanced_fractions(experts), rng)
    owner = token_owner_ranks(tokens, world)
    placement = ExpertPlacement(ParallelStrategy(tp_size=1, ep_size=world), experts)
    return placement.rank_workload(plan, owner, rank).pairs_by_src_expert


class TestLayer0Schedule:
    def test_rows_conserved(self):
        pairs = rank_pairs()
        schedule = build_layer0_schedule(pairs, rank=0, tile_tm=128)
        assert schedule.total_rows == pairs.sum()

    def test_local_plus_remote_partition(self):
        pairs = rank_pairs()
        schedule = build_layer0_schedule(pairs, rank=0)
        assert schedule.num_local == pairs[0].sum()
        assert schedule.num_remote == pairs.sum() - pairs[0].sum()

    def test_fetch_indices_in_range(self):
        pairs = rank_pairs()
        schedule = build_layer0_schedule(pairs, rank=0)
        assert schedule.rowblock_last_fetch.min() >= -1
        assert schedule.rowblock_last_fetch.max() == schedule.num_remote - 1

    def test_sorted_policy_has_local_first_blocks(self):
        """With sorting, experts with enough local tokens yield blocks that
        are ready immediately (last_fetch == -1)."""
        pairs = rank_pairs(world=2, experts=4, tokens=4096, topk=2)
        schedule = build_layer0_schedule(pairs, rank=0, tile_tm=128)
        assert (schedule.rowblock_last_fetch == -1).any()

    def test_sorted_dominates_token_order(self):
        """Sorting by source rank can only move block dependencies earlier:
        every block's last-fetch index under the sorted policy is <= the
        worst block's under token order, and on average strictly less."""
        pairs = rank_pairs(world=4, experts=8, tokens=2048)
        sorted_sched = build_layer0_schedule(pairs, 0, policy=POLICY_SORTED)
        shuffled = build_layer0_schedule(
            pairs, 0, policy=POLICY_TOKEN_ORDER, rng=np.random.default_rng(5)
        )
        assert (
            sorted_sched.rowblock_last_fetch.mean()
            < shuffled.rowblock_last_fetch.mean()
        )

    def test_block_sizes_bounded_by_tile(self):
        pairs = rank_pairs()
        schedule = build_layer0_schedule(pairs, rank=0, tile_tm=128)
        assert schedule.rowblock_rows.max() <= 128
        assert schedule.rowblock_rows.min() >= 1

    def test_monotone_last_fetch_within_expert(self):
        pairs = rank_pairs()
        schedule = build_layer0_schedule(pairs, rank=0)
        for expert in np.unique(schedule.rowblock_expert):
            fetches = schedule.rowblock_last_fetch[
                schedule.rowblock_expert == expert
            ]
            assert (np.diff(fetches) >= 0).all()

    def test_empty_expert_skipped(self):
        pairs = np.zeros((2, 3), dtype=np.int64)
        pairs[0, 1] = 4
        schedule = build_layer0_schedule(pairs, rank=0, tile_tm=128)
        assert schedule.num_rowblocks == 1
        assert schedule.rowblock_expert.tolist() == [1]

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            build_layer0_schedule(np.zeros((2, 2), dtype=int), rank=2)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            build_layer0_schedule(np.zeros((2, 2), dtype=int), 0, policy="bogus")

    @pytest.mark.parametrize("tile_tm", (0, -64))
    def test_non_positive_tile_rejected(self, tile_tm):
        # 0 used to raise ZeroDivisionError and -64 to build an empty
        # schedule that dropped every row.
        with pytest.raises(ValueError, match="tile_tm must be positive"):
            build_layer0_schedule(np.ones((2, 2), dtype=int), 0, tile_tm=tile_tm)


class TestLayer1Schedule:
    def test_tile_counts(self):
        schedule = build_layer1_schedule(np.array([128, 256]), cols=512)
        assert schedule.total_row_tiles == 3
        assert schedule.col_tiles == 4
        assert schedule.total_tiles == 12

    def test_column_major_completion_ordinals(self):
        schedule = build_layer1_schedule(
            np.array([128, 128]), cols=384, policy=POLICY_COLUMN_MAJOR
        )
        # R = 2 row tiles, C = 3 columns: columns complete at 2, 4, 6.
        assert schedule.column_completion_ordinals().tolist() == [2, 4, 6]

    def test_expert_major_completion_ordinals(self):
        schedule = build_layer1_schedule(
            np.array([128, 128]), cols=384, policy=POLICY_EXPERT_MAJOR
        )
        # Last row tile emits columns at ordinals (R-1)*C + j + 1 = 4, 5, 6.
        assert schedule.column_completion_ordinals().tolist() == [4, 5, 6]

    def test_column_major_first_column_much_earlier(self):
        """The whole point of column-major order (Figure 6): the first
        column completes after 1/C of the work instead of ~all of it."""
        rows = np.array([512] * 8)
        cm = build_layer1_schedule(rows, cols=4096, policy=POLICY_COLUMN_MAJOR)
        em = build_layer1_schedule(rows, cols=4096, policy=POLICY_EXPERT_MAJOR)
        assert cm.column_completion_ordinals()[0] < em.column_completion_ordinals()[0]

    def test_both_policies_finish_together(self):
        rows = np.array([512] * 4)
        cm = build_layer1_schedule(rows, cols=1024, policy=POLICY_COLUMN_MAJOR)
        em = build_layer1_schedule(rows, cols=1024, policy=POLICY_EXPERT_MAJOR)
        assert (
            cm.column_completion_ordinals()[-1]
            == em.column_completion_ordinals()[-1]
            == cm.total_tiles
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_layer1_schedule(np.array([-1]), cols=128)
        with pytest.raises(ValueError):
            build_layer1_schedule(np.array([128]), cols=0)
        with pytest.raises(ValueError):
            build_layer1_schedule(np.array([128]), cols=128, policy="bogus")


class TestNumericEquivalence:
    """Rescheduling must be a pure reordering of the same math."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.weights = ExpertWeights.init(6, hidden_size=32, ffn_size=48, rng=self.rng)
        self.tokens = 96
        self.x = self.rng.normal(size=(self.tokens, 32)).astype(np.float32)
        self.plan = routing_from_fractions(
            self.tokens, 3, balanced_fractions(6), self.rng
        )
        self.owner = token_owner_ranks(self.tokens, 4)
        self.reference = reference_moe_forward(self.x, self.plan, self.weights)

    def test_full_comet_schedule_matches_reference(self):
        acts = layer0_rescheduled_forward(
            self.x, self.plan, self.weights, self.owner, local_rank=0
        )
        out = layer1_columnwise_forward(acts, self.plan, self.weights, col_block=16)
        np.testing.assert_allclose(out, self.reference, rtol=1e-4, atol=1e-5)

    def test_equivalence_for_every_local_rank(self):
        for rank in range(4):
            acts = layer0_rescheduled_forward(
                self.x, self.plan, self.weights, self.owner, local_rank=rank
            )
            out = layer1_columnwise_forward(acts, self.plan, self.weights)
            np.testing.assert_allclose(out, self.reference, rtol=1e-4, atol=1e-5)

    def test_equivalence_any_col_block(self):
        acts = layer0_rescheduled_forward(
            self.x, self.plan, self.weights, self.owner
        )
        for col_block in (1, 7, 32, 1000):
            out = layer1_columnwise_forward(
                acts, self.plan, self.weights, col_block=col_block
            )
            np.testing.assert_allclose(out, self.reference, rtol=1e-4, atol=1e-5)

    def test_layer0_rows_sorted_by_ring_distance(self):
        acts = layer0_rescheduled_forward(
            self.x, self.plan, self.weights, self.owner, local_rank=2
        )
        world = 4
        for token_ids, _, _ in acts:
            if token_ids.size == 0:
                continue
            distance = (self.owner[token_ids] - 2) % world
            assert (np.diff(distance) >= 0).all()

    def test_invalid_col_block(self):
        acts = layer0_rescheduled_forward(
            self.x, self.plan, self.weights, self.owner
        )
        with pytest.raises(ValueError):
            layer1_columnwise_forward(acts, self.plan, self.weights, col_block=0)
