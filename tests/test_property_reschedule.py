"""Property-based schedule-equivalence tests (the core COMET invariant).

Rescheduling shared tensors (paper §3.1.2) must never change the math —
any routing plan, any imbalance, any column block size, any local rank.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.moe import (
    ExpertWeights,
    balanced_fractions,
    imbalanced_fractions,
    reference_moe_forward,
    routing_from_fractions,
    token_owner_ranks,
)
from repro.tensor import (
    build_layer0_schedule,
    build_layer1_schedule,
    layer0_rescheduled_forward,
    layer1_columnwise_forward,
)


@st.composite
def moe_cases(draw):
    experts = draw(st.sampled_from([2, 4, 8]))
    topk = draw(st.integers(min_value=1, max_value=min(3, experts)))
    tokens = draw(st.integers(min_value=1, max_value=96))
    world = draw(st.sampled_from([1, 2, 4]))
    hidden = draw(st.sampled_from([8, 16, 33]))
    ffn = draw(st.sampled_from([12, 24]))
    std = draw(st.sampled_from([0.0, 0.04]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    col_block = draw(st.sampled_from([1, 5, 16, 128]))
    local_rank = draw(st.integers(min_value=0, max_value=world - 1))
    return experts, topk, tokens, world, hidden, ffn, std, seed, col_block, local_rank


@given(case=moe_cases())
@settings(max_examples=60, deadline=None)
def test_comet_schedule_equals_reference(case):
    experts, topk, tokens, world, hidden, ffn, std, seed, col_block, local_rank = case
    rng = np.random.default_rng(seed)
    if std > 0:
        fractions = imbalanced_fractions(experts, std, rng)
    else:
        fractions = balanced_fractions(experts)
    plan = routing_from_fractions(tokens, topk, fractions, rng)
    owner = token_owner_ranks(tokens, world)
    weights = ExpertWeights.init(experts, hidden, ffn, rng)
    x = rng.normal(size=(tokens, hidden)).astype(np.float32)

    reference = reference_moe_forward(x, plan, weights)
    acts = layer0_rescheduled_forward(x, plan, weights, owner, local_rank)
    rescheduled = layer1_columnwise_forward(acts, plan, weights, col_block)
    np.testing.assert_allclose(rescheduled, reference, rtol=2e-4, atol=2e-5)


@st.composite
def schedule_cases(draw):
    world = draw(st.sampled_from([2, 4, 8]))
    experts = draw(st.integers(min_value=1, max_value=8))
    pairs = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=300), min_size=experts, max_size=experts),
            min_size=world,
            max_size=world,
        )
    )
    rank = draw(st.integers(min_value=0, max_value=world - 1))
    tile = draw(st.sampled_from([16, 128]))
    return np.array(pairs, dtype=np.int64), rank, tile


@given(case=schedule_cases())
@settings(max_examples=80, deadline=None)
def test_layer0_schedule_structural_invariants(case):
    pairs, rank, tile = case
    schedule = build_layer0_schedule(pairs, rank, tile_tm=tile)
    # Row conservation.
    assert schedule.total_rows == pairs.sum()
    assert schedule.num_local + schedule.num_remote == pairs.sum()
    # Every block has 1..tile rows.
    if schedule.num_rowblocks:
        assert schedule.rowblock_rows.min() >= 1
        assert schedule.rowblock_rows.max() <= tile
    # Fetch indices bounded by the remote count.
    if schedule.num_remote:
        assert schedule.rowblock_last_fetch.max() == schedule.num_remote - 1
    else:
        assert (schedule.rowblock_last_fetch == -1).all()
    # Per-expert row totals match.
    for e in range(pairs.shape[1]):
        mask = schedule.rowblock_expert == e
        assert schedule.rowblock_rows[mask].sum() == pairs[:, e].sum()


@given(
    rows=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=16),
    cols=st.integers(min_value=1, max_value=8192),
    tile=st.sampled_from([64, 128]),
)
@settings(max_examples=80, deadline=None)
def test_layer1_schedules_same_work_different_order(rows, cols, tile):
    """Column-major and expert-major orders are permutations of the same
    tile set: equal totals, equal final ordinal, but column-major's first
    column never completes later."""
    rows = np.array(rows)
    cm = build_layer1_schedule(rows, cols, tile_tn=tile, policy="column_major")
    em = build_layer1_schedule(rows, cols, tile_tn=tile, policy="expert_major")
    assert cm.total_tiles == em.total_tiles
    o_cm, o_em = cm.column_completion_ordinals(), em.column_completion_ordinals()
    if cm.total_tiles:
        assert o_cm[-1] == o_em[-1] == cm.total_tiles
        assert o_cm[0] <= o_em[0]
        assert (o_cm >= 1).all() and (o_em >= 1).all()


@given(
    rows=st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=16),
    cols=st.integers(min_value=1, max_value=8192),
    tile=st.sampled_from([64, 128]),
    policy=st.sampled_from(["column_major", "expert_major"]),
)
@settings(max_examples=80, deadline=None)
def test_column_completion_ordinals_strictly_increase(rows, cols, tile, policy):
    """Under both orders each column completes after the one before, so
    the last column is the last to complete (the layer1 kernel's GEMM
    end)."""
    schedule = build_layer1_schedule(np.array(rows), cols, tile_tn=tile, policy=policy)
    assume(schedule.total_tiles > 0)
    ordinals = schedule.column_completion_ordinals()
    assert (np.diff(ordinals) > 0).all()
    assert ordinals[-1] == schedule.total_tiles
