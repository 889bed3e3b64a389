"""Tests for the explicit distributed executor (a reference oracle).

The distributed result must equal the single-box reference for every
strategy, and its message log must be well formed.  That the rows it
moves match the traffic the cost models price is a row of the oracle
table in ``tests/test_oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.moe import (
    ExpertWeights,
    balanced_fractions,
    imbalanced_fractions,
    reference_moe_forward,
    routing_from_fractions,
    token_owner_ranks,
)
from repro.oracles.distributed import DistributedMoE, MessageLog
from repro.parallel import ParallelStrategy

HIDDEN, FFN = 24, 32


def build_case(tp=1, ep=4, experts=8, tokens=64, topk=2, std=0.0, seed=0):
    rng = np.random.default_rng(seed)
    if std > 0:
        fractions = imbalanced_fractions(experts, std, rng)
    else:
        fractions = balanced_fractions(experts)
    plan = routing_from_fractions(tokens, topk, fractions, rng)
    strategy = ParallelStrategy(tp_size=tp, ep_size=ep)
    owner = token_owner_ranks(tokens, strategy.world_size)
    weights = ExpertWeights.init(experts, HIDDEN, FFN, rng)
    x = rng.normal(size=(tokens, HIDDEN)).astype(np.float32)
    return strategy, plan, owner, weights, x


class TestNumericalEquivalence:
    @pytest.mark.parametrize("tp,ep", [(1, 1), (1, 4), (2, 2), (4, 1), (2, 4), (1, 8)])
    def test_matches_reference(self, tp, ep):
        strategy, plan, owner, weights, x = build_case(tp=tp, ep=ep)
        system = DistributedMoE(strategy, weights)
        out = system.forward(x, plan, owner)
        reference = reference_moe_forward(x, plan, weights)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_matches_reference_imbalanced(self):
        strategy, plan, owner, weights, x = build_case(tp=2, ep=2, std=0.05, seed=3)
        out = DistributedMoE(strategy, weights).forward(x, plan, owner)
        reference = reference_moe_forward(x, plan, weights)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_topk_one(self):
        strategy, plan, owner, weights, x = build_case(topk=1)
        out = DistributedMoE(strategy, weights).forward(x, plan, owner)
        reference = reference_moe_forward(x, plan, weights)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_repeated_forward_is_stateless(self):
        strategy, plan, owner, weights, x = build_case()
        system = DistributedMoE(strategy, weights)
        out1 = system.forward(x, plan, owner)
        out2 = system.forward(x, plan, owner)
        np.testing.assert_array_equal(out1, out2)


class TestMessageLog:
    def test_single_rank_moves_nothing_remote(self):
        strategy, plan, owner, weights, x = build_case(tp=1, ep=1)
        system = DistributedMoE(strategy, weights)
        system.forward(x, plan, owner)
        assert system.log.total_wire_bytes() == 0

    def test_message_log_phases(self):
        strategy, plan, owner, weights, x = build_case()
        system = DistributedMoE(strategy, weights)
        system.forward(x, plan, owner)
        phases = {phase for phase, *_ in system.log.entries}
        assert phases == {"dispatch", "combine"}

    def test_message_log_validation(self):
        log = MessageLog()
        with pytest.raises(ValueError):
            log.record("dispatch", 0, 1, -5)


class TestValidation:
    def test_plan_mismatch(self):
        strategy, plan, owner, weights, x = build_case()
        other = ExpertWeights.init(4, HIDDEN, FFN)
        with pytest.raises(ValueError):
            DistributedMoE(strategy, other).forward(x, plan, owner)

    def test_owner_out_of_range(self):
        strategy, plan, owner, weights, x = build_case()
        bad = np.full_like(owner, 99)
        with pytest.raises(ValueError):
            DistributedMoE(strategy, weights).forward(x, plan, bad)

    def test_indivisible_model(self):
        weights = ExpertWeights.init(6, HIDDEN, FFN)
        with pytest.raises(ValueError):
            DistributedMoE(ParallelStrategy(1, 4), weights)


@given(
    tp=st.sampled_from([1, 2]),
    ep=st.sampled_from([1, 2, 4]),
    topk=st.integers(min_value=1, max_value=3),
    tokens=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_distributed_equals_reference_property(tp, ep, topk, tokens, seed):
    experts = 4 * ep if ep > 1 else 4
    rng = np.random.default_rng(seed)
    plan = routing_from_fractions(tokens, topk, balanced_fractions(experts), rng)
    strategy = ParallelStrategy(tp_size=tp, ep_size=ep)
    owner = token_owner_ranks(tokens, strategy.world_size)
    weights = ExpertWeights.init(experts, 16, 8, rng)
    x = rng.normal(size=(tokens, 16)).astype(np.float32)
    out = DistributedMoE(strategy, weights).forward(x, plan, owner)
    reference = reference_moe_forward(x, plan, weights)
    np.testing.assert_allclose(out, reference, rtol=2e-4, atol=2e-5)
