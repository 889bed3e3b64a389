"""Equivalence contract of the perf layer beyond the oracle table.

``tests/test_oracles.py`` checks every fast path against its oracle.
This file keeps the checks that are not one fast path/oracle pair:

* the vectorised geometry (baseline_dispatch_route,
  unique_tokens_per_rank) vs loop references;
* cached/parallel grid execution vs the serial reference paths
  (:func:`repro.oracles.reference_paths`) — byte-identical exports.
"""

import numpy as np
import pytest

from repro import (
    MIXTRAL_8X7B,
    QWEN2_MOE,
    ExperimentSpec,
    ParallelStrategy,
    h800_node,
)
from repro.oracles import reference_paths
from repro.runtime.workload import make_workload
from repro.serve import ServeSpec, TraceSpec

CLUSTER = h800_node()


# ---------------------------------------------------------------------------
# Vectorised geometry vs loop references
# ---------------------------------------------------------------------------


def _reference_dispatch_route(workload):
    strategy = workload.strategy
    world = strategy.world_size
    plan = workload.plan
    src_expert = plan.counts_by_rank(workload.owner)
    if src_expert.shape[0] < world:
        padded = np.zeros((world, plan.num_experts), dtype=np.int64)
        padded[: src_expert.shape[0]] = src_expert
        src_expert = padded
    cross = np.zeros((world, world), dtype=np.int64)
    entered = np.zeros(world, dtype=np.int64)
    for expert in range(plan.num_experts):
        group = strategy.ep_group_of_expert(expert, plan.num_experts)
        for src in range(world):
            pairs = int(src_expert[src, expert])
            if pairs == 0:
                continue
            entry = strategy.rank_of(group, strategy.tp_rank(src))
            cross[src, entry] += pairs
            entered[entry] += pairs
    return cross, entered


def _reference_unique_tokens(workload):
    strategy = workload.strategy
    plan = workload.plan
    per_group = plan.num_experts // strategy.ep_size
    token_groups = plan.experts // per_group
    counts = np.zeros(strategy.world_size, dtype=np.int64)
    for group in range(strategy.ep_size):
        present = (token_groups == group).any(axis=1)
        for rank in strategy.ranks_in_ep_group(group):
            counts[rank] = int(present.sum())
    return counts


@pytest.mark.parametrize("config", [MIXTRAL_8X7B, QWEN2_MOE])
@pytest.mark.parametrize("tp,ep", [(1, 8), (2, 4), (8, 1)])
@pytest.mark.parametrize("imbalance_std", [0.0, 0.03])
def test_vectorized_geometry_matches_loops(config, tp, ep, imbalance_std):
    workload = make_workload(
        config,
        CLUSTER,
        ParallelStrategy(tp_size=tp, ep_size=ep),
        total_tokens=2048,
        imbalance_std=imbalance_std,
        seed=5,
    )
    geometry = workload.geometry
    cross, entered = geometry.baseline_dispatch_route
    ref_cross, ref_entered = _reference_dispatch_route(workload)
    np.testing.assert_array_equal(cross, ref_cross)
    np.testing.assert_array_equal(entered, ref_entered)
    assert cross.dtype == np.int64

    unique = geometry.unique_tokens_per_rank
    np.testing.assert_array_equal(unique, _reference_unique_tokens(workload))
    assert unique.dtype == np.int64


# ---------------------------------------------------------------------------
# Grids vs serial
# ---------------------------------------------------------------------------


def test_serve_spec_workers_byte_identical():
    spec = ServeSpec.grid(
        models=MIXTRAL_8X7B,
        clusters=CLUSTER,
        traces=TraceSpec(kind="poisson", rps=40, duration_s=2, seed=0),
        systems=("comet", "tutel", "fastermoe"),
    )
    with reference_paths():
        slow = spec.run()
    parallel = spec.run(workers=3)
    assert slow.to_json() == parallel.to_json()


def test_experiment_spec_workers_byte_identical():
    spec = ExperimentSpec.grid(
        models=(MIXTRAL_8X7B, QWEN2_MOE),
        clusters=CLUSTER,
        strategies="sweep",
        tokens=(2048,),
    )
    with reference_paths():
        slow = spec.run()
    fast = spec.run()
    parallel = spec.run(workers=4)
    assert slow.to_json() == fast.to_json()
    assert slow.to_json() == parallel.to_json()
    # skip records (FasterMoE under TP) survive identically in parallel mode
    assert slow.skipped == parallel.skipped


def test_model_level_workers_byte_identical():
    spec = ExperimentSpec.grid(
        models=MIXTRAL_8X7B,
        clusters=CLUSTER,
        strategies=[(1, 8), (2, 4)],
        tokens=(2048,),
        systems=("comet", "megatron-cutlass"),
    )
    with reference_paths():
        slow = spec.run(level="model")
    parallel = spec.run(level="model", workers=2)
    assert slow.to_json() == parallel.to_json()
