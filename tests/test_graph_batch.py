"""Unit tests: compiled-topology scheduling and graph symmetry reduction.

That each fast path — :func:`repro.graph.batch.fast_schedule`,
:func:`~repro.graph.batch.schedule_batch`, the symmetry fold
(:func:`~repro.graph.scheduler.reduce_symmetry` /
:func:`~repro.graph.scheduler.expand_symmetry`) and
:func:`repro.perf.cached_graph_schedule` — equals the list scheduler
bit for bit is a row of the oracle table in ``tests/test_oracles.py``.
This file checks what the table does not: which topologies compile as
chains, what the fold finds, the fallback routing, the cache counters,
and the lowering skeleton — a topology lowered once and
reused by every later build, which only gathers its durations, must
give the graph a fresh node-by-node build gives, edge for edge and float
for float.
"""

import pytest

from repro import perf
from repro.graph import (
    COMM,
    COMPUTE,
    OVERLAP_POLICIES,
    LayerPhase,
    NodeKind,
    ScheduleGraph,
    StragglerSpec,
    Stream,
    build_forward_graph,
    build_training_graph,
    compile_topology,
    fast_schedule,
    list_schedule,
    reduce_symmetry,
    schedule_batch,
)
from repro.hw.multinode import IB_400G
from repro.hw.presets import NVLINK_H800
from repro.oracles import reference_paths

PHASES = (
    LayerPhase(NodeKind.GATE, 12.0),
    LayerPhase(NodeKind.DISPATCH, 40.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 55.0),
    LayerPhase(NodeKind.ACTIVATION, 6.0),
    LayerPhase(NodeKind.EXPERT, 48.0),
    LayerPhase(NodeKind.COMBINE, 33.0, comm=True),
    LayerPhase(NodeKind.HOST, 3.0),
)


def _forward(policy="per_layer", stragglers=None, num_layers=4):
    return build_forward_graph(PHASES, 25.0, num_layers, policy, stragglers)


def _assert_identical(schedule, reference):
    assert schedule.start_us == reference.start_us
    assert schedule.finish_us == reference.finish_us
    assert schedule.rank_makespans() == reference.rank_makespans()


class TestCompiledTopology:
    def test_empty_graph(self):
        graph = ScheduleGraph()
        topo = compile_topology(graph)
        assert topo.chain_ok and topo.num_nodes == 0
        assert fast_schedule(graph, topo).finish_us == ()

    def test_per_layer_forward_is_chain(self):
        topo = compile_topology(_forward("per_layer"))
        assert topo.chain_ok

    def test_cross_layer_forward_is_chain(self):
        topo = compile_topology(_forward("cross_layer"))
        assert topo.chain_ok

    def test_shortcut_is_not_chain(self):
        # Gate and attention are independently ready on one compute
        # stream under shortcut: dispatch order depends on durations, so
        # the recurrence is unsound and must be refused.
        topo = compile_topology(_forward("shortcut"))
        assert not topo.chain_ok

    def test_cross_layer_training_is_not_chain(self):
        graph = build_training_graph(
            PHASES, PHASES, 25.0, 50.0, 3, 80.0, 20.0, "cross_layer"
        )
        assert not compile_topology(graph).chain_ok

    def test_fallback_still_identical(self):
        graph = _forward("shortcut")
        _assert_identical(fast_schedule(graph), list_schedule(graph))

    @pytest.mark.parametrize("policy", ["per_layer", "cross_layer"])
    def test_straggler_forward_is_chain(self, policy):
        spec = StragglerSpec.slow_rank(8, rank=3, compute_mult=1.7, comm_mult=1.2)
        assert compile_topology(_forward(policy, stragglers=spec)).chain_ok

    def test_topology_fingerprint_ignores_durations(self):
        slow = StragglerSpec.slow_rank(4, rank=1, compute_mult=1.5)
        slower = StragglerSpec.slow_rank(4, rank=1, compute_mult=2.5)
        a = _forward(stragglers=slow)
        b = _forward(stragglers=slower)
        assert a.fingerprint() != b.fingerprint()
        assert a.topology_fingerprint() == b.topology_fingerprint()

    def test_node_count_mismatch_rejected(self):
        topo = compile_topology(_forward(num_layers=2))
        with pytest.raises(ValueError):
            fast_schedule(_forward(num_layers=3), topo)


class TestScheduleBatch:
    def test_batches_same_topology(self):
        mults = (1.0, 1.3, 1.7, 2.2, 3.1)
        graphs = [
            _forward(
                stragglers=StragglerSpec.slow_rank(4, rank=2, compute_mult=m)
            )
            for m in mults
        ]
        schedules = schedule_batch(graphs)
        assert len(schedules) == len(graphs)
        for graph, schedule in zip(graphs, schedules):
            assert schedule.graph is graph

    def test_mixed_topologies_preserve_order(self):
        graphs = [
            _forward("per_layer"),
            _forward("shortcut"),  # non-chain: per-graph fallback
            _forward("per_layer", StragglerSpec.slow_rank(2, 0, 1.5)),
            _forward("cross_layer"),
            _forward("per_layer", StragglerSpec.slow_rank(2, 0, 2.5)),
        ]
        schedules = schedule_batch(graphs)
        assert [s.graph for s in schedules] == graphs

    def test_empty_batch(self):
        assert schedule_batch([]) == []


class TestSymmetryReduction:
    def test_uniform_graph_collapses_to_one_rank(self):
        spec = StragglerSpec.uniform(8)
        graph = _forward(stragglers=spec)
        symmetry = reduce_symmetry(graph)
        assert symmetry is not None
        assert symmetry.reps == (0,)
        assert symmetry.world == 8
        assert len(symmetry.reduced) == len(graph) // 8

    def test_k_distinct_classes(self):
        # 8 ranks, 2 distinct multiplier classes -> 2 scheduled ranks.
        spec = StragglerSpec(
            compute_mult=(1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5),
            comm_mult=(1.0,) * 8,
            expert_mult=(1.0,) * 8,
            name="alternating",
        )
        graph = _forward(stragglers=spec)
        symmetry = reduce_symmetry(graph)
        assert symmetry is not None
        assert symmetry.reps == (0, 1)
        assert symmetry.rep_index == (0, 1, 0, 1, 0, 1, 0, 1)

    @pytest.mark.parametrize("policy", ["per_layer", "cross_layer", "shortcut"])
    def test_slow_rank_folds_to_two_classes(self, policy):
        spec = StragglerSpec.slow_rank(6, rank=4, compute_mult=1.9)
        symmetry = reduce_symmetry(_forward(policy, stragglers=spec))
        assert symmetry is not None
        assert symmetry.reps == (0, 4)

    def test_training_graph_reduces(self):
        spec = StragglerSpec.slow_rank(4, rank=1, compute_mult=1.4)
        graph = build_training_graph(
            PHASES, PHASES, 25.0, 50.0, 2, 80.0, 20.0, "per_layer", spec
        )
        assert reduce_symmetry(graph) is not None

    def test_all_distinct_ranks_returns_none(self):
        spec = StragglerSpec(
            compute_mult=(1.0, 1.25, 1.5, 1.75),
            comm_mult=(1.0,) * 4,
            expert_mult=(1.0,) * 4,
            name="staircase",
        )
        assert reduce_symmetry(_forward(stragglers=spec)) is None

    def test_single_rank_returns_none(self):
        assert reduce_symmetry(_forward()) is None

    def test_non_blocked_graph_returns_none(self):
        # Hand-built graph whose node order is not rank-blocked.
        graph = ScheduleGraph()
        a = graph.add(NodeKind.EXPERT, 5.0, Stream(COMPUTE, 0))
        b = graph.add(NodeKind.EXPERT, 5.0, Stream(COMPUTE, 1), deps=(a,))
        graph.add(NodeKind.COMBINE, 3.0, Stream(COMM, 0), deps=(a, b))
        assert reduce_symmetry(graph) is None


class TestPerfIntegration:
    def setup_method(self):
        perf.clear_caches()

    def teardown_method(self):
        perf.clear_caches()

    def test_graph_batch_cache_counts(self):
        spec_a = StragglerSpec.slow_rank(4, rank=0, compute_mult=1.5)
        spec_b = StragglerSpec.slow_rank(4, rank=0, compute_mult=2.0)
        perf.cached_graph_schedule(_forward(stragglers=spec_a))
        first = perf.cache_stats()["graph_batch"]
        # The cache holds the per-topology compiled artifacts (block
        # structure, reduced recurrence, ...): all cold on first use.
        assert first["misses"] > 0 and first["hits"] == 0 and first["size"] > 0
        # Same topology, different durations: every artifact is reused —
        # no new misses, no new entries.
        perf.cached_graph_schedule(_forward(stragglers=spec_b))
        second = perf.cache_stats()["graph_batch"]
        assert second["hits"] > 0
        assert second["misses"] == first["misses"]
        assert second["size"] == first["size"]

    def test_reference_paths_store_nothing(self):
        perf.clear_caches()
        with reference_paths():
            graph = _forward(stragglers=StragglerSpec.slow_rank(4, 1, 1.5))
            schedule = perf.cached_graph_schedule(graph)
            assert len(perf.GRAPH_CACHE) == 0
            assert len(perf.GRAPH_BATCH_CACHE) == 0
        _assert_identical(schedule, list_schedule(graph))


# -- lowering skeleton ---------------------------------------------------------


def _scaled(phases, scale):
    return tuple(
        LayerPhase(p.kind, p.duration_us * scale, p.comm) for p in phases
    )


def _zeroed_comm_table(scale):
    """A per-rank table as ``lower_rank_phases`` emits it when one rank's
    comm phase is fully hidden: rank 1's dispatch is zero, the others'
    stay exposed, so the position stays active for every rank."""
    table = [_scaled(PHASES, scale)] * 4
    table[1] = tuple(
        LayerPhase(p.kind, 0.0, p.comm) if p.kind is NodeKind.DISPATCH else p
        for p in table[1]
    )
    return tuple(table)


def _lowering_case(kind, policy, case, scale=1.0):
    """One graph of the parity grid; ``scale`` changes every duration but
    keeps the topology, so two scales share one skeleton."""
    phases, spec = _scaled(PHASES, scale), None
    if case == "slow_rank":
        spec = StragglerSpec.slow_rank(4, rank=2, compute_mult=1.5 * scale)
    elif case == "degraded_link":
        spec = StragglerSpec.degraded_link(4, 3, IB_400G, NVLINK_H800)
    elif case == "zeroed_comm":
        phases = _zeroed_comm_table(scale)
    if kind == "forward":
        return build_forward_graph(phases, 25.0 * scale, 3, policy, spec)
    return build_training_graph(
        phases, phases, 25.0 * scale, 50.0 * scale, 3, 80.0 * scale,
        20.0 * scale, policy, spec,
    )


LOWERING_CASES = ("single", "slow_rank", "degraded_link", "zeroed_comm")


def _assert_same_graph(graph, reference):
    assert graph.fingerprint() == reference.fingerprint()
    assert graph.topology_token == reference.topology_token
    assert list(graph.preds) == list(reference.preds)
    assert graph.nodes == reference.nodes


class TestLoweringSkeleton:
    def setup_method(self):
        perf.clear_caches()

    def teardown_method(self):
        perf.clear_caches()

    @pytest.mark.parametrize("case", LOWERING_CASES)
    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    @pytest.mark.parametrize("kind", ["forward", "training"])
    def test_reused_skeleton_equals_fresh_build(self, kind, policy, case):
        first = _lowering_case(kind, policy, case, scale=2.0)
        reused = _lowering_case(kind, policy, case)
        stats = perf.cache_stats()["graph_batch"]
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert reused.preds is first.preds  # one skeleton, shared
        with reference_paths(caches_only=True):
            fresh = _lowering_case(kind, policy, case)
        # Bypassed: a fresh skeleton, one counted miss, nothing stored.
        assert perf.cache_stats()["graph_batch"] == {**stats, "misses": 2, "hit_rate": 1 / 3}
        _assert_same_graph(reused, fresh)
        assert first.fingerprint() != reused.fingerprint()

    # Digests of the node-by-node lowering: a change to lowering fails
    # here even where every build still agrees with every other build.
    PINNED = {
        ("forward", "cross_layer", "slow_rank"): "df958ed35c3de25ddb0d46c1674561cfc70a432e",
        ("forward", "shortcut", "zeroed_comm"): "a7f65747f183235eee22fa28f3d27d3341b24e1c",
        ("training", "cross_layer", "degraded_link"): "f65d88a371d345f538f57dc239dc76f1dfbd0a6e",
        ("training", "shortcut", "single"): "27319287691bac6b0580a12f344cae01f34d1778",
        ("training", "per_layer", "zeroed_comm"): "9f439939e88f08810ec2f9dbf145cf046713d66d",
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_fingerprint_pinned(self, key):
        for _ in ("lowered", "reused"):
            assert _lowering_case(*key).fingerprint() == self.PINNED[key]

    def test_add_copies_shared_columns(self):
        first = _lowering_case("forward", "cross_layer", "slow_rank")
        second = _lowering_case("forward", "cross_layer", "slow_rank")
        assert second.kinds is first.kinds
        with pytest.raises(TypeError):  # shared columns are read-only
            second.preds[0] = ()
        n = len(second)
        second.add(NodeKind.HOST, 1.0, Stream(COMPUTE, 0), deps=(n - 1,))
        assert second.topology_token is None
        assert second.kinds is not first.kinds
        assert (len(first), len(second)) == (n, n + 1)
        assert second.nodes[-1].kind is NodeKind.HOST
        with reference_paths(caches_only=True):
            fresh = _lowering_case("forward", "cross_layer", "slow_rank")
        _assert_same_graph(first, fresh)
        _assert_same_graph(
            _lowering_case("forward", "cross_layer", "slow_rank"), fresh
        )
