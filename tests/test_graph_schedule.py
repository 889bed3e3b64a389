"""Unit tests for the schedule-graph IR, scheduler, and lowering."""

import math

import numpy as np
import pytest

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
    build_moe_chain,
    build_training_graph,
    check_policy,
    forward_makespan,
    list_schedule,
    training_makespan,
)
from repro.hw import h800_node
from repro.moe import MIXTRAL_8X7B
from repro.parallel import ParallelStrategy
from repro.runtime import make_workload
from repro.systems import ALL_SYSTEMS, Comet, MegatronCutlass

COMPUTE0 = Stream(COMPUTE, 0)
COMM0 = Stream(COMM, 0)

PHASES = (
    LayerPhase(NodeKind.GATE, 10.0),
    LayerPhase(NodeKind.DISPATCH, 7.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 20.0),
    LayerPhase(NodeKind.ACTIVATION, 3.0),
    LayerPhase(NodeKind.EXPERT, 15.0),
    LayerPhase(NodeKind.COMBINE, 9.0, comm=True),
    LayerPhase(NodeKind.HOST, 2.0),
)
PHASE_SUM = 66.0


class TestScheduleGraph:
    def test_edges_must_point_backward(self):
        graph = ScheduleGraph()
        with pytest.raises(ValueError):
            graph.add(NodeKind.GATE, 1.0, COMPUTE0, deps=(0,))

    def test_negative_duration_rejected(self):
        graph = ScheduleGraph()
        with pytest.raises(ValueError):
            graph.add(NodeKind.GATE, -1.0, COMPUTE0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        # A NaN node used to hang list_schedule (its finish never equals
        # the drain loop's timestamp); an infinite one never finishes.
        graph = ScheduleGraph()
        with pytest.raises(ValueError, match="finite"):
            graph.add(NodeKind.GATE, duration, COMPUTE0)
        with pytest.raises(ValueError, match="finite"):
            LayerPhase(NodeKind.EXPERT, duration)
        assert len(graph) == 0

    def test_with_durations_shares_topology(self):
        graph = build_forward_graph(PHASES, 12.0, 2, "cross_layer")
        n = len(graph)
        other = graph.with_durations(np.full(n, 2.0), graph.topology_token)
        assert other.durations == [2.0] * n
        assert other.kinds is graph.kinds and other.preds is graph.preds
        assert other.topology_token == graph.topology_token
        assert other.topology_fingerprint() == graph.topology_fingerprint()
        for bad in (np.full(n, math.nan), np.full(n, math.inf), -np.ones(n)):
            with pytest.raises(ValueError, match="finite"):
                graph.with_durations(bad)
        with pytest.raises(ValueError, match="durations"):
            graph.with_durations(np.ones(n - 1))

    def test_nodes_view_follows_add(self):
        graph = ScheduleGraph()
        graph.add(NodeKind.GATE, 1.0, COMPUTE0)
        assert [node.kind for node in graph.nodes] == [NodeKind.GATE]
        graph.add(NodeKind.COMBINE, 2.0, COMM0, deps=(0,))
        assert [(n.id, n.duration_us, n.stream) for n in graph] == [
            (0, 1.0, COMPUTE0),
            (1, 2.0, COMM0),
        ]

    def test_bad_stream_kind_rejected(self):
        with pytest.raises(ValueError):
            Stream("dma", 0)

    def test_fingerprint_sensitivity(self):
        def build(dur, dep):
            graph = ScheduleGraph()
            graph.add(NodeKind.GATE, 1.0, COMPUTE0)
            graph.add(NodeKind.EXPERT, 2.0, COMPUTE0)
            graph.add(NodeKind.COMBINE, dur, COMM0, deps=(dep,))
            return graph

        base = build(3.0, 1)
        assert base.fingerprint() == build(3.0, 1).fingerprint()
        assert base.fingerprint() != build(3.0000000001, 1).fingerprint()
        assert base.fingerprint() != build(3.0, 0).fingerprint()

    def test_streams_in_first_use_order(self):
        graph = ScheduleGraph()
        graph.add(NodeKind.COMBINE, 1.0, COMM0)
        graph.add(NodeKind.GATE, 1.0, COMPUTE0)
        assert graph.streams() == (COMM0, COMPUTE0)


class TestListSchedule:
    def test_empty_graph(self):
        assert list_schedule(ScheduleGraph()).makespan_us == 0.0

    def test_chain_accumulates_in_order(self):
        graph = build_moe_chain(PHASES)
        schedule = list_schedule(graph)
        assert schedule.makespan_us == PHASE_SUM
        # Finishes are the left-associated running sums.
        running, expected = 0.0, []
        for phase in PHASES:
            running += phase.duration_us
            expected.append(running)
        assert list(schedule.finish_us) == expected

    def test_independent_streams_overlap(self):
        graph = ScheduleGraph()
        graph.add(NodeKind.EXPERT, 10.0, COMPUTE0)
        graph.add(NodeKind.COMBINE, 8.0, COMM0)
        assert list_schedule(graph).makespan_us == 10.0

    def test_lowest_id_wins_tie(self):
        graph = ScheduleGraph()
        first = graph.add(NodeKind.EXPERT, 5.0, COMPUTE0)
        second = graph.add(NodeKind.EXPERT, 1.0, COMPUTE0)
        schedule = list_schedule(graph)
        assert schedule.start_us[first] == 0.0
        assert schedule.start_us[second] == 5.0

    def test_dependency_gates_start(self):
        graph = ScheduleGraph()
        a = graph.add(NodeKind.EXPERT, 4.0, COMPUTE0)
        b = graph.add(NodeKind.COMBINE, 3.0, COMM0, deps=(a,))
        schedule = list_schedule(graph)
        assert schedule.start_us[b] == 4.0
        assert schedule.makespan_us == 7.0

    def test_cycle_detection(self):
        graph = ScheduleGraph()
        a = graph.add(NodeKind.EXPERT, 1.0, COMPUTE0)
        b = graph.add(NodeKind.EXPERT, 1.0, COMPUTE0, deps=(a,))
        graph.preds[a] = (b,)  # force a cycle behind the builder's back
        with pytest.raises(ValueError, match="cycle"):
            list_schedule(graph)

    def test_critical_path_spans_makespan(self):
        graph = build_forward_graph(PHASES, 12.0, 4, "cross_layer")
        schedule = list_schedule(graph)
        path = schedule.critical_path()
        assert path, "critical path must not be empty"
        assert schedule.start_us[path[0].id] == 0.0
        assert (
            schedule.start_us[path[-1].id] + path[-1].duration_us
            == schedule.makespan_us
        )
        # Consecutive path nodes are gap-free.
        for before, after in zip(path, path[1:]):
            assert (
                schedule.start_us[before.id] + before.duration_us
                == schedule.start_us[after.id]
            )

    def test_overlap_saved_accounting(self):
        graph = build_forward_graph(PHASES, 12.0, 4, "shortcut")
        schedule = list_schedule(graph)
        assert schedule.overlap_saved_us() == pytest.approx(
            graph.total_work_us - schedule.makespan_us
        )
        assert schedule.overlap_saved_us() > 0


class TestPolicies:
    def test_check_policy(self):
        for policy in OVERLAP_POLICIES:
            assert check_policy(policy) == policy
        with pytest.raises(ValueError, match="overlap_policy"):
            check_policy("pipelined")

    def test_per_layer_is_serial(self):
        graph = build_forward_graph(PHASES, 12.0, 6, "per_layer")
        schedule = list_schedule(graph)
        assert schedule.makespan_us == pytest.approx(6 * (12.0 + PHASE_SUM))
        assert schedule.overlap_saved_us() == pytest.approx(0.0, abs=1e-9)

    def test_policy_ordering(self):
        per = list_schedule(build_forward_graph(PHASES, 12.0, 8, "per_layer"))
        cross = list_schedule(build_forward_graph(PHASES, 12.0, 8, "cross_layer"))
        short = list_schedule(build_forward_graph(PHASES, 12.0, 8, "shortcut"))
        assert cross.makespan_us < per.makespan_us
        assert short.makespan_us <= cross.makespan_us

    def test_cross_layer_hides_combine_behind_attention(self):
        """Every layer's combine runs concurrently with its host epilogue
        (and, at boundaries, the next attention): the serial
        combine+host+attention tail collapses to max(combine, host +
        attention) per boundary, and the final layer keeps only
        max(combine, host)."""
        per = list_schedule(build_forward_graph(PHASES, 12.0, 4, "per_layer"))
        cross = list_schedule(build_forward_graph(PHASES, 12.0, 4, "cross_layer"))
        combine, host, attention = 9.0, 2.0, 12.0
        saved_boundary = combine + host + attention - max(
            combine, host + attention
        )
        saved_tail = combine + host - max(combine, host)
        assert per.makespan_us - cross.makespan_us == pytest.approx(
            3 * saved_boundary + saved_tail, rel=1e-12
        )

    def test_no_combine_degenerates_to_per_layer(self):
        phases = tuple(p for p in PHASES if p.kind is not NodeKind.COMBINE)
        per = list_schedule(build_forward_graph(phases, 12.0, 4, "per_layer"))
        cross = list_schedule(build_forward_graph(phases, 12.0, 4, "cross_layer"))
        assert per.makespan_us == cross.makespan_us

    def test_training_graph_has_step_tail(self):
        graph = build_training_graph(
            PHASES, PHASES, 12.0, 24.0, 4, 50.0, 30.0, "per_layer"
        )
        kinds = [node.kind for node in graph.nodes]
        assert kinds.count(NodeKind.GRAD_SYNC) == 1
        assert kinds.count(NodeKind.OPTIMIZER) == 1

    def test_training_bucketed_grad_sync(self):
        graph = build_training_graph(
            PHASES, PHASES, 12.0, 24.0, 4, 50.0, 30.0, "cross_layer"
        )
        chunks = [n for n in graph.nodes if n.kind is NodeKind.GRAD_SYNC]
        assert len(chunks) == 4
        assert sum(c.duration_us for c in chunks) == pytest.approx(50.0)
        assert all(c.stream == COMM0 for c in chunks)

    def test_invalid_num_layers(self):
        with pytest.raises(ValueError):
            build_forward_graph(PHASES, 12.0, 0, "per_layer")


class TestBuilderDurations:
    """Builder scalars pass the same finite, non-negative rule as node
    durations — also where a zero test would simply drop their nodes."""

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    @pytest.mark.parametrize("attention_us", [math.nan, math.inf, -1.0])
    def test_forward_attention(self, policy, attention_us):
        with pytest.raises(ValueError, match="attention_us"):
            forward_makespan(PHASES, attention_us, 4, policy)
        with pytest.raises(ValueError, match="attention_us"):
            build_forward_graph(PHASES, attention_us, 4, policy)

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    @pytest.mark.parametrize(
        "name, position",
        [
            ("attention_fwd_us", 2),
            ("attention_bwd_us", 3),
            ("grad_sync_us", 5),
            ("optimizer_us", 6),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_training_scalars(self, policy, name, position, value):
        args = [PHASES, PHASES, 12.0, 24.0, 4, 50.0, 30.0, policy]
        args[position] = value
        with pytest.raises(ValueError, match=name):
            training_makespan(*args)
        with pytest.raises(ValueError, match=name):
            build_training_graph(*args)

    def test_scaled_overflow_rejected(self):
        # Finite inputs whose per-rank scaling overflows.
        spec = StragglerSpec.slow_rank(2, rank=1, compute_mult=10.0)
        with pytest.raises(ValueError, match="attention_us"):
            build_forward_graph(PHASES, 1e308, 2, "cross_layer", spec)
        with pytest.raises(ValueError, match="finite"):
            build_forward_graph(
                (LayerPhase(NodeKind.EXPERT, 1e308),), 1.0, 2, "cross_layer",
                spec,
            )


class TestLowerLayer:
    WORKLOAD = make_workload(
        MIXTRAL_8X7B, h800_node(), ParallelStrategy(1, 8), 8192
    )

    @pytest.mark.parametrize("system_cls", ALL_SYSTEMS, ids=lambda c: c.slug)
    def test_chain_reproduces_layer_total_bitwise(self, system_cls):
        """A serial chain of the lowered phases is the layer wall clock."""
        system = system_cls()
        if not system.supports(self.WORKLOAD):
            pytest.skip("system does not support the workload")
        timing = system.time_layer(self.WORKLOAD)
        phases = system.lower_layer(timing)
        makespan = list_schedule(build_moe_chain(phases)).makespan_us
        assert makespan == timing.total_us  # exact, not approx

    def test_phase_kinds_and_streams(self):
        timing = MegatronCutlass().time_layer(self.WORKLOAD)
        phases = MegatronCutlass().lower_layer(timing)
        kinds = [p.kind for p in phases]
        assert kinds == [
            NodeKind.GATE,
            NodeKind.DISPATCH,
            NodeKind.EXPERT,
            NodeKind.ACTIVATION,
            NodeKind.EXPERT,
            NodeKind.COMBINE,
            NodeKind.HOST,
        ]
        assert [p.comm for p in phases] == [
            False, True, False, False, False, True, False,
        ]
        assert phases[1].duration_us == timing.exposed_layer0_comm_us
        assert phases[5].duration_us == timing.exposed_layer1_comm_us

    def test_comet_exposes_less_than_megatron(self):
        """COMET's lowered comm phases carry the exposed remainders, so
        cross-layer policies compound on intra-layer hiding."""
        comet = Comet().lower_layer(Comet().time_layer(self.WORKLOAD))
        megatron = MegatronCutlass().lower_layer(
            MegatronCutlass().time_layer(self.WORKLOAD)
        )
        comm = lambda phases: sum(p.duration_us for p in phases if p.comm)
        assert comm(comet) < comm(megatron)
