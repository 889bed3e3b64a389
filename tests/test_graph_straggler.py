"""Per-rank schedule graphs: straggler & skew modeling.

Acceptance contract:

* the **uniform** straggler spec (multiplier 1.0, balanced placement)
  lowers to per-rank graphs whose scheduled makespan is exactly ``==``
  the single-rank graph makespan for every system x policy on the
  seeded grid (every rank's chain performs the same float accumulations
  and the barrier maxima take maxima of bit-equal values);
* a 1.5x slow-rank preset strictly increases the makespan, and the slow
  rank appears on the reported critical path;
* the analytic list scheduler and the DES reference executor agree
  exactly on per-rank graphs (cross-rank barrier edges included);
* the axis threads through ``run_model`` / ``run_training_step`` /
  ``StepCostModel`` / the declarative grids without perturbing the
  straggler-free paths.
"""

import math

import pytest

from repro import (
    MIXTRAL_8X7B,
    ExperimentSpec,
    ParallelStrategy,
    Scenario,
    StepCostModel,
    StragglerSpec,
    h800_node,
    run_model,
    run_training_step,
)
from repro.api.registry import SYSTEM_REGISTRY
from repro.cli import main
from repro.graph import (
    OVERLAP_POLICIES,
    LayerPhase,
    NodeKind,
    build_forward_graph,
    build_training_graph,
    des_schedule,
    list_schedule,
    rank_makespans,
)
from repro.hw.multinode import IB_400G, h800_pod
from repro.hw.presets import NVLINK_H800
from repro.runtime import make_workload
from repro.serve import ServeScenario, ServeSpec, TraceSpec

POD = h800_pod(2).effective_cluster()
SYSTEMS = ("comet", "tutel", "fastermoe", "megatron-cutlass")

PHASES = (
    LayerPhase(NodeKind.GATE, 10.0),
    LayerPhase(NodeKind.DISPATCH, 25.0, comm=True),
    LayerPhase(NodeKind.EXPERT, 40.0),
    LayerPhase(NodeKind.ACTIVATION, 5.0),
    LayerPhase(NodeKind.EXPERT, 35.0),
    LayerPhase(NodeKind.COMBINE, 20.0, comm=True),
    LayerPhase(NodeKind.HOST, 3.0),
)


class TestStragglerSpec:
    def test_uniform(self):
        spec = StragglerSpec.uniform(4)
        assert spec.num_ranks == 4
        assert spec.is_uniform
        assert spec.label == "uniform"

    def test_slow_rank(self):
        spec = StragglerSpec.slow_rank(8, rank=3, compute_mult=1.5)
        assert not spec.is_uniform
        assert spec.compute_mult[3] == 1.5
        assert all(m == 1.0 for i, m in enumerate(spec.compute_mult) if i != 3)
        assert spec.rank_multipliers(3) == (1.5, 1.0, 1.0)
        assert "slow3" in spec.label

    def test_degraded_link(self):
        spec = StragglerSpec.degraded_link(8, 2, IB_400G, NVLINK_H800)
        assert spec.comm_mult[2] == NVLINK_H800.gbps / IB_400G.gbps
        assert spec.comm_mult[0] == 1.0
        with pytest.raises(ValueError):
            StragglerSpec.degraded_link(8, 2, NVLINK_H800, IB_400G)

    def test_skewed_placement_deterministic(self):
        a = StragglerSpec.skewed_placement(8, 64, seed=7)
        b = StragglerSpec.skewed_placement(8, 64, seed=7)
        assert a == b
        assert not a.is_uniform
        assert a != StragglerSpec.skewed_placement(8, 64, seed=8)
        # Load multipliers average ~1 (conserved work).
        mean = sum(a.expert_mult) / len(a.expert_mult)
        assert mean == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerSpec((1.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            StragglerSpec((1.0,), (1.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            StragglerSpec.slow_rank(4, rank=4)
        with pytest.raises(ValueError):
            StragglerSpec.uniform(0)

    def test_fingerprint_covers_bits(self):
        base = StragglerSpec.slow_rank(4, compute_mult=1.5)
        assert base.fingerprint() == StragglerSpec.slow_rank(
            4, compute_mult=1.5
        ).fingerprint()
        assert (
            base.fingerprint()
            != StragglerSpec.slow_rank(4, compute_mult=1.5000000001).fingerprint()
        )
        assert (
            base.fingerprint()
            != StragglerSpec.slow_rank(4, rank=1, compute_mult=1.5).fingerprint()
        )

    def test_scale_phases_uniform_is_identity(self):
        spec = StragglerSpec.uniform(2)
        assert spec.scale_phases(PHASES, 0) == PHASES
        assert spec.scale_phases(PHASES, 1) == PHASES


class TestHandBuiltGraphs:
    """IR-level contracts on the synthetic phase list."""

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_uniform_equals_single_rank_bitwise(self, policy):
        single = list_schedule(build_forward_graph(PHASES, 50.0, 6, policy))
        per_rank = list_schedule(
            build_forward_graph(
                PHASES, 50.0, 6, policy, StragglerSpec.uniform(4)
            )
        )
        assert per_rank.makespan_us == single.makespan_us
        assert per_rank.imbalance_us() == 0.0
        spans = per_rank.rank_makespans()
        assert set(spans) == {0, 1, 2, 3}
        assert all(span == single.makespan_us for span in spans.values())

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_slow_rank_strictly_slower_and_on_critical_path(self, policy):
        single = list_schedule(build_forward_graph(PHASES, 50.0, 6, policy))
        slow = StragglerSpec.slow_rank(4, rank=2, compute_mult=1.5)
        schedule = list_schedule(
            build_forward_graph(PHASES, 50.0, 6, policy, slow)
        )
        assert schedule.makespan_us > single.makespan_us
        assert any(n.stream.rank == 2 for n in schedule.critical_path())

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_des_agrees_exactly_on_per_rank_graphs(self, policy):
        for spec in (
            StragglerSpec.uniform(4),
            StragglerSpec.slow_rank(4, rank=1, compute_mult=1.7),
            StragglerSpec.degraded_link(4, 3, IB_400G, NVLINK_H800),
        ):
            graph = build_forward_graph(PHASES, 50.0, 4, policy, spec)
            analytic = list_schedule(graph)
            finish, makespan = des_schedule(graph)
            assert finish == analytic.finish_us
            assert makespan == analytic.makespan_us
            assert rank_makespans(graph, finish) == analytic.rank_makespans()

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_training_uniform_and_slow(self, policy):
        args = (PHASES, PHASES, 50.0, 100.0, 4, 80.0, 30.0, policy)
        single = list_schedule(build_training_graph(*args))
        uniform = list_schedule(
            build_training_graph(*args, StragglerSpec.uniform(4))
        )
        assert uniform.makespan_us == single.makespan_us
        slow = list_schedule(
            build_training_graph(
                *args, StragglerSpec.slow_rank(4, rank=0, compute_mult=1.5)
            )
        )
        assert slow.makespan_us > single.makespan_us
        finish, makespan = des_schedule(
            build_training_graph(
                *args, StragglerSpec.slow_rank(4, rank=0, compute_mult=1.5)
            )
        )
        assert finish == slow.finish_us and makespan == slow.makespan_us

    def test_comm_degradation_only(self):
        """A degraded link alone must also stretch the makespan."""
        spec = StragglerSpec.slow_rank(4, rank=1, compute_mult=1.0, comm_mult=3.0)
        assert not spec.is_uniform
        single = list_schedule(build_forward_graph(PHASES, 50.0, 4, "per_layer"))
        slow = list_schedule(
            build_forward_graph(PHASES, 50.0, 4, "per_layer", spec)
        )
        assert slow.makespan_us > single.makespan_us

    def test_rank0_zero_phase_does_not_drop_other_ranks(self):
        """Regression: active phase positions are the union across ranks.

        Rank 0's exposed comm can re-expose to exactly 0.0 (fully hidden,
        e.g. COMET on a balanced workload) while a degraded rank's stays
        positive; pruning by rank 0's zero pattern used to drop the
        degraded rank's collectives from the graph entirely, silently
        zeroing the straggler's effect.
        """
        zero_comm = (
            LayerPhase(NodeKind.GATE, 10.0),
            LayerPhase(NodeKind.DISPATCH, 0.0, comm=True),
            LayerPhase(NodeKind.EXPERT, 40.0),
            LayerPhase(NodeKind.COMBINE, 0.0, comm=True),
            LayerPhase(NodeKind.HOST, 3.0),
        )
        slow_comm = (
            LayerPhase(NodeKind.GATE, 10.0),
            LayerPhase(NodeKind.DISPATCH, 50.0, comm=True),
            LayerPhase(NodeKind.EXPERT, 40.0),
            LayerPhase(NodeKind.COMBINE, 30.0, comm=True),
            LayerPhase(NodeKind.HOST, 3.0),
        )
        for policy in OVERLAP_POLICIES:
            baseline = list_schedule(
                build_forward_graph([zero_comm, zero_comm], 20.0, 3, policy)
            )
            degraded = list_schedule(
                build_forward_graph([zero_comm, slow_comm], 20.0, 3, policy)
            )
            # Rank 1's comm must survive pruning and stretch the step.
            assert any(
                n.stream.rank == 1 and n.duration_us > 0.0 and n.stream.kind == "comm"
                for n in degraded.graph
            ), policy
            assert degraded.makespan_us > baseline.makespan_us, policy
            finish, makespan = des_schedule(degraded.graph)
            assert finish == degraded.finish_us

    def test_misaligned_rank_table_rejected(self):
        short = (LayerPhase(NodeKind.GATE, 10.0),)
        with pytest.raises(ValueError, match="misaligned"):
            build_forward_graph([PHASES, short], 20.0, 2, "per_layer")

    def test_distinct_fingerprints(self):
        """Per-rank graphs never collide with single-rank graphs (or with
        each other across specs) in the schedule cache."""
        flat = build_forward_graph(PHASES, 50.0, 2, "per_layer")
        uniform = build_forward_graph(
            PHASES, 50.0, 2, "per_layer", StragglerSpec.uniform(2)
        )
        slow = build_forward_graph(
            PHASES, 50.0, 2, "per_layer", StragglerSpec.slow_rank(2, compute_mult=1.5)
        )
        prints = {flat.fingerprint(), uniform.fingerprint(), slow.fingerprint()}
        assert len(prints) == 3
        assert flat.ranks() == (0,)
        assert uniform.ranks() == (0, 1)


# Seeded grid: systems x clusters x strategies (the acceptance sweep).
GRID = [
    (system, cluster, strategy, tokens)
    for system in SYSTEMS
    for cluster, strategy in (
        (h800_node(), ParallelStrategy(1, 8)),
        (POD, ParallelStrategy(2, 8)),
    )
    for tokens in (4096,)
]
GRID_IDS = [f"{s}-{c.name}-{st}-M{t}" for s, c, st, t in GRID]


class TestSystemGridAcceptance:
    """The acceptance criterion, per system x policy on the seeded grid."""

    @pytest.mark.parametrize(
        "system_name,cluster,strategy,tokens", GRID, ids=GRID_IDS
    )
    def test_uniform_bit_identity_and_slow_rank_monotonicity(
        self, system_name, cluster, strategy, tokens
    ):
        system = SYSTEM_REGISTRY.create(system_name)
        workload = make_workload(MIXTRAL_8X7B, cluster, strategy, tokens)
        if not system.supports(workload):
            pytest.skip("unsupported pair")
        timing = run_model(
            system, MIXTRAL_8X7B, cluster, strategy, tokens, workload=workload
        )
        uniform = StragglerSpec.uniform(strategy.world_size)
        slow = StragglerSpec.slow_rank(
            strategy.world_size, rank=0, compute_mult=1.5
        )
        phases = system.lower_layer(timing.moe)
        for policy in OVERLAP_POLICIES:
            single = list_schedule(
                build_forward_graph(
                    phases, timing.attention_us, timing.num_layers, policy
                )
            )
            per_rank = list_schedule(
                build_forward_graph(
                    system.lower_rank_phases(timing.moe, uniform),
                    timing.attention_us,
                    timing.num_layers,
                    policy,
                    uniform,
                )
            )
            # Uniform degenerate case: exact bit equality, per rank.
            assert per_rank.makespan_us == single.makespan_us
            assert per_rank.imbalance_us() == 0.0
            assert all(
                span == single.makespan_us
                for span in per_rank.rank_makespans().values()
            )
            # 1.5x slow rank: strictly slower, slow rank on the path.
            slowed = list_schedule(
                build_forward_graph(
                    system.lower_rank_phases(timing.moe, slow),
                    timing.attention_us,
                    timing.num_layers,
                    policy,
                    slow,
                )
            )
            assert slowed.makespan_us > single.makespan_us
            assert any(n.stream.rank == 0 for n in slowed.critical_path())


class TestRunnerThreading:
    CLUSTER = h800_node()
    STRATEGY = ParallelStrategy(1, 8)

    def test_run_model_uniform_is_legacy(self):
        system = SYSTEM_REGISTRY.create("comet")
        base = run_model(system, MIXTRAL_8X7B, self.CLUSTER, self.STRATEGY, 4096)
        uniform = run_model(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY, 4096, stragglers=StragglerSpec.uniform(8),
        )
        assert uniform.total_us == base.total_us
        assert uniform.graph_makespan_us is None
        assert uniform.stragglers is None
        assert uniform.rank_makespans_us is None
        assert uniform.imbalance_us == 0.0

    @pytest.mark.parametrize("policy", OVERLAP_POLICIES)
    def test_run_model_slow_rank(self, policy):
        slow_spec = StragglerSpec.slow_rank(8, compute_mult=1.5)
        base = run_model(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY, 4096, overlap_policy=policy,
        )
        slow = run_model(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY, 4096, overlap_policy=policy, stragglers=slow_spec,
        )
        assert slow.makespan_us > base.makespan_us
        assert slow.stragglers == slow_spec
        assert len(slow.rank_makespans_us) == 8
        assert slow.makespan_us == max(slow.rank_makespans_us)
        assert slow.rank_makespans() == dict(enumerate(slow.rank_makespans_us))
        # The additive (bottleneck-rank) view is untouched.
        assert slow.total_us == base.total_us

    def test_run_training_step_slow_rank(self):
        slow_spec = StragglerSpec.slow_rank(8, compute_mult=1.5)
        base = run_training_step(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY, 4096,
        )
        slow = run_training_step(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY, 4096, stragglers=slow_spec,
        )
        assert slow.makespan_us > base.step_us
        assert slow.step_us == base.step_us
        assert len(slow.rank_makespans_us) == 8

    def test_world_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="world size"):
            run_model(
                SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
                self.STRATEGY, 4096,
                stragglers=StragglerSpec.slow_rank(4, compute_mult=1.5),
            )

    def test_step_cost_model(self):
        base = StepCostModel(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY,
        )
        uniform = StepCostModel(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY, stragglers=StragglerSpec.uniform(8),
        )
        slow = StepCostModel(
            SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, self.CLUSTER,
            self.STRATEGY,
            stragglers=StragglerSpec.slow_rank(8, compute_mult=1.5),
        )
        for prefill, decode in ((512, 0), (2048, 128), (1, 1)):
            assert uniform.step_us(prefill, decode) == base.step_us(
                prefill, decode
            )
            assert slow.step_us(prefill, decode) > base.step_us(prefill, decode)


class TestDeclarativeAxis:
    def test_grid_axis_and_float_shorthand(self):
        spec = ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies=(1, 8), tokens=2048,
            stragglers=(1.0, 1.5), systems="comet",
        )
        assert len(spec.scenarios) == 2
        baseline, slowed = spec.scenarios
        assert baseline.stragglers is None  # 1.0 shorthand = no spec
        assert slowed.stragglers is not None
        assert slowed.stragglers.num_ranks == 8
        results = spec.run(level="model")
        assert len(results) == 2
        base_row, slow_row = results.rows
        assert slow_row.value_ms > base_row.value_ms

    def test_scenario_label_and_validation(self):
        slow = StragglerSpec.slow_rank(8, compute_mult=1.5)
        scenario = Scenario(
            config=MIXTRAL_8X7B, cluster=h800_node(),
            strategy=ParallelStrategy(1, 8), tokens=2048, stragglers=slow,
        )
        assert slow.label in scenario.label
        with pytest.raises(ValueError, match="ranks"):
            Scenario(
                config=MIXTRAL_8X7B, cluster=h800_node(),
                strategy=ParallelStrategy(1, 8), tokens=2048,
                stragglers=StragglerSpec.slow_rank(4, compute_mult=1.5),
            )

    def test_filter_by_stragglers(self):
        spec = ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies=(1, 8), tokens=2048,
            stragglers=(1.0, 1.5), systems="comet",
        )
        results = spec.run(level="model")
        assert len(results.filter(stragglers="uniform")) == 1
        label = spec.scenarios[1].stragglers.label
        assert len(results.filter(stragglers=label)) == 1
        # The label form and the spec form select the same baseline rows.
        by_spec = results.filter(stragglers=StragglerSpec.uniform(8))
        assert len(by_spec) == 1
        assert by_spec.rows == results.filter(stragglers="uniform").rows
        assert (
            len(results.filter(stragglers=spec.scenarios[1].stragglers)) == 1
        )
        # The float shorthand (the grid's own input form) works too.
        assert results.filter(stragglers=1.0).rows == by_spec.rows
        assert len(results.filter(stragglers=1.5)) == 1
        assert results.filter(stragglers=1.5).rows == results.filter(
            stragglers=spec.scenarios[1].stragglers
        ).rows
        assert len(results.filter(stragglers=2.0)) == 0

    def test_axis_is_canonical(self):
        """Every spelling of the baseline (None, 1.0, explicit uniform
        spec) normalises to None, so duplicate baseline grid points
        collapse in run() instead of exporting twice."""
        spec = ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies=(1, 8), tokens=2048,
            stragglers=(1.0, StragglerSpec.uniform(8), None, 1.5),
            systems="comet",
        )
        assert [s.stragglers for s in spec.scenarios[:3]] == [None] * 3
        results = spec.run(level="model")
        assert len(results) == 2  # one baseline row + one slow-rank row
        assert len(results.filter(stragglers="uniform")) == 1

    def test_layer_level_straggler_grid_raises(self):
        spec = ExperimentSpec.grid(
            models="mixtral", clusters="h800", strategies=(1, 8), tokens=2048,
            stragglers=1.5, systems="comet",
        )
        with pytest.raises(ValueError, match="level='model'"):
            spec.run()  # default level="layer"
        assert len(spec.run(level="model")) == 1

    def test_custom_lower_layer_system_stays_aligned(self):
        """A system overriding lower_layer with a different phase
        structure must still lower per-rank (generic scaling of its own
        phases, structurally aligned across ranks)."""
        class FivePhase(type(SYSTEM_REGISTRY.create("megatron-cutlass"))):
            name = "FivePhase"

            def lower_layer(self, timing):
                return (
                    LayerPhase(NodeKind.GATE, timing.gate_us),
                    LayerPhase(
                        NodeKind.DISPATCH,
                        timing.exposed_layer0_comm_us,
                        comm=True,
                    ),
                    LayerPhase(
                        NodeKind.EXPERT,
                        timing.layer0_comp_us
                        + timing.activation_us
                        + timing.layer1_comp_us,
                    ),
                    LayerPhase(
                        NodeKind.COMBINE,
                        timing.exposed_layer1_comm_us,
                        comm=True,
                    ),
                    LayerPhase(NodeKind.HOST, timing.host_us),
                )

        system = FivePhase()
        workload = make_workload(
            MIXTRAL_8X7B, h800_node(), ParallelStrategy(1, 8), 2048
        )
        timing = system.time_layer(workload)
        spec = StragglerSpec.slow_rank(8, rank=2, compute_mult=1.5)
        table = system.lower_rank_phases(timing, spec)
        assert len(table) == 8
        assert all(len(phases) == 5 for phases in table)
        shapes = {tuple((p.kind, p.comm) for p in phases) for phases in table}
        assert len(shapes) == 1  # structurally aligned across ranks
        # And the graph builders accept it end to end.
        schedule = list_schedule(
            build_forward_graph(table, 100.0, 3, "per_layer", spec)
        )
        baseline = list_schedule(
            build_forward_graph(system.lower_layer(timing), 100.0, 3, "per_layer")
        )
        assert schedule.makespan_us > baseline.makespan_us

    def test_serve_grid_axis(self):
        spec = ServeSpec.grid(
            models="mixtral", clusters="h800",
            traces=TraceSpec(kind="poisson", rps=10.0, duration_s=2.0),
            stragglers=(1.0, 1.5), systems="comet",
        )
        assert len(spec.scenarios) == 2
        assert spec.scenarios[0].stragglers is None
        assert spec.scenarios[1].stragglers.num_ranks == 8
        results = spec.run()
        assert len(results) == 2
        base, slow = results.reports
        assert slow.scenario_label != base.scenario_label
        # The slow rank paces every step: strictly worse tail latency.
        assert slow.e2e_percentiles()["p99"] > base.e2e_percentiles()["p99"]

    def test_serve_scenario_validation(self):
        with pytest.raises(ValueError, match="ranks"):
            ServeScenario(
                config=MIXTRAL_8X7B, cluster=h800_node(),
                strategy=ParallelStrategy(1, 8),
                stragglers=StragglerSpec.slow_rank(4, compute_mult=1.5),
            )


class TestNonFiniteMultipliers:
    """Multipliers are finite and positive wherever they are given: an
    infinite one used to reach exports as ``Infinity`` and ``NaN``."""

    @pytest.mark.parametrize("mult", [math.inf, math.nan, 0.0, -1.5])
    def test_spec_rejects(self, mult):
        with pytest.raises(ValueError, match="finite and positive"):
            StragglerSpec(
                compute_mult=(1.0, mult),
                comm_mult=(1.0, 1.0),
                expert_mult=(1.0, 1.0),
            )
        with pytest.raises(ValueError, match="finite and positive"):
            StragglerSpec.slow_rank(4, rank=1, compute_mult=mult)

    def test_compose_overflow_rejected(self):
        huge = StragglerSpec.slow_rank(4, rank=0, compute_mult=1e200)
        with pytest.raises(ValueError, match="finite and positive"):
            huge.compose(huge)

    def test_grid_axis_rejects_infinity(self):
        with pytest.raises(ValueError, match="finite and positive"):
            ExperimentSpec.grid(
                strategies=(1, 8), tokens=2048, stragglers=(math.inf,)
            )

    def test_cli_rejects_infinity(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        sweep = [
            "sweep", "--models", "mixtral", "--tokens", "2048", "--tp", "1",
            "--ep", "8", "--systems", "comet", "--straggler-mult", "inf",
            "--json", str(out),
        ]
        assert main(sweep) == 2
        assert not out.exists()
        assert "finite and positive" in capsys.readouterr().err
        model = [
            "model", "--tokens", "2048", "--systems", "comet",
            "--stragglers", "inf",
        ]
        assert main(model) == 2
        assert "finite and positive" in capsys.readouterr().err
