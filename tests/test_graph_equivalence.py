"""Equivalence and monotonicity of the whole-model schedule graph.

The acceptance contract of the graph IR:

* ``overlap_policy="per_layer"`` reproduces the legacy additive totals
  of ``run_model``, ``run_training_step``, and ``StepCostModel.step_us``
  **bit for bit** (``==`` on floats, never ``approx``), across a seeded
  grid of systems x clusters x strategies;
* ``cross_layer`` / ``shortcut`` makespans are strictly lower on
  comm-bound multinode presets;
* the composed per-layer makespan agrees with scheduling the fully
  unrolled flat graph to float associativity;
* the overlap-policy axis flows through the declarative API, serving,
  and the caches without perturbing byte-identical exports.
"""

import pytest

from repro import (
    MIXTRAL_8X7B,
    QWEN2_MOE,
    ExperimentSpec,
    ParallelStrategy,
    Scenario,
    StepCostModel,
    h800_node,
    perf,
    run_model,
    run_training_step,
)
from repro.api.registry import SYSTEM_REGISTRY
from repro.graph import (
    OVERLAP_POLICIES,
    build_forward_graph,
    forward_makespan,
    list_schedule,
    training_makespan,
)
from repro.hw.multinode import h800_pod
from repro.oracles import reference_paths
from repro.runtime import make_workload
from repro.serve import ServeScenario, ServeSpec, TraceSpec
from repro.systems.base import UnsupportedWorkload

POD = h800_pod(2).effective_cluster()

# Seeded grid: systems x clusters x strategies (the property sweep).
GRID = [
    (system, cluster, strategy, tokens, std, seed)
    for system in ("comet", "tutel", "fastermoe", "megatron-cutlass")
    for cluster, strategy in (
        (h800_node(), ParallelStrategy(1, 8)),
        (h800_node(), ParallelStrategy(2, 4)),
        (POD, ParallelStrategy(2, 8)),
    )
    for tokens, std, seed in ((4096, 0.0, 0), (8192, 0.032, 3))
]
GRID_IDS = [
    f"{s}-{c.name}-{st}-M{t}-std{std}-seed{seed}"
    for s, c, st, t, std, seed in GRID
]


def _workload(cluster, strategy, tokens, std, seed):
    return make_workload(MIXTRAL_8X7B, cluster, strategy, tokens, std, seed)


class TestPerLayerBitwiseEquivalence:
    """The per_layer graph makespan IS the legacy additive total."""

    @pytest.mark.parametrize(
        "system_name,cluster,strategy,tokens,std,seed", GRID, ids=GRID_IDS
    )
    def test_run_model(self, system_name, cluster, strategy, tokens, std, seed):
        system = SYSTEM_REGISTRY.create(system_name)
        workload = _workload(cluster, strategy, tokens, std, seed)
        if not system.supports(workload):
            pytest.skip("unsupported pair")
        legacy = run_model(
            system, MIXTRAL_8X7B, cluster, strategy, tokens,
            imbalance_std=std, seed=seed, workload=workload,
        )
        explicit = run_model(
            SYSTEM_REGISTRY.create(system_name), MIXTRAL_8X7B, cluster,
            strategy, tokens, imbalance_std=std, seed=seed, workload=workload,
            overlap_policy="per_layer",
        )
        # The timing record is unchanged by the refactor...
        assert explicit.total_us == legacy.total_us
        assert explicit.layer_us == legacy.layer_us
        assert explicit.moe_fraction == legacy.moe_fraction
        assert explicit.makespan_us == legacy.total_us
        # ...and the graph composition reproduces it bit for bit.
        phases = system.lower_layer(legacy.moe)
        makespan = forward_makespan(
            phases, legacy.attention_us, legacy.num_layers, "per_layer"
        )
        assert makespan == legacy.total_us

    @pytest.mark.parametrize(
        "system_name,cluster,strategy,tokens,std,seed", GRID, ids=GRID_IDS
    )
    def test_run_training_step(
        self, system_name, cluster, strategy, tokens, std, seed
    ):
        system = SYSTEM_REGISTRY.create(system_name)
        workload = _workload(cluster, strategy, tokens, std, seed)
        if not system.supports(workload):
            pytest.skip("unsupported pair")
        legacy = run_training_step(
            system, MIXTRAL_8X7B, cluster, strategy, tokens,
            imbalance_std=std, seed=seed, workload=workload,
        )
        explicit = run_training_step(
            SYSTEM_REGISTRY.create(system_name), MIXTRAL_8X7B, cluster,
            strategy, tokens, imbalance_std=std, seed=seed, workload=workload,
            overlap_policy="per_layer",
        )
        assert explicit.step_us == legacy.step_us
        assert explicit.layer_us == legacy.layer_us
        assert explicit.moe_fraction == legacy.moe_fraction
        assert explicit.makespan_us == legacy.step_us
        makespan = training_makespan(
            system.lower_layer(legacy.moe_fwd),
            system.backward_variant().lower_layer(legacy.moe_bwd),
            legacy.attention_fwd_us,
            legacy.attention_bwd_us,
            legacy.num_layers,
            legacy.grad_sync_us,
            legacy.optimizer_us,
            "per_layer",
        )
        assert makespan == legacy.step_us

    def test_step_cost_model(self):
        kwargs = dict(
            config=MIXTRAL_8X7B, cluster=POD, strategy=ParallelStrategy(2, 8)
        )
        legacy = StepCostModel(SYSTEM_REGISTRY.create("comet"), **kwargs)
        explicit = StepCostModel(
            SYSTEM_REGISTRY.create("comet"), overlap_policy="per_layer", **kwargs
        )
        for prefill, decode in ((512, 0), (2048, 128), (1, 1), (16384, 512)):
            assert explicit.step_us(prefill, decode) == legacy.step_us(
                prefill, decode
            )

    def test_flat_graph_agrees_with_composition(self):
        """Unrolling all layers and scheduling the flat chain matches the
        exact composition to float associativity."""
        system = SYSTEM_REGISTRY.create("megatron-cutlass")
        workload = _workload(h800_node(), ParallelStrategy(1, 8), 4096, 0.0, 0)
        timing = run_model(
            system, MIXTRAL_8X7B, h800_node(), ParallelStrategy(1, 8), 4096,
            workload=workload,
        )
        phases = system.lower_layer(timing.moe)
        composed = forward_makespan(
            phases, timing.attention_us, timing.num_layers, "per_layer"
        )
        flat = list_schedule(
            build_forward_graph(
                phases, timing.attention_us, timing.num_layers, "per_layer"
            )
        ).makespan_us
        assert flat == pytest.approx(composed, rel=1e-12)


class TestCrossLayerStrictlyLower:
    """Comm-bound multinode presets must benefit from both policies."""

    STRATEGY = ParallelStrategy(2, 8)

    @pytest.mark.parametrize(
        "system_name", ("comet", "tutel", "megatron-cutlass", "megatron-te")
    )
    def test_forward(self, system_name):
        def timing(policy):
            return run_model(
                SYSTEM_REGISTRY.create(system_name), MIXTRAL_8X7B, POD,
                self.STRATEGY, 16384, overlap_policy=policy,
            )

        per = timing("per_layer")
        cross = timing("cross_layer")
        short = timing("shortcut")
        assert cross.makespan_us < per.makespan_us
        assert short.makespan_us < per.makespan_us
        assert short.makespan_us <= cross.makespan_us * (1 + 1e-12)
        # The additive view is unchanged; only the makespan moves.
        assert cross.total_us == per.total_us
        assert cross.overlap_speedup > 1.0

    @pytest.mark.parametrize("system_name", ("comet", "megatron-cutlass"))
    def test_training(self, system_name):
        def timing(policy):
            return run_training_step(
                SYSTEM_REGISTRY.create(system_name), MIXTRAL_8X7B, POD,
                self.STRATEGY, 16384, overlap_policy=policy,
            )

        per = timing("per_layer")
        cross = timing("cross_layer")
        assert cross.makespan_us < per.makespan_us
        assert cross.step_us == per.step_us

    def test_serving_step_cost(self):
        kwargs = dict(
            config=MIXTRAL_8X7B, cluster=POD, strategy=self.STRATEGY
        )
        per = StepCostModel(SYSTEM_REGISTRY.create("tutel"), **kwargs)
        cross = StepCostModel(
            SYSTEM_REGISTRY.create("tutel"), overlap_policy="cross_layer",
            **kwargs,
        )
        assert cross.step_us(4096, 256) < per.step_us(4096, 256)

    def test_unsupported_pairs_still_raise(self):
        with pytest.raises(UnsupportedWorkload):
            run_model(
                SYSTEM_REGISTRY.create("fastermoe"), MIXTRAL_8X7B, POD,
                self.STRATEGY, 16384, overlap_policy="cross_layer",
            )

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="overlap_policy"):
            run_model(
                SYSTEM_REGISTRY.create("comet"), MIXTRAL_8X7B, h800_node(),
                ParallelStrategy(1, 8), 4096, overlap_policy="pipelined",
            )


class TestDeclarativeAxis:
    """The overlap-policy axis through ExperimentSpec / ServeSpec."""

    def test_grid_expands_policy_axis(self):
        spec = ExperimentSpec.grid(
            models=MIXTRAL_8X7B, clusters=h800_node(), strategies=(1, 8),
            tokens=2048, overlap_policies=OVERLAP_POLICIES,
            systems=("comet", "megatron-cutlass"),
        )
        assert len(spec.scenarios) == 3
        results = spec.run(level="model")
        assert len(results) == 6
        per = results.filter(overlap_policy="per_layer", system="comet").rows[0]
        cross = results.filter(
            overlap_policy="cross_layer", system="comet"
        ).rows[0]
        assert cross.value_ms < per.value_ms
        # One workload object feeds every policy of the grid point.
        assert per.workload is cross.workload
        headers, rows = results.to_rows()
        assert "policy" in headers
        assert "cross_layer" in results.to_json()

    def test_legacy_exports_unchanged_without_axis(self):
        spec = ExperimentSpec.grid(
            models=MIXTRAL_8X7B, clusters=h800_node(), strategies=(1, 8),
            tokens=2048, systems="comet",
        )
        headers, _ = spec.run(level="model").to_rows()
        assert "policy" not in headers

    def test_parallel_run_byte_identical(self):
        spec = ExperimentSpec.grid(
            models=MIXTRAL_8X7B, clusters=h800_node(), strategies="sweep",
            tokens=2048, overlap_policies=("per_layer", "shortcut"),
            systems=("comet", "tutel"),
        )
        perf.clear_caches()
        serial = spec.run(level="model")
        warm = spec.run(level="model", workers=4)
        assert serial.to_json() == warm.to_json()
        assert perf.GRAPH_CACHE.hits > 0

    def test_scenario_label_carries_policy(self):
        scenario = Scenario(
            config=MIXTRAL_8X7B, cluster=h800_node(),
            strategy=ParallelStrategy(1, 8), tokens=2048,
            overlap_policy="shortcut",
        )
        assert scenario.label.endswith("/shortcut")

    def test_serve_spec_policy_axis(self):
        trace = TraceSpec(kind="poisson", rps=12.0, duration_s=2.0, seed=0)
        spec = ServeSpec.grid(
            models=MIXTRAL_8X7B, clusters=POD,
            strategies=ParallelStrategy(2, 8), traces=trace,
            overlap_policies=("per_layer", "cross_layer"), systems="tutel",
        )
        assert len(spec.scenarios) == 2
        reports = list(spec.run())
        assert len(reports) == 2
        per, cross = reports
        # Cheaper iterations can only improve time to first token.
        assert (
            cross.ttft_percentiles()["p50"] <= per.ttft_percentiles()["p50"]
        )

    def test_serve_scenario_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="overlap_policy"):
            ServeScenario(
                config=MIXTRAL_8X7B, cluster=h800_node(),
                strategy=ParallelStrategy(1, 8), overlap_policy="nope",
            )


class TestGraphCache:
    def test_cached_schedule_is_identical_object_level(self):
        system = SYSTEM_REGISTRY.create("comet")
        workload = _workload(POD, ParallelStrategy(2, 8), 4096, 0.0, 0)
        timing = system.time_layer(workload)
        phases = system.lower_layer(timing)
        perf.clear_caches()
        first = forward_makespan(phases, 100.0, 16, "cross_layer")
        hits_before = perf.GRAPH_CACHE.hits
        second = forward_makespan(phases, 100.0, 16, "cross_layer")
        assert second == first
        assert perf.GRAPH_CACHE.hits == hits_before + 1

    def test_reference_paths_bypass_graph_cache(self):
        system = SYSTEM_REGISTRY.create("comet")
        workload = _workload(POD, ParallelStrategy(2, 8), 4096, 0.0, 0)
        phases = system.lower_layer(system.time_layer(workload))
        perf.clear_caches()
        with reference_paths():
            reference = forward_makespan(phases, 100.0, 16, "shortcut")
            assert len(perf.GRAPH_CACHE) == 0
        assert forward_makespan(phases, 100.0, 16, "shortcut") == reference

    def test_other_model_config_distinct(self):
        """Different layer counts produce different fingerprints."""
        system = SYSTEM_REGISTRY.create("comet")
        workload = _workload(h800_node(), ParallelStrategy(1, 8), 2048, 0.0, 0)
        phases = system.lower_layer(system.time_layer(workload))
        a = forward_makespan(phases, 50.0, MIXTRAL_8X7B.num_layers, "shortcut")
        b = forward_makespan(phases, 50.0, QWEN2_MOE.num_layers, "shortcut")
        assert a != b
