"""Tests for the declarative experiment API (repro.api)."""

import json

import pytest

from repro import (
    MIXTRAL_8X7B,
    Comet,
    ExperimentSpec,
    MegatronCutlass,
    ParallelStrategy,
    ResultSet,
    Scenario,
    SystemRegistry,
    UnknownNameError,
    h800_node,
    register_system,
)
from repro.api import CLUSTER_REGISTRY, MODEL_REGISTRY, SYSTEM_REGISTRY
from repro.api.scenario import default_system_names
from repro.fleet.router import ROUTER_REGISTRY
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.serve.scheduler import POLICY_REGISTRY
from repro.serve.traffic import TRACE_REGISTRY
from repro.systems import ALL_SYSTEMS
from repro.systems.base import MoESystem


def small_scenario(tp=1, ep=8, tokens=2048, **kwargs):
    return Scenario(
        config=MIXTRAL_8X7B,
        cluster=h800_node(),
        strategy=ParallelStrategy(tp_size=tp, ep_size=ep),
        tokens=tokens,
        **kwargs,
    )


class TestSystemRegistry:
    def test_builtins_registered(self):
        for name in ("comet", "tutel", "fastermoe", "megatron-te", "megatron-cutlass"):
            assert name in SYSTEM_REGISTRY

    def test_create_returns_fresh_instances(self):
        a = SYSTEM_REGISTRY.create("comet")
        b = SYSTEM_REGISTRY.create("comet")
        assert isinstance(a, Comet)
        assert a is not b

    def test_create_forwards_kwargs(self):
        system = SYSTEM_REGISTRY.create("comet", fixed_nc=8)
        assert system.fixed_nc == 8

    def test_lookup_is_case_insensitive_and_alias_aware(self):
        assert SYSTEM_REGISTRY.resolve("Comet") == "comet"
        assert SYSTEM_REGISTRY.resolve("Megatron-TE") == "megatron-te"

    def test_unknown_name_lists_valid_names(self):
        with pytest.raises(UnknownNameError) as err:
            SYSTEM_REGISTRY.get("not-a-system")
        message = str(err.value)
        assert "not-a-system" in message
        for name in SYSTEM_REGISTRY.names():
            assert name in message

    def test_register_system_decorator(self):
        registry = SystemRegistry()

        @register_system("custom", registry=registry)
        class CustomSystem(MegatronCutlass):
            name = "Custom-System"

        assert CustomSystem.slug == "custom"
        assert registry.resolve("Custom-System") == "custom"
        assert isinstance(registry.create("custom"), CustomSystem)

    def test_duplicate_registration_rejected(self):
        registry = SystemRegistry()
        registry.register("x", Comet)
        with pytest.raises(ValueError):
            registry.register("X", Comet)

    def test_alias_shadowing_registered_name_rejected(self):
        registry = SystemRegistry()
        registry.register("comet", Comet)
        with pytest.raises(ValueError):
            # A plugin whose display name collides with an existing slug
            # must fail loudly instead of silently losing the alias.
            registry.register("my-comet", MegatronCutlass, aliases=("Comet",))

    def test_slug_set_on_builtin_classes(self):
        assert Comet.slug == "comet"
        assert default_system_names() == tuple(cls.slug for cls in ALL_SYSTEMS)

    def test_model_and_cluster_registries(self):
        assert MODEL_REGISTRY.get("mixtral") is MIXTRAL_8X7B
        assert MODEL_REGISTRY.get("Mixtral-8x7B") is MIXTRAL_8X7B
        assert CLUSTER_REGISTRY.get("h800")().world_size == 8


class TestRegisteredEntriesConstruct:
    """Every registered name builds the way its first use builds it, so a
    CLI choice or grid name never fails on first use."""

    @pytest.mark.parametrize("name", SYSTEM_REGISTRY.names())
    def test_every_system_creates(self, name):
        assert isinstance(SYSTEM_REGISTRY.create(name), MoESystem)

    @pytest.mark.parametrize("name", MODEL_REGISTRY.names())
    def test_every_model_is_a_config(self, name):
        assert isinstance(MODEL_REGISTRY.get(name), MoEConfig)

    @pytest.mark.parametrize("name", CLUSTER_REGISTRY.names())
    def test_every_cluster_factory_builds(self, name):
        assert isinstance(CLUSTER_REGISTRY.get(name)(), ClusterSpec)
        assert CLUSTER_REGISTRY.get(name)(4).world_size == 4

    @pytest.mark.parametrize("name", ROUTER_REGISTRY.names())
    def test_every_router_constructs(self, name):
        ROUTER_REGISTRY.get(name)(2)

    @pytest.mark.parametrize(
        "registry", (POLICY_REGISTRY, TRACE_REGISTRY), ids=lambda r: r.kind
    )
    def test_every_policy_and_trace_entry_is_callable(self, registry):
        for name in registry.names():
            assert callable(registry.get(name)), name


class TestScenario:
    def test_validates_world_size(self):
        with pytest.raises(ValueError):
            small_scenario(tp=1, ep=4)

    def test_validates_token_divisibility(self):
        with pytest.raises(ValueError):
            small_scenario(tokens=2047)

    def test_hashable_and_equal(self):
        assert small_scenario() == small_scenario()
        assert hash(small_scenario()) == hash(small_scenario())
        assert small_scenario(seed=1) != small_scenario(seed=2)

    def test_label_includes_optional_axes(self):
        label = small_scenario(imbalance_std=0.03, seed=5).label
        assert "std0.03" in label and "seed5" in label
        assert "std" not in small_scenario().label

    def test_build_workload_matches_scenario(self):
        scenario = small_scenario(imbalance_std=0.02, seed=3)
        workload = scenario.build_workload()
        assert workload.total_tokens == scenario.tokens
        assert workload.strategy == scenario.strategy


class TestGridExpansion:
    def test_cartesian_count(self):
        spec = ExperimentSpec.grid(
            models=("mixtral", "phi3.5"),
            strategies=((1, 8), (2, 4)),
            tokens=(2048, 4096),
            seeds=(0, 1),
        )
        assert len(spec.scenarios) == 2 * 2 * 2 * 2

    def test_sweep_strategies_factorise_world(self):
        spec = ExperimentSpec.grid(strategies="sweep", tokens=2048)
        strategies = {(s.strategy.tp_size, s.strategy.ep_size) for s in spec.scenarios}
        assert strategies == {(1, 8), (2, 4), (4, 2), (8, 1)}

    def test_scalars_accepted_on_every_axis(self):
        spec = ExperimentSpec.grid(
            models=MIXTRAL_8X7B, clusters=h800_node(), strategies=(1, 8),
            tokens=2048, imbalance_stds=0.01, seeds=3,
        )
        assert len(spec.scenarios) == 1
        scenario = spec.scenarios[0]
        assert scenario.imbalance_std == 0.01 and scenario.seed == 3

    def test_expansion_order_models_outer_tokens_inner(self):
        spec = ExperimentSpec.grid(
            models=("mixtral", "phi3.5"), strategies=(1, 8), tokens=(2048, 4096)
        )
        keys = [(s.config.name, s.tokens) for s in spec.scenarios]
        assert keys == [
            ("Mixtral-8x7B", 2048),
            ("Mixtral-8x7B", 4096),
            ("Phi-3.5-MoE", 2048),
            ("Phi-3.5-MoE", 4096),
        ]

    def test_unknown_system_rejected_at_grid_time(self):
        with pytest.raises(UnknownNameError):
            ExperimentSpec.grid(systems="warp-drive")

    def test_default_systems_in_paper_order(self):
        spec = ExperimentSpec.grid(tokens=2048, strategies=(1, 8))
        assert spec.system_names() == default_system_names()


class TestRun:
    @pytest.fixture(scope="class")
    def results(self):
        spec = ExperimentSpec.grid(
            models="mixtral", strategies=((1, 8), (2, 4)), tokens=2048
        )
        return spec.run()

    def test_workload_shared_across_systems(self, results):
        for scenario in results.scenarios():
            rows = results.rows_for(scenario)
            assert len(rows) >= 2
            first = rows[0].workload
            assert first is not None
            assert all(row.workload is first for row in rows)

    def test_duplicate_scenarios_collapse_to_one_run(self):
        scenario = small_scenario()
        spec = ExperimentSpec(
            scenarios=(scenario, scenario), systems=("comet", "comet")
        )
        assert len(list(spec.workloads())) == 1
        results = spec.run()
        assert len(results.rows) == 1
        assert len(results.scenarios()) == 1

    def test_matches_direct_execution(self, results):
        scenario = small_scenario()
        direct = MegatronCutlass().time_layer(scenario.build_workload())
        row = results.get(scenario, "Megatron-Cutlass")
        assert row.timing.total_us == pytest.approx(direct.total_us)

    def test_skip_reasons_recorded(self, results):
        assert "FasterMoE" in {s.system for s in results.skips}
        (reason,) = [
            s.reason for s in results.skips
            if s.scenario.strategy.tp_size == 2 and s.system == "FasterMoE"
        ]
        assert "TP2xEP4" in reason
        assert any("FasterMoE" in key for key in results.skipped)

    def test_on_skip_callback(self):
        seen = []
        spec = ExperimentSpec(
            scenarios=(small_scenario(tp=2, ep=4),), systems=("fastermoe",)
        )
        results = spec.run(on_skip=seen.append)
        assert len(results.rows) == 0
        assert len(seen) == 1 and seen[0].system == "FasterMoE"

    def test_model_level_fills_model_timing(self):
        spec = ExperimentSpec(
            scenarios=(small_scenario(),), systems=("comet",)
        )
        results = spec.run(level="model")
        row = results.rows[0]
        assert row.model_timing is not None
        assert row.model_timing.total_ms == pytest.approx(row.value_ms)
        assert row.model_timing.moe.total_us == pytest.approx(row.timing.total_us)

    def test_invalid_level_rejected(self):
        spec = ExperimentSpec(scenarios=(small_scenario(),))
        with pytest.raises(ValueError):
            spec.run(level="galaxy")


class TestResultSet:
    @pytest.fixture(scope="class")
    def results(self):
        spec = ExperimentSpec.grid(
            models="mixtral", strategies="sweep", tokens=(2048, 4096)
        )
        return spec.run()

    def test_filter_by_tokens_and_system(self, results):
        narrowed = results.filter(tokens=2048, system="comet")
        assert narrowed.rows
        assert all(
            r.scenario.tokens == 2048 and r.system == "Comet" for r in narrowed
        )

    def test_filter_by_strategy_string(self, results):
        narrowed = results.filter(strategy="TP1xEP8")
        assert narrowed.rows
        assert all(r.scenario.strategy.ep_size == 8 for r in narrowed)

    def test_filter_narrows_skips_and_grid(self, results):
        narrowed = results.filter(tp=1)
        assert all(s.scenario.strategy.tp_size == 1 for s in narrowed.skips)
        assert all(s.strategy.tp_size == 1 for s in narrowed.scenarios())

    def test_best_is_global_minimum(self, results):
        best = results.best()
        assert best.layer_ms == min(r.layer_ms for r in results)

    def test_speedup_over_baseline(self, results):
        speedups = results.speedup_over("Megatron-Cutlass", system="Comet")
        assert len(speedups) == len(results.scenarios())
        assert all(value > 1.0 for value in speedups.values())
        mean = results.mean_speedup_over("Megatron-Cutlass")
        assert mean == pytest.approx(
            sum(speedups.values()) / len(speedups)
        )

    def test_speedup_skips_missing_pairs(self, results):
        # FasterMoE never runs under TP > 1, so those scenarios drop out.
        speedups = results.speedup_over("FasterMoE")
        assert len(speedups) == len(
            [s for s in results.scenarios() if s.strategy.tp_size == 1]
        )

    def test_scenarios_preserve_grid_order(self, results):
        tokens = [s.tokens for s in results.scenarios() if s.strategy.tp_size == 1]
        assert tokens == [2048, 4096]

    def test_to_rows_flat(self, results):
        headers, rows = results.to_rows()
        assert headers[0] == "model" and headers[-1] == "ms"
        assert len(rows) == len(results.rows)

    def test_to_table_pivots_and_marks_skips(self, results):
        headers, rows = results.to_table()
        assert headers.index("FasterMoE") >= 5
        tp2_row = rows[[str(s.strategy) for s in results.scenarios()].index("TP2xEP4")]
        fastermoe_cell = tp2_row[headers.index("FasterMoE")]
        assert fastermoe_cell != fastermoe_cell  # nan marks the skipped bar

    def test_to_json_roundtrip(self, results):
        doc = json.loads(results.to_json())
        assert len(doc["rows"]) == len(results.rows)
        assert len(doc["skipped"]) == len(results.skips)
        first = doc["rows"][0]
        assert first["model"] == "Mixtral-8x7B"
        assert first["timing_us"]["system"] == first["system"]

    def test_empty_resultset(self):
        empty = ResultSet(rows=())
        assert not empty
        with pytest.raises(ValueError):
            empty.best()
