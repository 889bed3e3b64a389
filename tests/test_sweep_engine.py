"""The sweep engine behind ExperimentSpec, ServeSpec and FleetSpec.

Every ``grid()`` expands through one axis fold
(:func:`repro.api.scenario.expand`) and every ``run()`` goes through one
task runner (:func:`repro.api.scenario.run_tasks`).  These tests pin the
expansion order of each spec kind, check that serial, thread and process
runs export the same bytes, and cover the checks the engine applies to
grid axes and grid points.
"""

import math

import pytest

from repro import (
    AutoscalerSpec,
    DegradeEvent,
    ExperimentSpec,
    FailureEvent,
    FaultPlan,
    FleetSpec,
    MigrationSpec,
    ResilienceSpec,
    Scenario,
    ServeSpec,
    TraceSpec,
)
from repro.api.registry import SystemRegistry
from repro.api.scenario import expand
from repro.fleet.spec import FleetScenario, ReplicaSpec
from repro.hw import h800_node, h800_pod
from repro.moe.config import MIXTRAL_8X7B
from repro.obs import capture
from repro.parallel.strategy import ParallelStrategy
from repro.serve.scenario import ServeScenario

# Short requests keep every grid point cheap to serve.
SMALL = dict(
    rps=8, duration_s=1, prompt_mean=96, max_prompt=256,
    output_mean=4, max_output=8,
)
TRACES = (
    TraceSpec(kind="poisson", seed=0, **SMALL),
    TraceSpec(kind="bursty", seed=1, **SMALL),
)
SHAPE = dict(
    models=("mixtral", "phi3.5"), clusters=("h800", "l20"),
    strategies=((1, 8), (2, 4)), stragglers=(None, 1.5),
)
# FasterMoE cannot run TP > 1, so it skips half the points of a grid.
SYSTEMS = ("tutel", "fastermoe")


def grid_experiment():
    return ExperimentSpec.grid(
        **SHAPE, tokens=(1024, 2048), imbalance_stds=(0.0, 0.1),
        seeds=(0, 1), overlap_policies=("per_layer", "cross_layer"),
        systems=SYSTEMS,
    )


def grid_serve():
    return ServeSpec.grid(
        **SHAPE, traces=TRACES, policies=("fcfs", "spf"),
        slo_ttft_ms=(300.0, 500.0), slo_tpot_ms=(50.0, 75.0),
        max_batch_tokens=(4096, 8192),
        overlap_policies=("per_layer", "cross_layer"), systems="tutel",
    )


def grid_fleet_disaggregated():
    return FleetSpec.grid(
        **SHAPE, replicas=("1p+1d", "2p+1d"), traces=TRACES,
        policies=("fcfs", "spf"), migrations=(None, MigrationSpec()),
        router_seed=3, systems=SYSTEMS,
    )


def grid_fleet_autoscaled():
    return FleetSpec.grid(
        replicas=2, traces=TRACES[0], policies=("fcfs", "spf"),
        routers=("round_robin", "least_queue"),
        autoscalers=(
            None, AutoscalerSpec(min_replicas=1, interval_ms=200.0, warmup_ms=100.0),
        ),
        failures=(None, FailureEvent(replica=1, fail_ms=200.0, recover_ms=600.0)),
        slo_ttft_ms=(300.0, 500.0), router_seed=3, systems="tutel",
    )


def grid_fleet_faults():
    return FleetSpec.grid(
        replicas=2, traces=TRACES[0], slo_ttft_ms=(300.0, 500.0),
        slo_tpot_ms=(50.0, 75.0), max_batch_tokens=(4096, 8192),
        overlap_policies=("per_layer", "cross_layer"),
        faults=(
            None,
            FaultPlan(degrades=(
                DegradeEvent(replica=0, t0_ms=100.0, t1_ms=500.0, compute_mult=2.0),
            )),
        ),
        resilience=(None, ResilienceSpec(timeout_ms=4000.0, max_retries=1)),
        migrations=(None, MigrationSpec()), router_seed=3, systems="tutel",
    )


# The experiment and serve grids sweep two values on every axis.  The
# fleet has 17 axes, and two values on each is 2^16+ points, too many
# to run three times.  The three fleet grids instead sweep overlapping
# runs of neighbouring axes — models .. policies (disaggregated, with
# migrations), policies .. TTFT SLOs (unified, with autoscalers and
# failures), TTFT SLOs .. migrations (unified, with faults and
# resilience) — so every pair of neighbouring axes is swept together
# somewhere.  Any reordering of nested loops swaps some neighbouring
# pair, which reorders the grid sweeping both.
GRIDS = {
    "experiment": grid_experiment,
    "serve": grid_serve,
    "fleet-disaggregated": grid_fleet_disaggregated,
    "fleet-autoscaled": grid_fleet_autoscaled,
    "fleet-faults": grid_fleet_faults,
}

# capture(...).fingerprint of each grid's scenario tuple; it hashes the
# scenarios in order, so any change in expansion order changes it.
PINNED = {
    "experiment": ("experiment", 256, "26aeb8acb22b5c74"),
    "serve": ("serve", 1024, "cdc4f6d08a0e4ee0"),
    "fleet-disaggregated": ("fleet", 256, "881d627774030764"),
    "fleet-autoscaled": ("fleet", 32, "2cb508978b25d5f1"),
    "fleet-faults": ("fleet", 128, "440526471374e641"),
}


def run(spec, **kwargs):
    if isinstance(spec, ExperimentSpec):
        return spec.run(level="model", **kwargs)
    return spec.run(**kwargs)


class TestExpansionOrder:
    @pytest.mark.parametrize("name", GRIDS)
    def test_order_pinned(self, name):
        kind, size, fingerprint = PINNED[name]
        spec = GRIDS[name]()
        assert len(spec.scenarios) == size
        assert capture(kind, spec.scenarios, ()).fingerprint == fingerprint

    def test_fold_order_is_nested_loop_order(self):
        points = list(expand(
            (("a", (1, 2)), ("b", ("x", "y")), ("c", (True, False))),
            lambda a, b, c: (a, b, c),
        ))
        assert points == [
            (a, b, c) for a in (1, 2) for b in ("x", "y") for c in (True, False)
        ]

    def test_dependent_axis_evaluated_once_per_value(self):
        calls = []

        def inner(outer):
            calls.append(outer)
            return (outer * 10, outer * 10 + 1)

        points = list(expand(
            (("outer", (1, 2)), ("middle", "abc"), ("inner", inner)),
            lambda outer, middle, inner: (outer, middle, inner),
        ))
        assert calls == [1, 2]
        assert len(points) == 12
        assert points[:2] == [(1, "a", 10), (1, "a", 11)]

    def test_cluster_scenarios_share_one_straggler_spec(self):
        spec = ExperimentSpec.grid(
            strategies="sweep", tokens=(1024, 2048), stragglers=1.5,
            systems="tutel",
        )
        specs = {id(s.stragglers) for s in spec.scenarios}
        assert len(spec.scenarios) == 8 and len(specs) == 1


class TestWorkerKinds:
    @pytest.mark.parametrize("name", GRIDS)
    def test_exports_identical_serial_thread_process(self, name):
        spec = GRIDS[name]()
        serial = run(spec)
        expected = serial.to_json()
        for executor in ("thread", "process"):
            parallel = run(spec, workers=2, executor=executor)
            assert parallel.to_json() == expected, executor

    @pytest.mark.parametrize("executor", ("thread", "process"))
    def test_on_skip_sees_serial_records_in_order(self, executor):
        spec = ExperimentSpec.grid(
            strategies="sweep", tokens=(1024, 2048),
            systems=("fastermoe", "tutel"),
        )
        serial: list = []
        results = spec.run(on_skip=serial.append)
        assert len(serial) == 6 and serial == list(results.skips)
        seen: list = []
        spec.run(on_skip=seen.append, workers=2, executor=executor)
        assert seen == serial

    def test_custom_registry_refused_in_process_mode_for_one_scenario(self):
        registry = SystemRegistry()
        registry.register("tutel", lambda: None)
        spec = ExperimentSpec(
            scenarios=ExperimentSpec.grid(strategies=(1, 8), tokens=2048).scenarios,
            systems=("tutel",),
            registry=registry,
        )
        assert len(spec.scenarios) == 1
        with pytest.raises(ValueError, match="registry"):
            spec.run(workers=2, executor="process")


class TestDuplicatePoints:
    """A grid point listed twice runs once, and the manifest counts it
    once: the export equals the grid without the duplicate."""

    def test_experiment(self):
        kwargs = dict(strategies=(1, 8), systems="tutel")
        dup = ExperimentSpec.grid(tokens=(2048, 2048), **kwargs).run()
        single = ExperimentSpec.grid(tokens=2048, **kwargs).run()
        assert dup.manifest.scenarios == 1
        assert dup.to_json() == single.to_json()

    def test_serve(self):
        kwargs = dict(traces=TRACES[0], systems="tutel")
        dup = ServeSpec.grid(policies=("fcfs", "fcfs"), **kwargs).run()
        single = ServeSpec.grid(policies="fcfs", **kwargs).run()
        assert len(dup.reports) == 1 and dup.manifest.scenarios == 1
        assert dup.to_json() == single.to_json()

    def test_fleet(self):
        kwargs = dict(traces=TRACES[0], replicas=2, systems="tutel")
        dup = FleetSpec.grid(routers=("round_robin", "round_robin"), **kwargs).run()
        single = FleetSpec.grid(routers="round_robin", **kwargs).run()
        assert len(dup.reports) == 1 and dup.manifest.scenarios == 1
        assert dup.to_json() == single.to_json()


class TestEmptyAxes:
    """An empty axis expands to no grid point, so the grid raises naming
    it; each of these used to build zero scenarios and export an empty
    result.  No systems still means every registered system."""

    @pytest.mark.parametrize(
        "axis, name",
        (("tokens", "tokens"), ("seeds", "seed"), ("strategies", "strategy"),
         ("stragglers", "stragglers")),
    )
    def test_experiment(self, axis, name):
        with pytest.raises(ValueError, match=f"grid axis '{name}' has no values"):
            ExperimentSpec.grid(**{"tokens": 2048, axis: ()})

    @pytest.mark.parametrize("axis, name", (("traces", "trace"), ("strategies", "strategy")))
    def test_serve(self, axis, name):
        with pytest.raises(ValueError, match=f"grid axis '{name}' has no values"):
            ServeSpec.grid(**{axis: ()})

    @pytest.mark.parametrize(
        "axis, name",
        (("routers", "router"), ("replicas", "replicas"), ("stragglers", "stragglers")),
    )
    def test_fleet(self, axis, name):
        with pytest.raises(ValueError, match=f"grid axis '{name}' has no values"):
            FleetSpec.grid(**{axis: ()})

    def test_no_systems_means_every_system(self):
        spec = ExperimentSpec.grid(tokens=2048, systems=())
        assert spec.system_names() == ExperimentSpec.grid(tokens=2048).system_names()
        assert spec.scenarios


NUMERIC_AXES = [
    (ExperimentSpec, "tokens", "2048"),
    (ExperimentSpec, "tokens", 2048.9),
    (ExperimentSpec, "imbalance_stds", "0.1"),
    (ExperimentSpec, "seeds", "12"),
    (ExperimentSpec, "seeds", 0.5),
    *(
        (spec, axis, bad)
        for spec in (ServeSpec, FleetSpec)
        for axis, bad in (
            ("slo_ttft_ms", "75"),
            ("slo_tpot_ms", "75"),
            ("max_batch_tokens", "8192"),
            ("max_batch_tokens", 8192.7),
        )
    ),
]


class TestNumericAxes:
    @pytest.mark.parametrize(
        "spec,axis,bad", NUMERIC_AXES,
        ids=[f"{s.__name__}-{a}-{b!r}" for s, a, b in NUMERIC_AXES],
    )
    def test_string_or_fraction_rejected(self, spec, axis, bad):
        with pytest.raises(ValueError, match=f"{axis} entries must be"):
            spec.grid(**{axis: bad})
        with pytest.raises(ValueError, match=f"{axis} entries must be"):
            spec.grid(**{axis: (1, bad)})

    def test_integral_values_accepted(self):
        spec = ExperimentSpec.grid(strategies=(1, 8), tokens=(2048.0, 4096), seeds=1.0)
        assert [(s.tokens, s.seed) for s in spec.scenarios] == [(2048, 1), (4096, 1)]
        assert all(type(s.tokens) is int for s in spec.scenarios)
        serve = ServeSpec.grid(slo_ttft_ms=300, max_batch_tokens=4096.0)
        (scenario,) = serve.scenarios
        assert scenario.slo_ttft_ms == 300.0 and scenario.max_batch_tokens == 4096


STRATEGY = ParallelStrategy(tp_size=1, ep_size=8)


def _scenario(**kwargs):
    return Scenario(
        config=MIXTRAL_8X7B, cluster=h800_node(), strategy=STRATEGY,
        tokens=2048, **kwargs,
    )


def _serve(**kwargs):
    return ServeScenario(
        config=MIXTRAL_8X7B, cluster=h800_node(), strategy=STRATEGY, **kwargs
    )


def _fleet(**kwargs):
    replica = ReplicaSpec(cluster=h800_node(), strategy=STRATEGY, count=2)
    return FleetScenario(config=MIXTRAL_8X7B, replicas=(replica,), **kwargs)


NON_FINITE = [
    ("scenario-imbalance_std-nan", _scenario, "imbalance_std", math.nan),
    ("scenario-imbalance_std-inf", _scenario, "imbalance_std", math.inf),
    *(
        (f"{kind}-{field}-{value}", make, field, value)
        for kind, make in (("serve", _serve), ("fleet", _fleet))
        for field in ("slo_ttft_ms", "slo_tpot_ms")
        for value in (math.nan, math.inf)
    ),
    *(
        (f"autoscaler-{field}-{value}", AutoscalerSpec, field, value)
        for field in ("interval_ms", "warmup_ms", "cooldown_ms")
        for value in (math.nan, math.inf)
    ),
]


class TestGridPointBoundary:
    @pytest.mark.parametrize(
        "make,field,value", [case[1:] for case in NON_FINITE],
        ids=[case[0] for case in NON_FINITE],
    )
    def test_non_finite_rejected(self, make, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make(**{field: value})

    def test_fleet_model_must_divide_over_replica_strategy(self):
        cluster = h800_pod(2).effective_cluster()
        with pytest.raises(ValueError, match="not divisible by ep_size 16"):
            FleetSpec.grid(models="mixtral", clusters=cluster, replicas=2)
        with pytest.raises(ValueError, match="not divisible"):
            ServeSpec.grid(models="mixtral", clusters=cluster)

    def test_finite_values_still_accepted(self):
        assert _scenario(imbalance_std=0.1).imbalance_std == 0.1
        assert _serve(slo_ttft_ms=300.0).slo_ttft_ms == 300.0
        assert _fleet(slo_tpot_ms=50.0).slo_tpot_ms == 50.0
        assert AutoscalerSpec(warmup_ms=0.0, cooldown_ms=10.0).cooldown_ms == 10.0
